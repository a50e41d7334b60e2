"""The nonuniform lattice x(s) = c1 q^s + c2 q^{-s} + c3 and its difference
calculus.

Lattice points carry the coordinate s (complex allowed, so q^s = e^{i theta}
is covered); x is always derived from s.  Shift indices k in x_k(s) =
x(s + k/2) may be any real number: half-integer shifts are pervasive.

Degenerate steps (a difference quotient whose denominator vanishes, e.g. the
symmetry point of a quadratic lattice) raise DegenerateStepError; check
grids are chosen to avoid them, and the few places that must evaluate a
removable 0/0 limit use the analytic s-derivative `x_deriv`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .qkernel import QBase, QKernelError

__all__ = [
    "DegenerateStepError",
    "Lattice",
    "GridFunction",
    "forward_diff",
    "backward_diff",
    "kfold_forward_diff",
    "nfold_backward_chain",
]


class DegenerateStepError(ArithmeticError):
    """A lattice difference step vanished where a quotient needed it."""


@dataclass(frozen=True)
class Lattice:
    """x(s) = c1 q^s + c2 q^{-s} + c3 on base q."""

    c1: complex
    c2: complex
    c3: complex
    base: QBase

    def __post_init__(self):
        if complex(self.c1) == 0 and complex(self.c2) == 0:
            raise QKernelError("degenerate lattice: c1 and c2 cannot both vanish")

    def qs(self, s) -> complex:
        """q**s for real or complex s."""
        return cmath.exp(complex(s) * math.log(self.base.q))

    def x(self, s) -> complex:
        t = self.qs(s)
        return complex(self.c1) * t + complex(self.c2) / t + complex(self.c3)

    def x_shifted(self, k, s) -> complex:
        """x_k(s) = x(s + k/2); k any real."""
        return self.x(complex(s) + k / 2.0)

    def x_deriv(self, s) -> complex:
        """d x / d s = ln(q) (c1 q^s - c2 q^{-s}); used for 0/0 limits."""
        t = self.qs(s)
        return math.log(self.base.q) * (complex(self.c1) * t - complex(self.c2) / t)

    def delta_x_mid(self, s) -> complex:
        """Delta x(s - 1/2) = x(s + 1/2) - x(s - 1/2)."""
        return self.x(complex(s) + 0.5) - self.x(complex(s) - 0.5)

    def delta_x(self, s) -> complex:
        """Delta x(s) = x(s+1) - x(s)."""
        return self.x(complex(s) + 1.0) - self.x(complex(s))

    def nabla_x(self, s) -> complex:
        """nabla x(s) = x(s) - x(s-1)."""
        return self.x(complex(s)) - self.x(complex(s) - 1.0)

    def step_scale(self) -> float:
        """Magnitude scale used to decide whether a step is degenerate."""
        return max(abs(complex(self.c1)), abs(complex(self.c2)), 1e-30) * abs(
            self.base.k_q
        )

    def is_degenerate_step(self, value) -> bool:
        return abs(value) < 1e-9 * self.step_scale()


@dataclass(frozen=True)
class GridFunction:
    """An evaluation rule s -> value together with the lattice it lives on."""

    lattice: Lattice
    fn: object  # callable s -> complex

    def __call__(self, s) -> complex:
        return self.fn(s)


def _checked_step(lat: Lattice, value, what: str):
    if lat.is_degenerate_step(value):
        raise DegenerateStepError(f"{what} vanishes: lattice step is degenerate")
    return value


def forward_diff(f: GridFunction, s) -> complex:
    """(f(s+1) - f(s)) / (x(s+1) - x(s))."""
    lat = f.lattice
    step = _checked_step(lat, lat.delta_x(s), f"Delta x({s})")
    return (f(complex(s) + 1.0) - f(s)) / step


def backward_diff(f: GridFunction, s) -> complex:
    """(f(s) - f(s-1)) / (x(s) - x(s-1))."""
    lat = f.lattice
    step = _checked_step(lat, lat.nabla_x(s), f"nabla x({s})")
    return (f(s) - f(complex(s) - 1.0)) / step


def kfold_forward_diff(f: GridFunction, k: int, s) -> complex:
    """The k-fold forward difference derivative

        Delta^{(k)} f(s) = Delta/Delta x_{k-1}(s) ... Delta/Delta x(s) f(s);

    k = 0 returns f(s).  Needs f on s..s+k.
    """
    if k < 0:
        raise QKernelError(f"fold count must be nonnegative, got {k}")
    lat = f.lattice
    s0 = complex(s)
    vals = [f(s0 + j) for j in range(k + 1)]
    for level in range(k):
        # divide by Delta x_level(s + j) = x(s + j + 1 + level/2) - x(s + j + level/2)
        nxt = []
        for j in range(len(vals) - 1):
            step = _checked_step(
                lat,
                lat.x_shifted(level, s0 + j + 1) - lat.x_shifted(level, s0 + j),
                f"Delta x_{level}({s0 + j})",
            )
            nxt.append((vals[j + 1] - vals[j]) / step)
        vals = nxt
    return vals[0]


def nfold_backward_chain(f: GridFunction, n: int, s) -> complex:
    """The n-fold backward chain

        nabla^{(n)} f(s) = nabla/nabla x_1(s) nabla/nabla x_2(s) ...
                           nabla/nabla x_n(s) f(s),

    applied rightmost first.  Needs f on s-n..s.
    """
    if n < 1:
        raise QKernelError(f"chain length must be >= 1, got {n}")
    lat = f.lattice
    s0 = complex(s)
    vals = [f(s0 - n + j) for j in range(n + 1)]
    for level in range(n, 0, -1):
        # level runs n, n-1, ..., 1; current vals live on s-(level-1)..s
        nxt = []
        for j in range(len(vals) - 1):
            sj = s0 - (len(vals) - 2) + j  # point where the quotient is taken
            step = _checked_step(
                lat,
                lat.x_shifted(level, sj) - lat.x_shifted(level, sj - 1),
                f"nabla x_{level}({sj})",
            )
            nxt.append((vals[j + 1] - vals[j]) / step)
        vals = nxt
    return vals[0]
