"""The nonuniform lattice x(s) = c1 q^s + c2 q^{-s} + c3 and its difference
calculus.

Lattice points carry the coordinate s (complex allowed, so q^s = e^{i theta}
is covered); x is always derived from s.  Shift indices k in x_k(s) =
x(s + k/2) may be any real number: half-integer shifts are pervasive.

Degenerate steps (a difference quotient whose denominator vanishes, e.g. the
symmetry point of a quadratic lattice) raise DegenerateStepError; check
grids are chosen to avoid them, and the few places that must evaluate a
removable 0/0 limit use the analytic s-derivative `x_deriv`.

Scalar/array contract
---------------------
`Lattice.x` takes one point and returns a Python complex.  `x_values`, `qs`,
`x_shifted`, `delta_x_mid` and `is_degenerate_step` take one point (through
`cmath`, returning a Python complex, or a bool) or an ndarray of points
(through numpy, elementwise).
`x` and `x_values` share one formula; array evaluation enters through
`x_values`, never through `x` (the benchmark's tracer keys `x` calls by
complex(s)).  Quotients of complex arrays go through `qkernel._cdiv`, which
rounds as Python's complex division does, so an array entry equals the
scalar value bit for bit on real-valued data (numpy's own complex division
multiplies by a rounded reciprocal); two numbers keep Python's division.  The families'
pointwise quantities (weight, rho, phi_n, P_n) take arrays only; a point is
a one-element array.

`LatticeTable` is the library's one x table: x(s + h/2) for its rows s
(grid points or nodes) and a range of integer h, in one `x_values` call
that raises on overflow, invalid and divide (an `ArithmeticError`, as cmath
raises); the unit steps Delta x and nabla x are differences of its columns.  Array `x_values` equals `Lattice.x` bit for bit (all six
lattices, q = 0.05 to 0.95, 2520 points each), so a guard that reads the
last bit of x, such as the Pearson sigma = 0 test, reads the same value.
`forward` (k-fold forward differences) and `backward` (n-fold backward
chains) take values on integer offsets of the rows, stacked over any
further lanes (n, the chain's end point), and return every depth, so all
lanes share one quotient per fold level.  A step is tested for degeneracy
only where some lane reads it, which is where a point-by-point fold would
divide by it; the quotients no lane reads are formed with floating-point
errors ignored and never read.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .qkernel import QBase, QKernelError, _cdiv

__all__ = ["DegenerateStepError", "Lattice", "LatticeTable"]


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

    def qs(self, s):
        """q**s for real or complex s; elementwise for an ndarray of s."""
        if isinstance(s, np.ndarray):
            return np.exp(s * math.log(self.base.q))
        return cmath.exp(complex(s) * math.log(self.base.q))

    def x(self, s) -> complex:
        """x(s) at one point."""
        return self.x_values(s)

    def x_values(self, s):
        """x(s) at one point, or elementwise on an ndarray of s."""
        t = self.qs(s)
        return complex(self.c1) * t + _cdiv(complex(self.c2), t) + complex(self.c3)

    def x_shifted(self, k, s):
        """x_k(s) = x(s + k/2); k any real."""
        return self.x_values(s + k / 2.0)

    def x_deriv(self, s) -> complex:
        """d x / d s = ln(q) (c1 q^s - c2 q^{-s}); used for 0/0 limits."""
        t = self.qs(s)
        return math.log(self.base.q) * (complex(self.c1) * t - complex(self.c2) / t)

    def delta_x_mid(self, s):
        """Delta x(s - 1/2) = x(s + 1/2) - x(s - 1/2)."""
        return self.x_values(s + 0.5) - self.x_values(s - 0.5)

    def step_scale(self) -> float:
        """Magnitude scale used to decide whether a step is degenerate."""
        return max(abs(complex(self.c1)), abs(complex(self.c2)), 1e-30) * abs(
            self.base.k_q
        )

    def is_degenerate_step(self, value):
        """Whether a step is degenerate (elementwise for an ndarray of steps)."""
        return abs(value) < 1e-9 * self.step_scale()


class LatticeTable:
    """x(s + h/2) for the rows s of one suite and h = h_lo..h_hi, as
    `x[r, h - h_lo]`, in one `x_values` call.

    `forward` and `backward` fold values given on integer offsets of the
    rows: each fold level is one `_cdiv` over the whole stack, every depth is
    returned, and a step is tested for degeneracy only where some lane reads it.
    """

    def __init__(self, lattice: Lattice, rows, h_lo: int, h_hi: int):
        self.lattice = lattice
        self.rows = np.array([complex(s) for s in rows], dtype=complex)
        self.h_lo = h_lo
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            self.x = lattice.x_values(self.rows[:, None] + np.arange(h_lo, h_hi + 1) / 2.0)

    def forward(self, f, depth):
        """k-fold forward differences

            Delta^{(k)} f(s) = Delta/Delta x_{k-1}(s) ... Delta/Delta x(s) f(s)

        of f[r, ..., j] = f(s_r + j), j = 0..m.  Entry d of the returned list
        holds Delta^{(d)} f(s_r + j) for j = 0..m-d.  `depth` (broadcast
        against the lanes f[..., 0]) is the k a lane reads, at entry k [..., 0].
        """
        return self._fold(f, np.expand_dims(depth, -1), 0, 0)

    def backward(self, f, depth, end=0):
        """n-fold backward chains, applied rightmost first,

            nabla^{(n)} f(s) = nabla/nabla x_1(s) ... nabla/nabla x_n(s) f(s),

        of f[r, ..., i] = f(s_r + end - m + i), i = 0..m.  A lane of `depth`
        n reads nabla^{(n)} f(s_r + end) at entry n [..., -1] of the returned
        list; entry d holds the values after d quotients of that chain, on
        s_r + end - m + d + i.  `depth` and `end` broadcast against the
        lanes f[..., 0].
        """
        m = f.shape[-1] - 1
        n = np.expand_dims(depth, -1)
        return self._fold(f, n, n - 2 * m + 2 * np.expand_dims(end, -1), m - n)

    def _fold(self, f, depth, c, start):
        """The quotient at depth d and index i divides by x(s + (h + 2)/2) -
        x(s + h/2), h = c + 2 i + d - 1; a lane reads the quotients
        start <= i <= start + depth - d.  The others may divide by a
        degenerate step; they are computed with errors ignored and never read."""
        m = f.shape[-1] - 1
        if np.min(c) < self.h_lo:
            raise IndexError("the fold reads x below the table")
        rows = np.arange(len(self.rows)).reshape((-1,) + (1,) * (f.ndim - 1))
        out = [f]
        with np.errstate(all="ignore"):
            for d in range(1, m + 1):
                i = np.arange(m + 1 - d)
                h = c + 2 * i + d - 1 - self.h_lo
                step = self.x[rows, h + 2] - self.x[rows, h]
                bad = (start <= i) & (i <= start + depth - d) & self.lattice.is_degenerate_step(step)
                if bad.any():
                    at = tuple(np.argwhere(bad)[0])
                    s = complex(self.rows[at[0]])
                    h0 = int(np.broadcast_to(h, bad.shape)[at]) + self.h_lo
                    raise DegenerateStepError(f"x({s + (h0 + 2) / 2}) - x({s + h0 / 2}) "
                                              "vanishes: lattice step is degenerate")
                v = out[-1]
                out.append(_cdiv(v[..., 1:] - v[..., :-1], step))
        return out
