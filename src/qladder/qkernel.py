"""Scalar q-arithmetic: q-numbers, q-factorials, q-Pochhammer symbols and
terminating basic hypergeometric series.

Everything here works over complex double precision.  The base q is a real
number with q > 0 and q != 1; infinite products additionally require q < 1.
Symmetric q-numbers

    [k]_q = (q^{k/2} - q^{-k/2}) / (q^{1/2} - q^{-1/2})

are the primitive (real or complex k), not a special-cased integer version.
The series are the terminating _r phi_s(q^{-n}, ...; q, z) of the families'
polynomials: exactly n + 1 terms, no convergence test.  An infinite product
stops at its first factor with |a q^k| < `_INF_TOL`, a module constant.

Scalar/array contract
---------------------
Scalars go through `math`/`cmath` and return a Python complex (or float).
`QBase.pow`, `q_pochhammer_inf` and `q_pochhammer_multi` (infinite products)
also take an ndarray and work elementwise through numpy: a family's weight
takes arrays only, so it is evaluated once per node array.  The array
product repeats the scalar's factor sequence: a q^k by repeated
multiplication, each element's own factors (those before its first
|a q^k| < _INF_TOL) multiplied left to right from 1, so every entry equals
the scalar value bit for bit.  `q_pochhammer_multi` stacks its parameters
(scalars broadcast) into one array product and multiplies the rows from 1
in order, as the scalar route does.  `q_pochhammer_orbit` (the suffix
products of one run of factors) equals the scalar up to rounding.  The
scalar loop of `q_pochhammer_inf` stays for constants: at q <= 0.5 a call
takes 4-17 us, against 30-50 us through the array product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QKernelError",
    "NonConvergedError",
    "QBase",
    "q_number",
    "alpha_q",
    "q_factorial",
    "q_pochhammer",
    "q_pochhammer_inf",
    "q_pochhammer_orbit",
    "q_pochhammer_multi",
    "basic_hypergeometric",
    "require_finite",
]

# Hard cap on infinite-product factors; geometric decay for q < 1 means this
# is never reached for sane inputs.
_MAX_INF_FACTORS = 10**6
_NOT_TRUNCATED = f"(a;q)_inf did not truncate within {_MAX_INF_FACTORS} factors"
_INF_TOL = 1e-16  # an infinite product stops at its first |a q^k| below it
# (factor x element) entries of one block of an array infinite product; bounds
# the memory of a block, not the number of factors
_BLOCK_ENTRIES = 1 << 16


class QKernelError(ValueError):
    """Invalid argument to a q-arithmetic routine."""


class NonConvergedError(QKernelError):
    """A truncated product or quadrature failed to settle within its budget."""


def require_finite(value, what="value"):
    """Return `value` unchanged, raising if it is NaN or infinite."""
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise QKernelError(f"{what} is not finite: {value!r}")
    return value


@dataclass(frozen=True)
class QBase:
    """The base q of the calculus.  q > 0 and q != 1.

    Infinite products are only defined for q < 1; operations that need them
    check `allows_infinite_products` and raise otherwise.
    """

    q: float

    def __post_init__(self):
        if not (self.q > 0.0):
            raise QKernelError(f"base q must be positive, got {self.q}")
        if self.q == 1.0:
            raise QKernelError("base q must differ from 1")
        if not math.isfinite(self.q):
            raise QKernelError(f"base q must be finite, got {self.q}")

    @property
    def allows_infinite_products(self) -> bool:
        return self.q < 1.0

    def pow(self, e):
        """q**e for real or complex exponent e; elementwise for an ndarray."""
        if isinstance(e, np.ndarray):
            return np.exp(e * math.log(self.q))
        if isinstance(e, complex):
            return cmath.exp(e * math.log(self.q))
        return math.exp(e * math.log(self.q))

    @property
    def sqrt_q(self) -> float:
        return math.sqrt(self.q)

    @property
    def k_q(self) -> float:
        """k_q = q^{1/2} - q^{-1/2} (negative for q < 1)."""
        s = self.sqrt_q
        return s - 1.0 / s

    def inverted(self) -> "QBase":
        """The base 1/q (used for families defined by q -> 1/q)."""
        return QBase(1.0 / self.q)


def q_number(k, base: QBase):
    """The symmetric q-number [k]_q = (q^{k/2}-q^{-k/2})/(q^{1/2}-q^{-1/2}).

    k may be any real (or complex) number; [k]_q is odd in k.
    """
    half = base.pow(k / 2.0)
    return (half - 1.0 / half) / base.k_q


def alpha_q(k, base: QBase):
    """alpha_q(k) = (q^{k/2} + q^{-k/2}) / 2; even in k, >= 1 for real k."""
    half = base.pow(k / 2.0)
    return (half + 1.0 / half) / 2.0


def q_factorial(n: int, base: QBase) -> float:
    """[n]_q! = [1]_q [2]_q ... [n]_q; the empty product is 1."""
    if n < 0 or n != int(n):
        raise QKernelError(f"q-factorial needs a nonnegative integer, got {n}")
    out = 1.0
    for k in range(1, int(n) + 1):
        out *= q_number(float(k), base)
    return out


def q_pochhammer(a, base: QBase, k: int):
    """(a;q)_k = prod_{m=0}^{k-1} (1 - a q^m) for integer k >= 0."""
    if k < 0 or k != int(k):
        raise QKernelError(f"q-Pochhammer order must be a nonnegative integer, got {k}")
    out = complex(1.0)
    aq = complex(a)
    for _ in range(int(k)):
        out *= 1.0 - aq
        aq *= base.q
    return out


def q_pochhammer_inf(a, base: QBase):
    """(a;q)_infty = prod_{k>=0} (1 - a q^k), truncated once |a q^K| < _INF_TOL.

    Requires 0 < q < 1.  The truncation criterion is factor distance from 1;
    the dropped tail multiplies the result by 1 + O(|a| q^K / (1-q)).
    `a` may be an ndarray (elementwise, see the module contract).
    """
    if not base.allows_infinite_products:
        raise QKernelError(f"infinite product requires q<1, got q={base.q}")
    if isinstance(a, np.ndarray):
        return _q_pochhammer_inf_array(a, base.q)
    out = complex(1.0)
    aq = complex(a)
    for _ in range(_MAX_INF_FACTORS):
        if abs(aq) < _INF_TOL:
            return require_finite(out, "(a;q)_inf")
        out *= 1.0 - aq
        if out == 0.0:
            return out
        aq *= base.q
    raise NonConvergedError(_NOT_TRUNCATED)


def q_pochhammer_orbit(a, base: QBase, size: int):
    """(a q^k;q)_infty for k = 0..size-1 on a new last axis, elementwise in `a`:
    the suffix products of the run of factors 1 - a q^m, cut where
    `q_pochhammer_inf` cuts.  The factors past the last node are one
    `q_pochhammer_inf`, which refuses what it refuses."""
    with np.errstate(all="ignore"):  # a non-finite a or product raises below
        steps = np.full((size,) + np.shape(a), base.q, dtype=complex)
        steps[0] = a
        powers = np.cumprod(steps, axis=0)  # a q^m: the scalar's aq *= q
        past = q_pochhammer_inf(powers[-1:] * base.q, base)
        factors = np.where(np.abs(powers) >= _INF_TOL, 1.0 - powers, 1.0)  # |a q^m| falls with m
        out = np.cumprod(np.concatenate([past, factors[::-1]]), axis=0)[:0:-1]
    if not np.isfinite(out).all():
        raise QKernelError(f"(a;q)_inf is not finite: {complex(out[~np.isfinite(out)][0])!r}")
    return np.moveaxis(out, 0, -1)


def _q_pochhammer_inf_array(a, q: float):
    """`q_pochhammer_inf` elementwise on an ndarray, in blocks of factors over
    the elements still live: each element multiplies its own factors only,
    those before its first |a q^k| < _INF_TOL, into its product so far."""
    aq = np.array(a, dtype=complex).ravel()
    if not np.isfinite(aq).all():  # the scalar loop runs to the factor cap
        raise NonConvergedError(_NOT_TRUNCATED)
    out = np.ones(aq.shape, dtype=complex)
    live, done = np.arange(aq.size), 0  # elements that may still take factors
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises below
        while live.size and (top := np.abs(aq[live]).max()) >= _INF_TOL:
            if done >= _MAX_INF_FACTORS:
                raise NonConvergedError(_NOT_TRUNCATED)
            # enough factors for the largest live element, within the budget
            need = math.ceil(math.log(_INF_TOL / top) / math.log(q)) + 1
            rows = max(1, min(need, _MAX_INF_FACTORS - done, _BLOCK_ENTRIES // live.size))
            steps = np.full((live.size, rows + 2), q, dtype=complex)
            steps[:, 0] = aq[live]
            powers = np.cumprod(steps, axis=1)  # a q^k: the scalar's aq *= q
            run = np.logical_and.accumulate(np.abs(powers[:, :-1]) >= _INF_TOL, axis=1)
            # row e: its product so far, then 1 - a q^k, k < rows, reduced over its own
            np.subtract(1.0, powers[:, :rows], out=steps[:, 1:-1])
            steps[:, 0] = out[live]
            bounds = np.repeat(np.arange(0, steps.size, rows + 2), 2)
            bounds[1::2] += 1 + run[:, :-1].sum(axis=1)
            out[live] = np.multiply.reduceat(steps.ravel(), bounds)[::2]
            aq[live] = powers[:, rows]
            live, done = live[run[:, -1]], done + rows
    if not np.isfinite(out).all():
        raise QKernelError(f"(a;q)_inf is not finite: {complex(out[~np.isfinite(out)][0])!r}")
    return out.reshape(np.shape(a))


def q_pochhammer_multi(values, base: QBase, k=None):
    """(a_1,...,a_p;q)_k = prod_i (a_i;q)_k; k=None means the infinite product,
    one array pass over the stacked a_i when one is an ndarray (module contract)."""
    if k is None and any(isinstance(a, np.ndarray) for a in values):
        factors = q_pochhammer_inf(np.stack(np.broadcast_arrays(*values)), base)
    else:
        factors = (q_pochhammer_inf(a, base) if k is None else q_pochhammer(a, base, k)
                   for a in values)
    out = complex(1.0)
    for f in factors:
        out *= f
    return out


def basic_hypergeometric(n: int, upper, lower, z, base: QBase):
    """The terminating series _r phi_s(q^{-n}, a_1..a_{r-1}; b_1..b_s; q, z).

    `upper` holds the numerator parameters after q^{-n}, which is formed here.
    Exactly the n + 1 terms k = 0..n are summed; the k-th carries the standard
    extra factor [(-1)^k q^{k(k-1)/2}]^{s-r+1}.  A lower parameter at q^{-k}
    with k < n divides by zero and raises.
    """
    upper = [complex(base.pow(float(-n)))] + [complex(a) for a in upper]
    lower = [complex(b) for b in lower]
    z = complex(z)
    sign_power = len(lower) - len(upper) + 1

    total = complex(1.0)
    term = complex(1.0)
    qk = 1.0  # q^k
    for k in range(n):
        num = complex(1.0)
        for a in upper:
            num *= 1.0 - a * qk
        den = 1.0 - base.q * qk  # the (q;q)_{k+1} factor
        for b in lower:
            f = 1.0 - b * qk
            if abs(f) < 1e-14 * (1.0 + abs(b * qk)):
                raise QKernelError(
                    f"lower parameter {b} hits q^{{-{k}}}: division by zero in series"
                )
            den *= f
        ratio = num / den * z
        if sign_power:
            ratio *= (-qk) ** sign_power
        term = term * ratio
        total += term
        qk *= base.q
    return require_finite(total, "basic hypergeometric series")
