"""q-arithmetic: q-numbers, q-factorials, q-Pochhammer symbols and
terminating basic hypergeometric series, on numbers and on arrays.

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

`q_pochhammer` with an int ndarray order and `basic_hypergeometric` (n an
int ndarray, 0-d for one series) broadcast their arguments and return an
ndarray: one cumulative product over the orders or terms k < max, read at
each entry's own, in the scalar loop's order (q^k and q^{-n} Python
numbers, quotients through `_cdiv`, Python's complex division, where numpy
multiplies by a rounded reciprocal).  On real-valued data each entry equals
the scalar loop (the tests' oracle) bit for bit; a product of two factors
with imaginary parts may move in the last bit (numpy's vector multiply can
fuse it into a multiply-add).
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


def _cdiv(a, b):
    """a / b; elementwise when either is an ndarray, with the operation
    order of Python's complex division (Smith's method: divide through by
    the larger part of b)."""
    if not isinstance(b, np.ndarray):
        if not isinstance(a, np.ndarray):
            return a / b
        b = complex(b)
        by_real = all_real = abs(b.real) >= abs(b.imag)
        no_real = not all_real
    else:
        by_real = np.abs(b.real) >= np.abs(b.imag)
        all_real = by_real.all()
        no_real = not all_real and not by_real.any()
    a = np.asarray(a, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if all_real:
        p, q, u, v = br, bi, ar, ai
    elif no_real:
        p, q, u, v = bi, br, ai, ar
    else:
        p, q = np.where(by_real, br, bi), np.where(by_real, bi, br)
        u, v = np.where(by_real, ar, ai), np.where(by_real, ai, ar)
    ratio = q / p
    denom = p + q * ratio
    uq = u * ratio
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = (u + v * ratio) / denom
    out.imag = (v - uq if all_real else uq - v if no_real
                else np.where(by_real, v - uq, uq - v)) / denom
    return out


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


def q_pochhammer(a, base: QBase, k):
    """(a;q)_k = prod_{m=0}^{k-1} (1 - a q^m) for integer k >= 0; elementwise
    for an int ndarray k, broadcast with `a` (see the module contract)."""
    if isinstance(k, np.ndarray):
        if (k < 0).any():
            raise QKernelError(f"q-Pochhammer order must be a nonnegative integer, got {k.min()}")
        shape = np.broadcast_shapes(k.shape, np.shape(a))
        steps = np.full((int(k.max(initial=0)) + 1,) + shape, base.q, dtype=complex)
        steps[0] = a
        steps[1:] = 1.0 - np.cumprod(steps, axis=0)[:-1]  # 1 - a q^m, a q^m as aq *= q
        steps[0] = 1.0
        return _row_at(np.cumprod(steps, axis=0), k)  # (a;q)_m at row m: out *= 1 - aq from 1
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


def _row_at(table, rows):
    """table[rows[e], e] at each entry e of table.shape[1:], which the int
    ndarray rows broadcasts to."""
    flat = table.reshape(len(table), -1)
    at = np.broadcast_to(rows, table.shape[1:]).ravel()
    return flat[at, np.arange(flat.shape[1])].reshape(table.shape[1:])


def basic_hypergeometric(n, upper, lower, z, base: QBase):
    """The terminating series _r phi_s(q^{-n}, a_1..a_{r-1}; b_1..b_s; q, z),
    elementwise over the int ndarray n and the numbers or ndarrays of
    `upper`, `lower` and z, broadcast together (module contract).

    `upper` holds the numerator parameters after q^{-n}, which is formed here.
    Each entry sums exactly its n + 1 terms k = 0..n; the k-th carries the
    standard extra factor [(-1)^k q^{k(k-1)/2}]^{s-r+1}.  A lower parameter
    at q^{-k} with k < n divides by zero and raises, as does a non-finite
    sum: the first such entry in C order (n outer, point inner for an n
    column and a point row) names the error.
    """
    n = np.asarray(n)
    q_n = np.array([base.pow(float(-k)) for k in n.ravel().tolist()]).reshape(n.shape)
    # every parameter complex, as the scalar loop takes it
    upper = [np.asarray(a, dtype=complex) for a in (q_n, *upper)]
    lower = [np.asarray(b, dtype=complex) for b in lower]
    z = np.asarray(z, dtype=complex)
    shape = np.broadcast_shapes(n.shape, z.shape, *(v.shape for v in upper + lower))
    sign_power = len(lower) - len(upper) + 1
    K = int(n.max(initial=0))  # axis 0 runs over k < K: every term ratio at once
    qks = [1.0] * K  # q^k by repeated multiplication
    for k in range(1, K):
        qks[k] = qks[k - 1] * base.q
    qk = np.array(qks).reshape((K,) + (1,) * len(shape))
    with np.errstate(all="ignore"):  # the guard and the finiteness test raise below
        num = np.ones(qk.shape, dtype=complex)
        for a in upper:
            num = num * (1.0 - a * qk)
        den = 1.0 - base.q * qk  # the (q;q)_{k+1} factor
        live = np.arange(K).reshape(qk.shape) < n
        hit = np.zeros((len(lower), K) + shape, dtype=bool)  # lower param j at q^{-k}, k < n
        for j, b in enumerate(lower):
            f = 1.0 - b * qk
            hit[j] = live & (np.abs(f) < 1e-14 * (1.0 + np.abs(b * qk)))
            den = den * f
        ratio = _cdiv(num, den) * z
        if sign_power:
            ratio = ratio * np.array([(-v) ** sign_power for v in qks]).reshape(qk.shape)
        # term k + 1 = term k * ratio k from term 0 = 1; each entry's sum stops at its n
        terms = np.cumprod(np.concatenate([np.ones((1,) + shape, dtype=complex),
                                           np.broadcast_to(ratio, (K,) + shape)]), axis=0)
        total = _row_at(np.cumsum(terms, axis=0), np.maximum(n, 0))  # n < 0: no terms
    bad = np.flatnonzero(hit.any(axis=(0, 1)) | ~np.isfinite(total))
    if bad.size:
        first = np.unravel_index(bad[0], shape)
        at = hit[(slice(None), slice(None), *first)]  # (b, k) of the first bad entry
        if at.any():
            k = int(at.any(axis=0).argmax())
            b = complex(np.broadcast_to(lower[int(at[:, k].argmax())], shape)[first])
            raise QKernelError(f"lower parameter {b} hits q^{{-{k}}}: division by zero in series")
        require_finite(complex(total[first]), "basic hypergeometric series")
    return total
