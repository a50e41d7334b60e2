"""General machinery of the hypergeometric-type difference equation

    sigma(s) Delta/Delta x(s-1/2) [nabla y / nabla x] + tau(s) Delta y/Delta x
        + lambda y = 0

on a nonuniform lattice: sigma/tau from Taylor data, the tau_k
coefficients, eigenvalues lambda_n, the per-n table of the equation, the
Pearson weight (a plain tuple) and Rodrigues evaluation (an oracle for
n <= 5, with B_n from the family's table, `CoefficientTable.B`).

Conventions
-----------
* sigma(s) = sigma~(x(s)) - (1/2) tau~(x(s)) Delta x(s-1/2) and
  Theta(s) = sigma(s) + tau(s) Delta x(s-1/2) = sigma~ + (1/2) tau~ Delta x(s-1/2).
* lam_ratio(n) is the analytic function -{alpha_q(n-1) tau~' + [n-1]_q sigma~''/2},
  equal to lambda_n/[n]_q for n != 0 and to its limit at n = 0.
* Ratios sigma(s)/nabla x(s) and Theta(s)/Delta x(s) are limit-aware: when
  the denominator vanishes (a removable 0/0 at a lattice symmetry point,
  e.g. s = 0 on the quadratic dual-Hahn lattice with boundary a = 0) the
  exact analytic s-derivative ratio is used.

Scalar/array contract
---------------------
sigma and Theta have one formula each, `_sigma_at` and `_theta_at`: from x
and Delta x(s-1/2), given as numbers or as ndarrays, never from a point s.
The x they are given comes from a `lattice.LatticeTable`, one array call
per table, and is handed on two ways.  `ladder.StencilGrid`, the one
implementation of the operator coefficients and of the polynomial ladder
relations, passes arrays, and takes sigma/nabla x and Theta/Delta x from
`_limit_ratio`, which evaluates the removable 0/0 entries one by one
through the analytic limit.  The Pearson tables and the Rodrigues values
read sigma and Theta as Python complex numbers, once per point
(`_sigma_theta`, which says why), so the Pearson recurrence and the rho_n
products read identical values, and the CLI's `eval` rows read their
sigma, tau and Theta the same way.  There is no sigma or Theta function of
a point s; the tests keep one as the reference.  `sigma_tilde`,
`tau_tilde`, `EquationTable.A` and `rel_residual` take one point or an
ndarray (elementwise, through numpy).  `rel_residual` keeps its scalar
branch: numpy's complex abs differs from Python's on about a third of
random operands, so a scalar residual routed through numpy would move.
Everything else here is scalar, except the table entries over n below.

The n-dependent data (lam_ratio, lambda_n, the tau_k coefficients, b_n/a_n
and the generic beta_n) are columns over n = 0, 1, ... of an
`EquationTable`, each entry computed once through its scalar formula, so it
equals the formula's value bit for bit.  `_column` is the one store of
per-n data: the family's table (`families.CoefficientTable`, with the
recurrence data), the family's norms (`families.FamilySpec`) and the
stencil grid's arrays over n (`ladder.StencilGrid`) use it too.  A column
read with an int gives one row (a Python number for a table entry), with a
sequence of n the complex ndarray of those rows; `A` stacks A(s,n) on a
leading n axis, so the suites take their per-n constants for every n at
once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce, wraps

import numpy as np

from .lattice import DegenerateStepError, Lattice, LatticeTable
from .qkernel import QBase, QKernelError, _cdiv, alpha_q, q_number

__all__ = [
    "EquationData",
    "TauK",
    "EquationTable",
    "sigma_tilde",
    "tau_tilde",
    "tau_k_coeffs",
    "lam_ratio",
    "pearson_weight",
    "rodrigues_values",
    "rel_residual",
]

RODRIGUES_MAX_ORDER = 5  # nested quotients lose ~1 digit per level in doubles
RESIDUAL_FLOOR = 1e-12  # below it a residual is absolute, not relative


def rel_residual(residual, terms) -> float:
    """|residual| divided by the largest constituent magnitude.

    Falls back to the absolute residual when every term is below
    RESIDUAL_FLOOR (tolerances are relative with an absolute floor).  With
    an ndarray residual the terms broadcast against it, elementwise.
    """
    if isinstance(residual, np.ndarray):
        scale = reduce(np.maximum, (np.abs(t) for t in terms))
        res = np.abs(residual)
        return np.where(scale < RESIDUAL_FLOOR, res, res / np.maximum(scale, RESIDUAL_FLOOR))
    scale = max((abs(t) for t in terms), default=0.0)
    if scale < RESIDUAL_FLOOR:
        return abs(residual)
    return abs(residual) / scale


@dataclass(frozen=True)
class EquationData:
    """Taylor data of one hypergeometric difference equation.

    sigma~(x) = (sigma_pp/2) x^2 + sigma_p0 x + sigma_00,
    tau~(x)   = tau_p x + tau_0,

    together with the lattice.
    """

    sigma_pp: complex
    sigma_p0: complex
    sigma_00: complex
    tau_p: complex
    tau_0: complex
    lattice: Lattice

    def __post_init__(self):
        if complex(self.tau_p) == 0 and complex(self.sigma_pp) == 0:
            raise QKernelError(
                "invalid equation data: tau~' and sigma~'' cannot both vanish"
            )

    @property
    def base(self) -> QBase:
        return self.lattice.base


@dataclass(frozen=True)
class TauK:
    """Affine data of tau_k(s) = slope * x_k(s) + intercept."""

    k: float
    slope: complex
    intercept: complex


def sigma_tilde(eq: EquationData, xv):
    return complex(eq.sigma_pp) / 2.0 * xv * xv + complex(eq.sigma_p0) * xv + complex(
        eq.sigma_00
    )


def tau_tilde(eq: EquationData, xv):
    return complex(eq.tau_p) * xv + complex(eq.tau_0)


def _sigma_at(eq: EquationData, xv, dxm):
    """sigma = sigma~(x) - (1/2) tau~(x) Delta x(s-1/2), from x = x(s) and
    dxm = Delta x(s-1/2)."""
    return sigma_tilde(eq, xv) - 0.5 * tau_tilde(eq, xv) * dxm


def _theta_at(eq: EquationData, xv, dxm):
    """Theta = sigma + tau Delta x(s-1/2) = sigma~(x) + (1/2) tau~(x) Delta x(s-1/2)."""
    return sigma_tilde(eq, xv) + 0.5 * tau_tilde(eq, xv) * dxm


def tau_k_coeffs(eq: EquationData, k) -> TauK:
    """Taylor coefficients of tau_k(s) = tau_k' x_k(s) + tau_k(0):

        tau_k' = [2k]_q sigma~''/2 + alpha_q(2k) tau~',
        tau_k(0) = c3 sigma~''/2 (2[k]_q - [2k]_q) + sigma~'(0) [k]_q
                   + c3 tau~' (alpha_q(k) - alpha_q(2k)) + tau~(0) alpha_q(k).
    """
    base = eq.base
    qk = q_number(k, base)
    q2k = q_number(2.0 * k, base)
    ak = alpha_q(k, base)
    a2k = alpha_q(2.0 * k, base)
    slope = q2k * complex(eq.sigma_pp) / 2.0 + a2k * complex(eq.tau_p)
    intercept = (
        complex(eq.lattice.c3) * complex(eq.sigma_pp) / 2.0 * (2.0 * qk - q2k)
        + complex(eq.sigma_p0) * qk
        + complex(eq.lattice.c3) * complex(eq.tau_p) * (ak - a2k)
        + complex(eq.tau_0) * ak
    )
    return TauK(k=k, slope=slope, intercept=intercept)


def lam_ratio(eq: EquationData, n) -> complex:
    """-{alpha_q(n-1) tau~' + [n-1]_q sigma~''/2}: lambda_n/[n]_q continued to all real n."""
    base = eq.base
    return -(
        alpha_q(n - 1.0, base) * complex(eq.tau_p)
        + q_number(n - 1.0, base) * complex(eq.sigma_pp) / 2.0
    )


def _column(fn):
    """A quantity over n = 0, 1, ..., a list of rows in `obj._columns` (a
    defaultdict(list)) grown to the largest n read by one
    `obj._compute(fn, ns)` call for the n not yet held; fn must not read its
    own column.  An int n reads its row as stored, a sequence or an int
    ndarray of n those rows stacked as a complex ndarray; n < 0 raises
    IndexError."""
    name = fn.__name__

    def held(self, lo, hi):  # the column, holding rows lo..hi
        if lo < 0:
            raise IndexError(f"{name} has no row n = {lo}: n counts from 0")
        col = self._columns[name]
        if hi >= len(col):
            col += self._compute(fn, range(len(col), hi + 1))
        return col

    @wraps(fn)
    def read(self, n):
        if isinstance(n, (int, np.integer)):
            col = self._columns[name]
            return col[n] if 0 <= n < len(col) else held(self, n, n)[n]
        ns = n.tolist() if isinstance(n, np.ndarray) else list(n)
        if not ns:  # no rows, in the shape of row 0
            return np.empty((0, *np.shape(held(self, 0, 0)[0])), dtype=complex)
        col = held(self, min(ns), max(ns))
        return np.array([col[k] for k in ns], dtype=complex)

    return read


class EquationTable:
    """The n-dependent data of one equation, as columns over n: lam_ratio,
    lambda_n, the tau_k coefficients, b_n/a_n and the generic beta_n.  Each
    entry is computed once, when first read, by its scalar formula, so it
    equals the formula's value bit for bit.  `A` reads its lam_ratio and
    tau_n columns.  A family's table (`families.CoefficientTable`) extends it
    with the family's own per-n data."""

    def __init__(self, eq: EquationData):
        self.eq = eq
        self._columns = defaultdict(list)

    def _compute(self, fn, ns):
        """fn's entries for the n in ns, one scalar formula call each."""
        return [fn(self, n) for n in ns]

    @_column
    def lam_ratio(self, n) -> complex:
        return lam_ratio(self.eq, n)

    @_column
    def lambda_n(self, n) -> complex:
        return q_number(float(n), self.eq.base) * self.lam_ratio(n)

    @_column
    def tau(self, k) -> tuple:
        """(tau_k', tau_k(0)), the affine data of tau_k."""
        tk = tau_k_coeffs(self.eq, float(k))
        return tk.slope, tk.intercept

    @_column
    def b_over_a(self, n: int) -> complex:
        if n == 0:
            return complex(0.0)
        slope, intercept = self.tau(n - 1)
        if abs(slope) == 0.0:
            raise QKernelError(f"tau_{n-1}' = 0: b_n/a_n undefined")
        qn = q_number(float(n), self.eq.base)
        return qn * intercept / slope + complex(self.eq.lattice.c3) * (qn - n)

    @_column
    def beta_generic(self, n: int) -> complex:
        return self.b_over_a(n) - self.b_over_a(n + 1)

    def A(self, n, s):
        """A(s,n) for an int ndarray of n, at one point or elementwise on an
        ndarray of s: the (n x *s.shape) stack of A(s,n)."""
        col = lambda v: v.reshape((-1,) + (1,) * np.ndim(s))
        slope, intercept = (col(v) for v in self.tau(n).T)
        at = slope * self.eq.lattice.x_shifted(col(n), s) + intercept
        return _cdiv(col(self.lam_ratio(n)) * at, slope)


def _sigma_theta_deriv(eq: EquationData, s, sign: int) -> complex:
    """d sigma/d s (sign -1) or d Theta/d s (sign +1), analytic, at one
    point: the removable 0/0 limits of `_limit_ratio`."""
    lat = eq.lattice
    s = complex(s)
    xv = lat.x(s)
    dxm = lat.delta_x_mid(s)
    ddxm = lat.x_deriv(s + 0.5) - lat.x_deriv(s - 0.5)
    xd = lat.x_deriv(s)
    return (
        (complex(eq.sigma_pp) * xv + complex(eq.sigma_p0)) * xd
        + sign * 0.5 * complex(eq.tau_p) * xd * dxm
        + sign * 0.5 * tau_tilde(eq, xv) * ddxm
    )


def _limit_ratio(eq: EquationData, num, step, s, sign: int):
    """num/step on arrays: sigma/nabla x (sign -1) or Theta/Delta x (sign
    +1) at the points s.  Where the step is degenerate (a removable 0/0 at a
    lattice symmetry point) the entry is the exact ratio of the analytic
    s-derivatives; a step vanishing to second order raises."""
    lat = eq.lattice
    degenerate = lat.is_degenerate_step(step)
    out = _cdiv(num, np.where(degenerate, 1.0, step))
    for idx in zip(*np.nonzero(degenerate)):
        t = complex(s[idx])
        hi, lo = (t, t - 1.0) if sign < 0 else (t + 1.0, t)
        dstep = lat.x_deriv(hi) - lat.x_deriv(lo)
        if lat.is_degenerate_step(dstep):
            name = "nabla" if sign < 0 else "Delta"
            raise DegenerateStepError(f"{name} x({t}) vanishes to second order")
        out[idx] = _sigma_theta_deriv(eq, t, sign) / dstep
    return out


def pearson_weight(eq: EquationData, anchor, lo: int, hi: int) -> tuple:
    """Solve the Pearson equation Delta[sigma rho]/Delta x(s-1/2) = tau rho as
    a ratio recurrence on anchor+lo .. anchor+hi, normalized to
    rho(anchor) = 1: the tuple of rho(anchor + k), k = lo..hi, at index
    k - lo, so successive values satisfy rho(s+1)/rho(s) = Theta(s)/sigma(s+1).

    sigma may vanish only where the running weight is already zero (support
    boundaries); anywhere else a vanishing divisor raises.
    """
    if lo > 0 or hi < 0:
        raise QKernelError("weight table must contain its anchor (lo <= 0 <= hi)")
    anchor = complex(anchor)
    table = LatticeTable(eq.lattice, [anchor], 2 * lo - 1, 2 * hi + 1)
    return _pearson_table(anchor, lo, hi, *_sigma_theta(eq, table.x[0]))


def _sigma_theta(eq: EquationData, xh):
    """sigma and Theta as lists of Python complex numbers, at the points of
    x values `xh` on consecutive half-integer offsets that start half a step
    below the first point: `_sigma_at` and `_theta_at` once per point.
    Scalar for a measured reason: on arrays, numpy's complex arithmetic moves
    53 Askey--Wilson and q-Hermite runs of `tools/compare_outputs.py` (pearson
    residuals by up to 4.5e-14) and turns three q-Hermite check_sweep draws
    (q = 0.120, 0.175, 0.215) from exit 1 into exit 2 at the Pearson
    recurrence's sigma = 0 guard."""
    xh = xh.tolist()
    pts = [(x, b - a) for a, x, b in zip(xh[:-2:2], xh[1::2], xh[2::2])]
    return [_sigma_at(eq, x, d) for x, d in pts], [_theta_at(eq, x, d) for x, d in pts]


def _pearson_table(anchor: complex, lo: int, hi: int, sigma, theta) -> tuple:
    """The Pearson ratio recurrence of `pearson_weight` on sigma and Theta
    given at anchor+lo .. anchor+hi."""
    sig = lambda k: sigma[k - lo]
    th = lambda k: theta[k - lo]
    scale = abs(sig(0)) + abs(th(0)) + 1e-300
    # legitimate support-boundary zeros enter through the numerators
    # (sigma(a) = 0 going down, Theta(b-1) = 0 going up); a vanishing divisor
    # leaves the weight undetermined and always raises
    up = [complex(1.0)]
    for k in range(hi):
        den = sig(k + 1)
        if abs(den) <= 1e-13 * scale:
            raise QKernelError(
                f"sigma({anchor + k + 1.0}) = 0 inside weight span: weight undetermined"
            )
        up.append(up[-1] * th(k) / den)
    down = []
    cur = complex(1.0)
    for k in range(-lo):
        den = th(-k - 1)
        if abs(den) <= 1e-13 * scale:
            raise QKernelError(
                f"Theta({anchor - k - 1.0}) = 0 inside weight span: weight undetermined"
            )
        cur = cur * sig(-k) / den
        down.append(cur)
    return tuple(reversed(down)) + tuple(up)


def rodrigues_values(eq: EquationData, anchor, count: int, n_hi: int, B):
    """The Rodrigues formula P_n(x(s)) = B_n / rho(s) * nabla^{(n)} rho_n(s),
    rho_n(s) = rho(s+n) prod_{k=1}^{n} sigma(s+k), for n = 0..n_hi at the
    points s = anchor + k, k < count; rho is the Pearson weight on
    anchor - n_hi - 1 .. anchor + count + n_hi + 1 with rho(anchor) = 1.
    B maps n to B_n (a family's table entry `coeffs.B`).

    An oracle, not a production evaluator: restricted to n <= 5 because each
    nested difference quotient costs roughly a digit in doubles.  One
    LatticeTable on the anchor gives x, and through it the sigma and Theta
    that both the Pearson recurrence and the rho_n products read (rho_n
    telescopes against the weight only when the two read identical values).
    The chains of every order and point are one backward fold.  Returns the
    (n_hi + 1, count) values and x at the points.
    """
    if n_hi > RODRIGUES_MAX_ORDER:
        raise QKernelError(
            f"Rodrigues evaluation is an oracle restricted to n <= {RODRIGUES_MAX_ORDER}"
        )
    anchor = complex(anchor)
    lo, hi = -n_hi - 1, count + n_hi + 1
    table = LatticeTable(eq.lattice, [anchor], 2 * lo - 1, 2 * hi + 1)
    sigma, theta = _sigma_theta(eq, table.x[0])
    rho = np.array(_pearson_table(anchor, lo, hi, sigma, theta))
    rho_s = rho[-lo:count - lo]
    if not rho_s.all():
        k = int(np.flatnonzero(rho_s == 0)[0])
        raise QKernelError(f"rho({anchor + k}) = 0: Rodrigues quotient undefined")
    # lanes (point anchor + k, order n = 1..n_hi), each on its chain
    # anchor + k - n_hi + i, i = 0..n_hi, read from i = n_hi - n on
    k = np.arange(count)[:, None, None]
    n = np.arange(1, n_hi + 1)[:, None]
    u = k - n_hi + np.arange(n_hi + 1) - lo
    sigma = np.array(sigma)
    with np.errstate(all="ignore"):
        rho_n = rho[u + n]
        for j in range(1, n_hi + 1):
            rho_n[:, j - 1:] *= sigma[u + j]
    chains = table.backward(rho_n[None], n[:, 0], k[:, :, 0])
    values = [np.full(count, B(0))] + [
        _cdiv(B(j), rho_s) * chains[j][0, :, j - 1, -1] for j in range(1, n_hi + 1)]
    return np.array(values), table.x[0, 2 * np.arange(count) - table.h_lo]
