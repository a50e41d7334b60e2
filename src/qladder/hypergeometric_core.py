"""General machinery of the hypergeometric-type difference equation

    sigma(s) Delta/Delta x(s-1/2) [nabla y / nabla x] + tau(s) Delta y/Delta x
        + lambda y = 0

on a nonuniform lattice: sigma/tau evaluation from Taylor data, the tau_k
coefficients, eigenvalues lambda_n and mu_k, the A_{n,k} products, Pearson
weight tables, Rodrigues evaluation (an oracle for n <= 5), generic
three-term-recurrence coefficients, discrete squared norms, and the
polynomial raising/lowering relations.

Conventions
-----------
* sigma(s) = sigma~(x(s)) - (1/2) tau~(x(s)) Delta x(s-1/2) and
  Theta(s) = sigma(s) + tau(s) Delta x(s-1/2) = sigma~ + (1/2) tau~ Delta x(s-1/2).
* lam_ratio(n) is the analytic function -{alpha_q(n-1) tau~' + [n-1]_q sigma~''/2},
  equal to lambda_n/[n]_q for n != 0 and to its limit at n = 0.
* Ratios sigma(s)/nabla x(s) and Theta(s)/Delta x(s) are evaluated through
  limit-aware helpers: when the denominator vanishes (a removable 0/0 at a
  lattice symmetry point, e.g. s = 0 on the quadratic dual-Hahn lattice with
  boundary a = 0) the exact analytic s-derivative ratio is used.

Scalar/array contract
---------------------
`sigma_eval`, `theta_eval`, `sigma_over_nabla` and `theta_over_delta` take
one point and return a Python complex; they serve the scalar routines here
(Pearson tables, the Rodrigues oracle, discrete norms, the polynomial
ladder relations) and the CLI's `eval` rows.  `sigma_tilde`, `tau_tilde`,
`TauK.at`, `lam_tau_ratio` and `rel_residual` take one point or an ndarray
(elementwise, through numpy).  `ladder.StencilGrid`, the one implementation
of the operator coefficients, builds its arrays from the formula helpers
that the scalar functions call: `_sigma_at` and `_theta_at` (sigma and
Theta from x and Delta x(s-1/2)) and `_limit_ratio` (sigma/nabla x and
Theta/Delta x, taking the removable 0/0 entries one by one through the
scalar limit).  Everything else here is scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .lattice import DegenerateStepError, GridFunction, Lattice, _cdiv, nfold_backward_chain
from .qkernel import QBase, QKernelError, alpha_q, q_factorial, q_number, require_finite

__all__ = [
    "EquationData",
    "TauK",
    "WeightTable",
    "sigma_tilde",
    "tau_tilde",
    "sigma_eval",
    "theta_eval",
    "tau_eval",
    "tau_k_coeffs",
    "tau_k_eval_direct",
    "lam_ratio",
    "lam_tau_ratio",
    "lambda_n",
    "mu_k",
    "a_nk",
    "leading_coeff",
    "b_over_a",
    "ttrr_coeffs_generic",
    "sigma_over_nabla",
    "theta_over_delta",
    "pearson_weight",
    "rho_n",
    "rodrigues_eval",
    "d_n_sq_discrete",
    "check_poly_raising",
    "check_poly_lowering",
    "rel_residual",
]

RODRIGUES_MAX_ORDER = 5  # nested quotients lose ~1 digit per level in doubles


def rel_residual(residual, terms, floor: float = 1e-12) -> float:
    """|residual| divided by the largest constituent magnitude.

    Falls back to the absolute residual when every term is below `floor`
    (tolerances are relative with an absolute floor).  With an ndarray
    residual the terms broadcast against it and the result is elementwise.
    """
    if isinstance(residual, np.ndarray):
        scale = reduce(np.maximum, (np.abs(t) for t in terms))
        res = np.abs(residual)
        return np.where(scale < floor, res, res / np.maximum(scale, floor))
    scale = max((abs(t) for t in terms), default=0.0)
    if scale < floor:
        return abs(residual)
    return abs(residual) / scale


@dataclass(frozen=True)
class EquationData:
    """Taylor data of one hypergeometric difference equation.

    sigma~(x) = (sigma_pp/2) x^2 + sigma_p0 x + sigma_00,
    tau~(x)   = tau_p x + tau_0,

    together with the lattice and the Rodrigues normalization rule B(n).
    """

    sigma_pp: complex
    sigma_p0: complex
    sigma_00: complex
    tau_p: complex
    tau_0: complex
    lattice: Lattice
    B: object = field(default=None)  # callable n -> complex; None means B(n) = 1

    def __post_init__(self):
        if complex(self.tau_p) == 0 and complex(self.sigma_pp) == 0:
            raise QKernelError(
                "invalid equation data: tau~' and sigma~'' cannot both vanish"
            )

    @property
    def base(self) -> QBase:
        return self.lattice.base

    def B_n(self, n: int) -> complex:
        return complex(1.0) if self.B is None else complex(self.B(n))


@dataclass(frozen=True)
class TauK:
    """Affine data of tau_k(s) = slope * x_k(s) + intercept."""

    k: float
    slope: complex
    intercept: complex

    def at(self, lattice: Lattice, s):
        """tau_k(s) on `lattice`, through the affine coefficients."""
        return self.slope * lattice.x_shifted(self.k, s) + self.intercept


def sigma_tilde(eq: EquationData, xv):
    return complex(eq.sigma_pp) / 2.0 * xv * xv + complex(eq.sigma_p0) * xv + complex(
        eq.sigma_00
    )


def tau_tilde(eq: EquationData, xv):
    return complex(eq.tau_p) * xv + complex(eq.tau_0)


def sigma_eval(eq: EquationData, s) -> complex:
    """sigma(s) at one point."""
    return _sigma_at(eq, eq.lattice.x(s), eq.lattice.delta_x_mid(s))


def theta_eval(eq: EquationData, s) -> complex:
    """Theta(s) at one point."""
    return _theta_at(eq, eq.lattice.x(s), eq.lattice.delta_x_mid(s))


def _sigma_at(eq: EquationData, xv, dxm):
    """sigma = sigma~(x) - (1/2) tau~(x) Delta x(s-1/2), from x = x(s) and
    dxm = Delta x(s-1/2)."""
    return sigma_tilde(eq, xv) - 0.5 * tau_tilde(eq, xv) * dxm


def _theta_at(eq: EquationData, xv, dxm):
    """Theta = sigma + tau Delta x(s-1/2) = sigma~(x) + (1/2) tau~(x) Delta x(s-1/2)."""
    return sigma_tilde(eq, xv) + 0.5 * tau_tilde(eq, xv) * dxm


def tau_eval(eq: EquationData, s) -> complex:
    return tau_tilde(eq, eq.lattice.x(s))


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


def tau_k_eval_direct(eq: EquationData, k: int, s) -> complex:
    """tau_k(s) = (sigma(s+k) - sigma(s) + tau(s+k) Delta x(s+k-1/2)) / Delta x_{k-1}(s).

    k = 0 reduces to tau(s).  Cross-route companion of the affine `TauK.at`.
    """
    if k == 0:
        return tau_eval(eq, s)
    if k < 0:
        raise QKernelError(f"direct tau_k needs k >= 0, got {k}")
    lat = eq.lattice
    s = complex(s)
    denom = lat.x_shifted(k - 1, s + 1.0) - lat.x_shifted(k - 1, s)
    if lat.is_degenerate_step(denom):
        raise DegenerateStepError(f"Delta x_{k-1}({s}) vanishes in direct tau_k")
    num = (
        sigma_eval(eq, s + k)
        - sigma_eval(eq, s)
        + tau_eval(eq, s + k) * lat.delta_x_mid(s + k)
    )
    return num / denom


def lam_ratio(eq: EquationData, n) -> complex:
    """-{alpha_q(n-1) tau~' + [n-1]_q sigma~''/2}: lambda_n/[n]_q continued to all real n."""
    base = eq.base
    return -(
        alpha_q(n - 1.0, base) * complex(eq.tau_p)
        + q_number(n - 1.0, base) * complex(eq.sigma_pp) / 2.0
    )


def lam_tau_ratio(eq: EquationData, n, s):
    """A(s,n) = lambda_n/[n]_q * tau_n(s)/tau_n', the n = 0 value by the
    continuation of lam_ratio."""
    tk = tau_k_coeffs(eq, float(n))
    return _cdiv(lam_ratio(eq, n) * tk.at(eq.lattice, s), tk.slope)


def lambda_n(eq: EquationData, n) -> complex:
    """lambda_n = -[n]_q {alpha_q(n-1) tau~' + [n-1]_q sigma~''/2}."""
    return q_number(float(n), eq.base) * lam_ratio(eq, n)


def mu_k(eq: EquationData, lam, k: int) -> complex:
    """mu_k = lambda + sum_{m=0}^{k-1} tau_m' (each summand is s-independent)."""
    if k < 0:
        raise QKernelError(f"mu_k needs k >= 0, got {k}")
    total = complex(lam)
    for m in range(k):
        total += tau_k_coeffs(eq, float(m)).slope
    return total


def a_nk(eq: EquationData, n: int, k: int) -> complex:
    """A_{n,k} = [n]_q!/[n-k]_q! prod_{m=0}^{k-1} {alpha_q(n+m-1) tau~' + [n+m-1]_q sigma~''/2}."""
    if not 0 <= k <= n:
        raise QKernelError(f"need 0 <= k <= n, got n={n} k={k}")
    base = eq.base
    out = complex(q_factorial(n, base) / q_factorial(n - k, base))
    for m in range(k):
        factor = -lam_ratio(eq, n + m)
        if abs(factor) == 0.0:
            raise QKernelError(
                f"admissibility failure: alpha_q({n+m-1}) tau~' + [{n+m-1}]_q sigma~''/2 = 0"
            )
        out *= factor
    return out


def leading_coeff(eq: EquationData, n: int) -> complex:
    """a_n = B_n prod_{k=0}^{n-1} {alpha_q(n+k-1) tau~' + [n+k-1]_q sigma~''/2}."""
    out = eq.B_n(n)
    for k in range(n):
        factor = -lam_ratio(eq, n + k)
        if abs(factor) == 0.0:
            raise QKernelError(f"admissibility failure in a_{n}: zero factor at k={k}")
        out *= factor
    return out


def b_over_a(eq: EquationData, n: int) -> complex:
    """b_n/a_n = [n]_q tau_{n-1}(0)/tau_{n-1}' + c3 ([n]_q - n)."""
    if n == 0:
        return complex(0.0)
    base = eq.base
    tk = tau_k_coeffs(eq, float(n - 1))
    if abs(tk.slope) == 0.0:
        raise QKernelError(f"tau_{n-1}' = 0: b_n/a_n undefined")
    qn = q_number(float(n), base)
    return qn * tk.intercept / tk.slope + complex(eq.lattice.c3) * (qn - n)


def ttrr_coeffs_generic(eq: EquationData, n: int, dn_ratio) -> tuple:
    """Generic three-term recurrence coefficients for x P_n = alpha_n P_{n+1}
    + beta_n P_n + gamma_n P_{n-1}:

        alpha_n = a_n/a_{n+1},
        beta_n  = b_n/a_n - b_{n+1}/a_{n+1},
        gamma_n = (a_{n-1}/a_n) * dn_ratio,

    with dn_ratio = d_n^2/d_{n-1}^2 supplied by the caller so the routine
    never silently depends on a support choice.  gamma_0 is returned as 0.
    """
    alpha = leading_coeff(eq, n) / leading_coeff(eq, n + 1)
    beta = b_over_a(eq, n) - b_over_a(eq, n + 1)
    if n == 0:
        gamma = complex(0.0)
    else:
        gamma = leading_coeff(eq, n - 1) / leading_coeff(eq, n) * complex(dn_ratio)
    return alpha, beta, gamma


def _sigma_deriv(eq: EquationData, s) -> complex:
    """d sigma / d s (analytic), for removable 0/0 limits."""
    lat = eq.lattice
    s = complex(s)
    xv = lat.x(s)
    dxm = lat.delta_x_mid(s)
    ddxm = lat.x_deriv(s + 0.5) - lat.x_deriv(s - 0.5)
    xd = lat.x_deriv(s)
    return (
        (complex(eq.sigma_pp) * xv + complex(eq.sigma_p0)) * xd
        - 0.5 * complex(eq.tau_p) * xd * dxm
        - 0.5 * tau_tilde(eq, xv) * ddxm
    )


def _theta_deriv(eq: EquationData, s) -> complex:
    lat = eq.lattice
    s = complex(s)
    xv = lat.x(s)
    dxm = lat.delta_x_mid(s)
    ddxm = lat.x_deriv(s + 0.5) - lat.x_deriv(s - 0.5)
    xd = lat.x_deriv(s)
    return (
        (complex(eq.sigma_pp) * xv + complex(eq.sigma_p0)) * xd
        + 0.5 * complex(eq.tau_p) * xd * dxm
        + 0.5 * tau_tilde(eq, xv) * ddxm
    )


def _limit_ratio(eq: EquationData, num, step, s, scalar_ratio):
    """num/step on arrays, with `scalar_ratio(eq, s)` (sigma_over_nabla or
    theta_over_delta, which take the exact limit) at the entries where the
    step is degenerate."""
    degenerate = eq.lattice.is_degenerate_step(step)
    out = _cdiv(num, np.where(degenerate, 1.0, step))
    for idx in zip(*np.nonzero(degenerate)):
        out[idx] = scalar_ratio(eq, complex(s[idx]))
    return out


def sigma_over_nabla(eq: EquationData, s) -> complex:
    """sigma(s)/nabla x(s), with the exact derivative ratio at removable 0/0."""
    lat = eq.lattice
    step = lat.nabla_x(s)
    if lat.is_degenerate_step(step):
        dstep = lat.x_deriv(s) - lat.x_deriv(complex(s) - 1.0)
        if lat.is_degenerate_step(dstep):
            raise DegenerateStepError(f"nabla x({s}) vanishes to second order")
        return _sigma_deriv(eq, s) / dstep
    return sigma_eval(eq, s) / step


def theta_over_delta(eq: EquationData, s) -> complex:
    """Theta(s)/Delta x(s), with the exact derivative ratio at removable 0/0."""
    lat = eq.lattice
    step = lat.delta_x(s)
    if lat.is_degenerate_step(step):
        dstep = lat.x_deriv(complex(s) + 1.0) - lat.x_deriv(s)
        if lat.is_degenerate_step(dstep):
            raise DegenerateStepError(f"Delta x({s}) vanishes to second order")
        return _theta_deriv(eq, s) / dstep
    return theta_eval(eq, s) / step


@dataclass(frozen=True)
class WeightTable:
    """Pearson weight values rho on an integer-offset grid around an anchor.

    rho(anchor) = 1 under the library convention; successive values satisfy
    rho(s+1)/rho(s) = Theta(s)/sigma(s+1).
    """

    eq: EquationData
    anchor: complex
    lo: int
    hi: int
    values: tuple

    def offset_of(self, s) -> int:
        d = complex(s) - complex(self.anchor)
        k = round(d.real)
        if abs(d - k) > 1e-9 or not (self.lo <= k <= self.hi):
            raise QKernelError(
                f"point {s} is not on the weight table grid "
                f"[anchor{self.lo:+d} .. anchor{self.hi:+d}]"
            )
        return k

    def rho(self, s) -> complex:
        return self.values[self.offset_of(s) - self.lo]


def pearson_weight(eq: EquationData, anchor, lo: int, hi: int) -> WeightTable:
    """Solve the Pearson equation Delta[sigma rho]/Delta x(s-1/2) = tau rho as
    a ratio recurrence on anchor+lo .. anchor+hi, normalized to
    rho(anchor) = 1.

    sigma may vanish only where the running weight is already zero (support
    boundaries); anywhere else a vanishing divisor raises.
    """
    if lo > 0 or hi < 0:
        raise QKernelError("weight table must contain its anchor (lo <= 0 <= hi)")
    anchor = complex(anchor)
    scale = abs(sigma_eval(eq, anchor)) + abs(theta_eval(eq, anchor)) + 1e-300
    # legitimate support-boundary zeros enter through the numerators
    # (sigma(a) = 0 going down, Theta(b-1) = 0 going up); a vanishing divisor
    # leaves the weight undetermined and always raises
    up = [complex(1.0)]
    for k in range(hi):
        s = anchor + k
        den = sigma_eval(eq, s + 1.0)
        if abs(den) <= 1e-13 * scale:
            raise QKernelError(
                f"sigma({s + 1.0}) = 0 inside weight span: weight undetermined"
            )
        up.append(up[-1] * theta_eval(eq, s) / den)
    down = []
    cur = complex(1.0)
    for k in range(-lo):
        s = anchor - k
        den = theta_eval(eq, s - 1.0)
        if abs(den) <= 1e-13 * scale:
            raise QKernelError(
                f"Theta({s - 1.0}) = 0 inside weight span: weight undetermined"
            )
        cur = cur * sigma_eval(eq, s) / den
        down.append(cur)
    values = tuple(reversed(down)) + tuple(up)
    return WeightTable(eq=eq, anchor=anchor, lo=lo, hi=hi, values=values)


def rho_n(eq: EquationData, weight: WeightTable, n: int, s) -> complex:
    """rho_n(s) = rho(s+n) prod_{k=1}^{n} sigma(s+k)."""
    if n < 0:
        raise QKernelError(f"rho_n needs n >= 0, got {n}")
    out = weight.rho(complex(s) + n)
    for k in range(1, n + 1):
        out *= sigma_eval(eq, complex(s) + k)
    return out


def rodrigues_eval(eq: EquationData, weight: WeightTable, n: int, s) -> complex:
    """P_n(x(s)) = B_n / rho(s) * nabla^{(n)} rho_n(s).

    An oracle, not a production evaluator: restricted to n <= 5 because each
    nested difference quotient costs roughly a digit in doubles.
    """
    if n < 0:
        raise QKernelError(f"Rodrigues order must be >= 0, got {n}")
    if n > RODRIGUES_MAX_ORDER:
        raise QKernelError(
            f"Rodrigues evaluation is an oracle restricted to n <= {RODRIGUES_MAX_ORDER}"
        )
    rho_s = weight.rho(s)
    if abs(rho_s) == 0.0:
        raise QKernelError(f"rho({s}) = 0: Rodrigues quotient undefined")
    if n == 0:
        return eq.B_n(0)
    f = GridFunction(eq.lattice, lambda u: rho_n(eq, weight, n, u))
    return eq.B_n(n) / rho_s * nfold_backward_chain(f, n, s)


def d_n_sq_discrete(eq: EquationData, weight: WeightTable, n: int, a, b) -> complex:
    """d_n^2 = (-1)^n A_{n,n} B_n^2 sum_{s=a}^{b-n-1} rho_n(s) Delta x_n(s-1/2),

    on the finite grid s = a, a+1, ..., b-1 with the boundary conditions
    sigma(a) = 0 and sigma(b) rho(b) = 0 (violations raise, never silently
    proceed).
    """
    a = complex(a)
    b = complex(b)
    length = (b - a).real
    if abs(b - a - round(length)) > 1e-9 or round(length) < 1:
        raise QKernelError("discrete support must have integer length b-a >= 1")
    length = round(length)
    scale = max(abs(sigma_eval(eq, a + j)) for j in range(length + 1)) + 1e-300
    if abs(sigma_eval(eq, a)) > 1e-10 * scale:
        raise QKernelError(f"boundary condition sigma(a)=0 violated at a={a}")
    if abs(sigma_eval(eq, b) * weight.rho(b)) > 1e-10 * scale:
        raise QKernelError(f"boundary condition sigma(b) rho(b)=0 violated at b={b}")
    lat = eq.lattice
    total = complex(0.0)
    for j in range(length - n):
        s = a + j
        total += rho_n(eq, weight, n, s) * (
            lat.x_shifted(n, s + 0.5) - lat.x_shifted(n, s - 0.5)
        )
    sign = -1.0 if n % 2 else 1.0
    return require_finite(
        sign * a_nk(eq, n, n) * eq.B_n(n) ** 2 * total, "discrete d_n^2"
    )


def check_poly_raising(eq: EquationData, pn, n: int, s, alpha_n) -> float:
    """Relative residual of the raising relation

        sigma(s) nabla P_n / nabla x(s)
            = lambda_n/[n]_q * tau_n(s)/tau_n' * P_n - alpha_n lambda_{2n}/[2n]_q P_{n+1}

    where `pn(k, s)` evaluates P_k at lattice coordinate s in the same
    normalization as alpha_n.  Requires n >= 1.
    """
    if n < 1:
        raise QKernelError("raising relation needs n >= 1")
    s = complex(s)
    lhs = sigma_over_nabla(eq, s) * (pn(n, s) - pn(n, s - 1.0))
    t1 = lam_tau_ratio(eq, n, s) * pn(n, s)
    t2 = complex(alpha_n) * lam_ratio(eq, 2.0 * n) * pn(n + 1, s)
    return rel_residual(lhs - (t1 - t2), (lhs, t1, t2))


def check_poly_lowering(eq: EquationData, pn, n: int, s, beta_n, gamma_n) -> float:
    """Relative residual of the lowering relation

        [sigma(s) + tau(s) Delta x(s-1/2)] Delta P_n / Delta x(s)
            = gamma_n lambda_{2n}/[2n]_q P_{n-1}
              + [lambda_n/[n]_q tau_n/tau_n' - lambda_n Delta x(s-1/2)
                 - lambda_{2n}/[2n]_q (x - beta_n)] P_n.

    `pn(k, s)` must use the same normalization as gamma_n; P_{-1} = 0.
    """
    if n < 0:
        raise QKernelError("lowering relation needs n >= 0")
    lat = eq.lattice
    s = complex(s)
    lhs = theta_over_delta(eq, s) * (pn(n, s + 1.0) - pn(n, s))
    low = complex(gamma_n) * lam_ratio(eq, 2.0 * n) * (pn(n - 1, s) if n >= 1 else 0.0)
    mid = (
        lam_tau_ratio(eq, n, s)
        - lambda_n(eq, n) * lat.delta_x_mid(s)
        - lam_ratio(eq, 2.0 * n) * (lat.x(s) - complex(beta_n))
    ) * pn(n, s)
    return rel_residual(lhs - (low + mid), (lhs, low, mid))
