"""Point-by-point definitions, one point at a time through the scalar
Lattice.x: the module-level twins of the `EquationTable` entries (each on
a table of its own), the three-point operators as objects (on points, or on the
chain offsets of StencilGrid arrays) with the scaled stencil application
the factorization residual is built from, sigma, Theta and tau at a
point, the per-n products mu_k,
A_{n,k} and the leading coefficient a_n with the generic recurrence
coefficients built on them, P_n by the recurrence in Python complex
arithmetic and phi_n at one point, monic P_n, the unit steps Delta x and
nabla x at one point, the two-branch limit-aware ratios sigma/nabla x and
Theta/Delta x, the polynomial raising and lowering
relations, the ladder coefficients and operators, the difference
quotients, k-fold forward differences and n-fold backward chains, the
Pearson recurrence, rho_n, the Rodrigues formula, the direct tau_k quotient,
the discrete squared norms, the Askey--Wilson quadrature on a fixed
number of panels and its h-product, the infinite
product (a;q)_inf of one number, and the terminating basic hypergeometric
series with each family's series P_n, and a check report as the dict
whose `json.dumps` is the v1 JSON (`report_to_dict`), the reference of
`report.dumps_reports`.
The library has no point-by-point evaluator: it evaluates sigma, Theta and
the ladder coefficients on `ladder.StencilGrid` arrays, x on
`lattice.LatticeTable`s, whose folds give the difference calculus, P_n, rho
and phi_n on arrays of points, and the series on an (n, point) grid.  The tests keep these as the reference the library is compared
against."""

import cmath
import math
from dataclasses import dataclass

from qladder.hypergeometric_core import (
    RODRIGUES_MAX_ORDER,
    EquationData,
    _sigma_at,
    _sigma_theta_deriv,
    _theta_at,
    EquationTable,
    lam_ratio,
    rel_residual,
    tau_k_coeffs,
    tau_tilde,
)
from functools import reduce

import numpy as np

from qladder.ladder import StencilGrid, _by_offset
from qladder.lattice import DegenerateStepError, Lattice
from qladder.orthogonality import _aw_values, _panel_sum
from qladder.qkernel import (
    _INF_TOL,
    _MAX_INF_FACTORS,
    _NOT_TRUNCATED,
    NonConvergedError,
    QKernelError,
    _cdiv,
    q_factorial,
    q_pochhammer,
    q_pochhammer_multi,
    require_finite,
)
from qladder.report import SCHEMA_ID


@dataclass(frozen=True)
class ThreePointOperator:
    """c_minus(s) E^- + c_zero(s) I + c_plus(s) E^+ with callable coefficients.

    s is one point, or the chain offsets of a StencilGrid's arrays (see
    `grid_hamiltonian`), whose values are arrays.  A coefficient that is zero
    everywhere is skipped, so f is not evaluated where it would only be
    multiplied by zero.
    """

    c_minus: object
    c_zero: object
    c_plus: object

    def apply(self, f, s):
        out = self.c_zero(s) * f(s)
        cm = self.c_minus(s)
        if np.any(cm != 0.0):
            out = out + cm * f(s - 1.0)
        cp = self.c_plus(s)
        if np.any(cp != 0.0):
            out = out + cp * f(s + 1.0)
        return out

    def applied(self, f):
        """The function s -> (Op f)(s), for nesting operators."""
        return lambda s: self.apply(f, s)


def _absent(s):
    """The coefficient of a shift an operator does not have."""
    return 0.0


def _largest(values):
    """Elementwise maximum of nonnegative numbers or arrays (0 for none)."""
    return reduce(np.maximum, values, 0.0)


def modulus(z):
    """|z| through numpy's complex abs, the modulus the library's stencil
    arrays take; on a nonreal z it can round the last bit differently from
    Python's abs, which would hide the comparison of the stencil arithmetic
    itself behind the choice of modulus."""
    return np.abs(z)


def apply_scaled(op: ThreePointOperator, f, s, inner=None):
    """(Op f)(s) together with the magnitude of the largest product formed,
    i.e. the scale at which rounding noise enters the cancellation.  With
    `inner = (InnerOp, g)`, f must be InnerOp.applied(g) and the inner
    stencil scales are propagated through the outer coefficients."""
    pieces = []
    for shift, coef in ((-1.0, op.c_minus), (0.0, op.c_zero), (1.0, op.c_plus)):
        cv = coef(s)
        if not np.any(cv != 0.0):
            continue
        pieces.append((cv, f(s + shift), shift))
    val = sum(cv * fv for cv, fv, _ in pieces)
    scale = _largest(modulus(cv * fv) for cv, fv, _ in pieces)
    if inner is not None:
        iop, g = inner
        for cv, _, shift in pieces:
            isc = _largest(
                modulus(ic(s + shift) * g(s + shift + ish))
                for ish, ic in ((-1.0, iop.c_minus), (0.0, iop.c_zero), (1.0, iop.c_plus))
            )
            scale = _largest((scale, modulus(cv) * isc))
    return val, scale


def grid_hamiltonian(g, n: int) -> ThreePointOperator:
    """H(s,n) on the chain offsets of a StencilGrid's arrays."""
    return ThreePointOperator(g.plus_side(g.e), _by_offset(g.h_diag(n)[:, None], 0),
                              g.minus_side(g.e))


def grid_raising(g, n: int) -> ThreePointOperator:
    """L+(s,n) on the chain offsets of a StencilGrid's arrays."""
    return ThreePointOperator(g.plus_side(g.e), g.plus_side(g.u(n)), _absent)


def grid_lowering(g, n: int) -> ThreePointOperator:
    """L-(s,n) on the chain offsets of a StencilGrid's arrays."""
    return ThreePointOperator(_absent, g.minus_side(g.v(n)), g.minus_side(g.e))


def lam_tau_ratio(eq: EquationData, n, s):
    """A(s,n) = lambda_n/[n]_q * tau_n(s)/tau_n', the n = 0 value by the
    continuation of lam_ratio, with tau_n(s) from its affine coefficients."""
    tk = tau_k_coeffs(eq, float(n))
    tau_n = tk.slope * eq.lattice.x_shifted(tk.k, s) + tk.intercept
    return _cdiv(lam_ratio(eq, n) * tau_n, tk.slope)


def lambda_n(eq: EquationData, n) -> complex:
    """lambda_n = -[n]_q {alpha_q(n-1) tau~' + [n-1]_q sigma~''/2}."""
    return EquationTable(eq).lambda_n(n)


def b_over_a(eq: EquationData, n: int) -> complex:
    """b_n/a_n = [n]_q tau_{n-1}(0)/tau_{n-1}' + c3 ([n]_q - n)."""
    return EquationTable(eq).b_over_a(n)


def beta_generic(eq: EquationData, n: int) -> complex:
    """beta_n = b_n/a_n - b_{n+1}/a_{n+1}, the same in every normalization."""
    return EquationTable(eq).beta_generic(n)


def apply_reduced(fam, which: str, n: int, s, op_n: int | None = None):
    """(Op phi_n)(s) with the square roots reduced through the Pearson
    relation, from the library's reduced stencils (`StencilGrid.apply` with
    `reduced=True`) on the StencilGrid at s, one point or an ndarray
    of support nodes.  `op_n` is the operator's eigen-parameter (defaults to
    the function index n); only H distinguishes the two."""
    nodes = np.atleast_1d(s)
    g = StencilGrid.shared(fam, nodes)
    reduced, _ = g.apply(which, n if op_n is None or which != "H" else op_n, g.p(n), reduced=True)
    out = _cdiv(fam.sqrt_rho(nodes) * reduced, fam.d_n(n))
    return out if isinstance(s, np.ndarray) else complex(out[0])


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


def leading_coeff(eq: EquationData, n: int, B) -> complex:
    """a_n = B_n prod_{k=0}^{n-1} {alpha_q(n+k-1) tau~' + [n+k-1]_q sigma~''/2},
    with B mapping n to B_n (a family's `coeffs.B`)."""
    out = complex(B(n))
    for k in range(n):
        factor = -lam_ratio(eq, n + k)
        if abs(factor) == 0.0:
            raise QKernelError(f"admissibility failure in a_{n}: zero factor at k={k}")
        out *= factor
    return out


def ttrr_coeffs_generic(eq: EquationData, n: int, dn_ratio, B) -> tuple:
    """Generic three-term recurrence coefficients for x P_n = alpha_n P_{n+1}
    + beta_n P_n + gamma_n P_{n-1}:

        alpha_n = a_n/a_{n+1},
        beta_n  = b_n/a_n - b_{n+1}/a_{n+1},
        gamma_n = (a_{n-1}/a_n) * dn_ratio,

    with dn_ratio = d_n^2/d_{n-1}^2 supplied by the caller so the routine
    never silently depends on a support choice, and a_n from the
    normalization B (`leading_coeff`).  gamma_0 is returned as 0.
    """
    alpha = leading_coeff(eq, n, B) / leading_coeff(eq, n + 1, B)
    beta = beta_generic(eq, n)
    if n == 0:
        gamma = complex(0.0)
    else:
        gamma = leading_coeff(eq, n - 1, B) / leading_coeff(eq, n, B) * complex(dn_ratio)
    return alpha, beta, gamma


def pn(fam, n: int, s) -> complex:
    """Canonical P_n at one point s by the three-term recurrence (`pn_x`)."""
    return pn_x(fam, n, fam.lattice.x(s))


def pn_x(fam, n: int, x) -> complex:
    """Canonical P_n at one value x by the three-term recurrence, in Python
    complex arithmetic from the family's table (the library's recurrence,
    `FamilySpec.pn_stack`, runs on arrays); 0 for n < 0."""
    if n < 0:
        return complex(0.0)
    x, t = complex(x), fam.coeffs
    pm, p = complex(0.0), complex(1.0)  # monic P_{k-1}, P_k
    for k in range(n):
        pm, p = p, (x - t.beta(k)) * p - t.gamma_monic(k) * pm
    return p * t.a_n(n)


def rho_at(fam, s) -> complex:
    """The family's pointwise rho at one point s, as a one-element array."""
    return complex(fam.rho_at_s(np.array([complex(s)]))[0])


def phi_ok(fam, s) -> bool:
    """Whether rho(s) is a positive real, so phi_n(s) = sqrt(rho) P_n / d_n
    is the pointwise phi; False where rho raises."""
    try:
        with np.errstate(all="ignore"):
            rho = rho_at(fam, s)
    except (ValueError, ArithmeticError):
        return False
    return abs(rho.imag) <= 1e-12 * abs(rho) and rho.real > 0.0


def phi(fam, n: int, s) -> complex:
    """phi_n = sqrt(rho) P_n / d_n at one support point, in Python complex arithmetic."""
    return cmath.sqrt(rho_at(fam, s)) * pn(fam, n, s) / fam.d_n(n)


def pn_monic(fam, n: int, s) -> complex:
    """Monic-normalization value P_n / a_n."""
    return pn(fam, n, s) / fam.coeffs.a_n(n)


def q_pochhammer_inf(a, base) -> complex:
    """(a;q)_inf of one number, one factor at a time in Python complex
    arithmetic: the scalar loop the library's `qkernel.q_pochhammer_inf` runs
    over arrays.  It stops at its first |a q^k| < _INF_TOL, or at a zero
    product, and gives up after _MAX_INF_FACTORS factors."""
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


def basic_hypergeometric(n: int, upper, lower, z, base) -> complex:
    """The terminating series _r phi_s(q^{-n}, a_1..a_{r-1}; b_1..b_s; q, z) of
    one n, one term at a time in Python complex arithmetic: the scalar loop
    the library's `qkernel.basic_hypergeometric` runs over arrays.

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


def pn_series(fam, n: int, s) -> complex:
    """Canonical P_n at one point s by the family's basic-hypergeometric
    series, in Python complex arithmetic through `basic_hypergeometric`
    above: the per-family series whose prefactor and parameters the
    library's `series_fn` gives on an n column and an s row, and whose one
    `basic_hypergeometric` pass `FamilySpec.pn_series` makes."""
    p, base, lat = fam.params, fam.base, fam.lattice
    q = base.q
    if fam.name == "asc1":
        a, x = p["a"], lat.x(s)
        pre = (-a) ** n * q ** (n * (n - 1) / 2.0)
        return pre * basic_hypergeometric(n, (1.0 / x,), (0.0,), q * x / a, base)
    if fam.name == "asc2":
        a, x = p["a"], lat.x(s)
        pre = (-a) ** n * q ** (-n * (n - 1) / 2.0)
        return pre * basic_hypergeometric(n, (x,), (), base.pow(float(n)) / a, base)
    if fam.name == "big_q_jacobi":
        a, b, c = p["a"], p["b"], p["c"]
        pre = (q_pochhammer(a * q, base, n) * q_pochhammer(c * q, base, n)
               / q_pochhammer(a * b * q ** (n + 1), base, n))
        return pre * basic_hypergeometric(n, (a * b * q ** (n + 1), lat.x(s)),
                                          (a * q, c * q), q, base)
    if fam.name == "q_dual_hahn":
        a, b, c, s = p["a"], p["b"], p["c"], complex(s)
        pre = (-1.0) ** n * (
            q_pochhammer(q ** (a - b + 1), base, n) * q_pochhammer(q ** (a + c + 1), base, n)
        ) / (q ** (n / 2.0 * (3 * a - b + c + 1 + n)) * base.k_q**n * q_pochhammer(q, base, n))
        upper = (cmath.exp((a - s) * math.log(q)), cmath.exp((a + s + 1.0) * math.log(q)))
        return pre * basic_hypergeometric(n, upper, (q ** (a - b + 1), q ** (a + c + 1)), q, base)
    qs = lat.qs(s)
    if fam.name == "askey_wilson":
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        pre = q_pochhammer_multi((a * b, a * c, a * d), base, n) / a**n
        upper = (a * b * c * d * q ** (n - 1), a / qs, a * qs)
        return pre * basic_hypergeometric(n, upper, (a * b, a * c, a * d), q, base)
    # continuous q-Hermite: e^{i n theta} 2phi0(q^{-n}, 0; -; q, q^n e^{-2 i theta})
    return qs**n * basic_hypergeometric(n, (0.0,), (), base.pow(float(n)) / qs**2, base)


def delta_x(lat: Lattice, s) -> complex:
    """Delta x(s) = x(s+1) - x(s) at one point."""
    return lat.x_values(s + 1.0) - lat.x_values(s)


def nabla_x(lat: Lattice, s) -> complex:
    """nabla x(s) = x(s) - x(s-1) at one point."""
    return lat.x_values(s) - lat.x_values(s - 1.0)


def sigma_eval(eq: EquationData, s) -> complex:
    """sigma(s) at one point."""
    return _sigma_at(eq, eq.lattice.x(s), eq.lattice.delta_x_mid(s))


def theta_eval(eq: EquationData, s) -> complex:
    """Theta(s) at one point."""
    return _theta_at(eq, eq.lattice.x(s), eq.lattice.delta_x_mid(s))


def tau_eval(eq: EquationData, s) -> complex:
    """tau(s) = tau~(x(s)) at one point."""
    return tau_tilde(eq, eq.lattice.x(s))


def sigma_over_nabla(eq: EquationData, s) -> complex:
    """sigma(s)/nabla x(s), with the exact derivative ratio at removable 0/0."""
    lat = eq.lattice
    step = nabla_x(lat, s)
    if lat.is_degenerate_step(step):
        dstep = lat.x_deriv(s) - lat.x_deriv(complex(s) - 1.0)
        if lat.is_degenerate_step(dstep):
            raise DegenerateStepError(f"nabla x({s}) vanishes to second order")
        return _sigma_theta_deriv(eq, s, -1) / dstep
    return sigma_eval(eq, s) / step


def theta_over_delta(eq: EquationData, s) -> complex:
    """Theta(s)/Delta x(s), with the exact derivative ratio at removable 0/0."""
    lat = eq.lattice
    step = delta_x(lat, s)
    if lat.is_degenerate_step(step):
        dstep = lat.x_deriv(complex(s) + 1.0) - lat.x_deriv(s)
        if lat.is_degenerate_step(dstep):
            raise DegenerateStepError(f"Delta x({s}) vanishes to second order")
        return _sigma_theta_deriv(eq, s, 1) / dstep
    return theta_eval(eq, s) / step


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


def sqrt_ts_minus(fam, s) -> complex:
    """Principal sqrt of Theta(s-1) sigma(s)."""
    return cmath.sqrt(theta_eval(fam.eq, complex(s) - 1.0) * sigma_eval(fam.eq, s))


def sqrt_ts_plus(fam, s) -> complex:
    """Principal sqrt of Theta(s) sigma(s+1)."""
    return cmath.sqrt(theta_eval(fam.eq, s) * sigma_eval(fam.eq, complex(s) + 1.0))


def e_minus(fam, s) -> complex:
    """The E^- coefficient of H and L+: sqrt(Theta(s-1) sigma(s))/nabla x(s)."""
    return sqrt_ts_minus(fam, s) / nabla_x(fam.eq.lattice, s)


def e_plus(fam, s) -> complex:
    """The E^+ coefficient of H and L-: sqrt(Theta(s) sigma(s+1))/Delta x(s)."""
    return sqrt_ts_plus(fam, s) / delta_x(fam.eq.lattice, s)


def u_fn(fam, n: int, s):
    """u(s,n) = lambda_n/[n]_q * tau_n(s)/tau_n' - sigma(s)/nabla x(s)."""
    eq = fam.eq
    return lam_tau_ratio(eq, n, s) - sigma_over_nabla(eq, s)


def v_fn(fam, n: int, s):
    """v(s,n) = -lambda_n/[n]_q tau_n(s)/tau_n' + lambda_n Delta x(s-1/2)
    + lambda_{2n}/[2n]_q (x(s) - beta_n) - Theta(s)/Delta x(s)."""
    eq = fam.eq
    lat = eq.lattice
    return (
        -lam_tau_ratio(eq, n, s)
        + lambda_n(eq, n) * lat.delta_x_mid(s)
        + lam_ratio(eq, 2.0 * n) * (lat.x_values(s) - fam.coeffs.beta(n))
        - theta_over_delta(eq, s)
    )


def h_diag_at(lam, son, tod, dxm):
    """The I coefficient of H from lambda_n, sigma/nabla x, Theta/Delta x and
    Delta x(s-1/2)."""
    return -(tod + son - lam * dxm)


def reduced_h_at(son, tod, diag, p_minus, p_zero, p_plus):
    """H(s,n) on P with the square roots reduced: sigma/nabla x P(s-1) +
    (the I coefficient of H) P(s) + Theta/Delta x P(s+1)."""
    return son * p_minus + diag * p_zero + tod * p_plus


def hamiltonian(fam, n: int) -> ThreePointOperator:
    """H(s,n) = E^- coefficient E^- + E^+ coefficient E^+ + (H diagonal) I."""
    eq = fam.eq
    lam = lambda_n(eq, n)
    return ThreePointOperator(
        c_minus=lambda s: e_minus(fam, s),
        c_zero=lambda s: h_diag_at(lam, sigma_over_nabla(eq, s), theta_over_delta(eq, s),
                                   eq.lattice.delta_x_mid(s)),
        c_plus=lambda s: e_plus(fam, s),
    )


def raising_op(fam, n: int) -> ThreePointOperator:
    """L+(s,n) = u(s,n) I + sqrt(Theta(s-1) sigma(s))/nabla x(s) E^-."""
    return ThreePointOperator(lambda s: e_minus(fam, s), lambda s: u_fn(fam, n, s), _absent)


def lowering_op(fam, n: int) -> ThreePointOperator:
    """L-(s,n) = v(s,n) I + sqrt(Theta(s) sigma(s+1))/Delta x(s) E^+."""
    return ThreePointOperator(_absent, lambda s: v_fn(fam, n, s), lambda s: e_plus(fam, s))


def weight_chain(fam, s0, lo: int, hi: int) -> dict:
    """w(s0+k) for k in lo..hi with w(s0) = 1, by the Pearson-consistent
    chain recurrence of the ladder module."""
    s0 = complex(s0)
    w = {0: complex(1.0)}
    for k in range(hi):
        s = s0 + k
        root = sqrt_ts_plus(fam, s)
        if root == 0.0:
            raise QKernelError(f"weight chain hit Theta(s) sigma(s+1) = 0 at s = {s}")
        w[k + 1] = theta_eval(fam.eq, s) * w[k] / root
    for k in range(0, lo, -1):
        s = s0 + k
        root = sqrt_ts_minus(fam, s)
        if root == 0.0:
            raise QKernelError(f"weight chain hit Theta(s-1) sigma(s) = 0 at s = {s}")
        w[k - 1] = sigma_eval(fam.eq, s) * w[k] / root
    return w


class PhiChain:
    """phi-like functions w(s) P_n(s) along one integer chain s0 + lo .. s0 + hi."""

    def __init__(self, fam, s0, lo: int, hi: int):
        self.fam, self.s0, self.lo, self.hi = fam, complex(s0), lo, hi
        self.w = weight_chain(fam, self.s0, lo, hi)

    def fn(self, n: int):
        def f(s):
            d = complex(s) - self.s0
            k = round(d.real)
            if abs(d - k) > 1e-8 or not self.lo <= k <= self.hi:
                raise QKernelError(f"point {s} is not on the chain")
            return self.w[k] * pn(self.fam, n, s)

        return f


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
    step = _checked_step(lat, delta_x(lat, s), f"Delta x({s})")
    return (f(complex(s) + 1.0) - f(s)) / step


def backward_diff(f: GridFunction, s) -> complex:
    """(f(s) - f(s-1)) / (x(s) - x(s-1))."""
    lat = f.lattice
    step = _checked_step(lat, nabla_x(lat, s), f"nabla x({s})")
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


def pearson_weight(eq: EquationData, anchor, lo: int, hi: int) -> tuple:
    """The Pearson weight of `hypergeometric_core.pearson_weight`, point by
    point through sigma_eval and theta_eval: the Pearson equation
    Delta[sigma rho]/Delta x(s-1/2) = tau rho as a ratio recurrence on
    anchor+lo .. anchor+hi, normalized to rho(anchor) = 1; the tuple of
    rho(anchor + k) at index k - lo.

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
    return tuple(reversed(down)) + tuple(up)


def weight_fn(values, anchor, lo: int):
    """rho as a function on the points anchor + k of a Pearson weight
    sequence (`values[k - lo]`); a point off that chain raises."""
    anchor = complex(anchor)

    def rho(s):
        d = complex(s) - anchor
        k = round(d.real)
        if abs(d - k) > 1e-9 or not 0 <= k - lo < len(values):
            raise QKernelError(f"point {s} is not on the weight's chain")
        return values[k - lo]

    return rho


def rho_n(eq: EquationData, rho, n: int, s) -> complex:
    """rho_n(s) = rho(s+n) prod_{k=1}^{n} sigma(s+k), rho a function of s
    (`weight_fn`)."""
    if n < 0:
        raise QKernelError(f"rho_n needs n >= 0, got {n}")
    out = rho(complex(s) + n)
    for k in range(1, n + 1):
        out *= sigma_eval(eq, complex(s) + k)
    return out


def rodrigues_eval(eq: EquationData, rho, n: int, s, B) -> complex:
    """P_n(x(s)) = B_n / rho(s) * nabla^{(n)} rho_n(s), rho a function of s
    (`weight_fn`) and B mapping n to B_n (a family's `coeffs.B`).

    An oracle, not a production evaluator: restricted to n <= 5 because each
    nested difference quotient costs roughly a digit in doubles.
    """
    if n < 0:
        raise QKernelError(f"Rodrigues order must be >= 0, got {n}")
    if n > RODRIGUES_MAX_ORDER:
        raise QKernelError(
            f"Rodrigues evaluation is an oracle restricted to n <= {RODRIGUES_MAX_ORDER}"
        )
    rho_s = rho(s)
    if abs(rho_s) == 0.0:
        raise QKernelError(f"rho({s}) = 0: Rodrigues quotient undefined")
    if n == 0:
        return complex(B(0))
    f = GridFunction(eq.lattice, lambda u: rho_n(eq, rho, n, u))
    return complex(B(n)) / rho_s * nfold_backward_chain(f, n, s)


def d_n_sq_discrete(eq: EquationData, rho, n: int, a, b, B) -> complex:
    """d_n^2 = (-1)^n A_{n,n} B_n^2 sum_{s=a}^{b-n-1} rho_n(s) Delta x_n(s-1/2),

    on the finite grid s = a, a+1, ..., b-1 with the boundary conditions
    sigma(a) = 0 and sigma(b) rho(b) = 0 (violations raise, never silently
    proceed); rho is a function of s (`weight_fn`) and B maps n to B_n.
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
    if abs(sigma_eval(eq, b) * rho(b)) > 1e-10 * scale:
        raise QKernelError(f"boundary condition sigma(b) rho(b)=0 violated at b={b}")
    lat = eq.lattice
    total = complex(0.0)
    for j in range(length - n):
        s = a + j
        total += rho_n(eq, rho, n, s) * (
            lat.x_shifted(n, s + 0.5) - lat.x_shifted(n, s - 0.5)
        )
    sign = -1.0 if n % 2 else 1.0
    return require_finite(
        sign * a_nk(eq, n, n) * complex(B(n)) ** 2 * total, "discrete d_n^2"
    )


def continuous_inner_aw(f, weight_density, nodes: int = 2000):
    """Quadrature of f over x in (-1, 1) against the density:

        int f(x) weight_density(x) / sqrt(1-x^2) dx

    computed as the trapezoidal rule in theta (x = cos theta) on `nodes`
    panels, theta_j = j pi / nodes for j = 0..nodes, where the integrand is
    smooth and periodic: one level of the rule whose levels the library's
    `orthogonality.continuous_inner_aw_converged` nests.  f and
    `weight_density` are called once, on the array of all nodes, and return
    arrays whose last axis runs over the nodes (or scalars); the result is
    the ndarray of the remaining shape (0-d for scalars).  `weight_density`
    must already include any 1/(2 pi) normalization.
    """
    if nodes < 1:
        raise QKernelError("quadrature needs at least 1 panel")
    v = _aw_values(f, weight_density, np.arange(nodes + 1) * (math.pi / nodes))
    return np.asarray(_panel_sum(v) * (math.pi / nodes))


def h_pair(x, alpha, q):
    """h(x, alpha) = prod_k (1 - 2 alpha x q^k + alpha^2 q^{2k}), the
    Askey--Wilson h-product, taken while |alpha q^k| > 1e-17 with alpha q^k
    formed by repeated multiplication; x is a point or an array."""
    out = complex(1.0)
    aq = complex(alpha)
    while abs(aq) > 1e-17:
        out *= 1.0 - 2.0 * aq * x + aq * aq
        aq *= q
    return out


def h_mp(fam, n: int) -> complex:
    """h-+(n) = lambda_{2n}/[2n]_q lambda_{2n+2}/[2n+2]_q alpha_n gamma_{n+1},
    from the scalar lam_ratio."""
    t = fam.coeffs
    lr = lambda m: lam_ratio(fam.eq, m)
    return lr(2.0 * n) * lr(2.0 * n + 2.0) * t.alpha(n) * t.gamma(n + 1)


def run_suite_cases(fam, suite: str, ns):
    """`suite_cases` with the sweep `checks.run_suite` hands the suite for
    the n range ns on the default grid."""
    from qladder.checks import default_grid

    grid, top = default_grid(fam), max(ns)
    if suite == "uv_shift":
        ns = range(0, top + 2)
    elif suite == "h_remark":
        ns = range(1, top + 2)
    elif suite == "poly_ladder":
        ns = range(1, top + 2)
    elif suite == "bootstrap":
        ns = range(min(top, 4) + 1)
        grid = [complex(grid[0]) + k for k in range(len(grid))]
    return suite_cases(fam, suite, list(ns), grid)


def suite_cases(fam, suite: str, ns, grid):
    """(n, label, residual, note) of one ladder suite, evaluated point by
    point through the reference operators, apply_scaled, PhiChain, the
    scalar recurrence and the scalar weight, in the suite's case order.
    poly_ladder checks n = 1..max(ns) (and n = 0 at two points); bootstrap
    climbs to N = max(ns) on the chain through the grid."""
    eq, lat = fam.eq, fam.lattice
    out = []
    if suite in ("eigen", "raising", "lowering"):
        for s in map(complex, grid):
            chain = PhiChain(fam, s, -1, 1)
            for n in ns:
                f = chain.fn(n)
                if suite == "eigen":
                    H = hamiltonian(fam, n)
                    terms = (H.c_minus(s) * f(s - 1.0), H.c_zero(s) * f(s),
                             H.c_plus(s) * f(s + 1.0))
                    out.append((n, f"{s:.6g}", rel_residual(sum(terms), terms), ""))
                    continue
                if suite == "raising":
                    op = raising_op(fam, n)
                    target = fam.coeffs.alpha(n) * lam_ratio(eq, 2.0 * n) * chain.fn(n + 1)(s)
                else:
                    op = lowering_op(fam, n)
                    target = (fam.coeffs.gamma(n) * lam_ratio(eq, 2.0 * n) * chain.fn(n - 1)(s)
                              if n >= 1 else 0j)
                got = op.apply(f, s)
                terms = (got, target, op.c_zero(s) * f(s))
                out.append((n, f"{s:.6g}", rel_residual(got - target, terms), ""))
    elif suite == "uv_shift":
        for n in ns:
            for s in map(complex, grid):
                uu, vv = u_fn(fam, n, s + 1.0), v_fn(fam, n + 1, s)
                out.append((n, f"{s:.6g}", rel_residual(uu - vv, (uu, vv)), ""))
    elif suite == "h_s_independence":
        for n in ns:
            A = lambda t: lam_tau_ratio(eq, n, t)
            lam, hm = lambda_n(eq, n), h_mp(fam, n)
            for s in map(complex, grid):
                p1 = (A(s + 1.0) - sigma_over_nabla(eq, s + 1.0)) * (A(s) - lam * lat.delta_x_mid(s))
                p2 = A(s + 1.0) * theta_over_delta(eq, s)
                out.append((n, f"{s:.6g}", rel_residual(p1 + p2 - hm, (p1, p2, hm)), "minusplus"))
            if n >= 1:
                hp, L2, beta = h_mp(fam, n - 1), lam_ratio(eq, 2.0 * n), fam.coeffs.beta(n)
                B = lambda t: -A(t) + L2 * (lat.x(t) - beta)
                for s in map(complex, grid):
                    p1 = (B(s - 1.0) + lam * lat.delta_x_mid(s - 1.0)) * (
                        B(s) + sigma_over_nabla(eq, s))
                    p2 = -B(s) * theta_over_delta(eq, s - 1.0)
                    out.append((n, f"{s:.6g}", rel_residual(p1 + p2 - hp, (p1, p2, hp)),
                                "plusminus"))
    elif suite == "factorization":
        for n in ns:
            Lp, Lm = raising_op(fam, n), lowering_op(fam, n + 1)
            Hn, Hn1 = hamiltonian(fam, n), hamiltonian(fam, n + 1)
            h = h_mp(fam, n)
            for s in map(complex, grid):
                chain = PhiChain(fam, s, -2, 2)
                probes = [(f"x^{j}", lambda t, j=j: lat.x(t) ** j) for j in range(4)]
                probes.append((f"phi_{n}", chain.fn(n)))
                for tag, f in probes:
                    for order, outer, inner, H, u in (
                        ("minus-plus", Lm, Lp, Hn, u_fn(fam, n, s + 1.0)),
                        ("plus-minus", Lp, Lm, Hn1, u_fn(fam, n, s)),
                    ):
                        t1, sc1 = apply_scaled(outer, inner.applied(f), s, inner=(inner, f))
                        t2 = h * f(s)
                        hf, schf = apply_scaled(H, f, s)
                        scale = max(sc1, modulus(t2), modulus(u) * schf, 1e-300)
                        out.append((n, f"{s:.6g}", modulus(t1 - t2 - u * hf) / scale,
                                    f"{order} {tag}"))
    elif suite == "ttrr_phi":
        t = fam.coeffs
        for n in ns:
            for s in map(complex, grid):
                P = lambda k: pn(fam, k, s) if k >= 0 else 0.0
                terms = (t.alpha(n) * P(n + 1), t.gamma(n) * P(n - 1),
                         (t.beta(n) - lat.x(s)) * P(n))
                out.append((n, f"{s:.6g}", rel_residual(sum(terms), terms), ""))
    elif suite == "h_remark":
        t = fam.coeffs
        for n in ns:
            m = n + 1  # h+-(m) = lambda_{2m-2}/[2m-2]_q lambda_{2m}/[2m]_q alpha_{m-1} gamma_m
            a = lam_ratio(eq, 2.0 * m - 2.0) * lam_ratio(eq, 2.0 * m) * t.alpha(m - 1) * t.gamma(m)
            b = h_mp(fam, n)
            out.append((n, "-", rel_residual(a - b, (a, b)), ""))
    elif suite == "poly_ladder":
        t, pn_fn = fam.coeffs, lambda k, s: pn(fam, k, s)
        for n in ns:
            for s in grid:
                label = f"{complex(s):.4g}"
                out.append((n, label, check_poly_raising(eq, pn_fn, n, s, t.alpha(n)), "raising"))
                out.append((n, label, check_poly_lowering(eq, pn_fn, n, s, t.beta(n), t.gamma(n)),
                            "lowering"))
        out += [(0, f"{complex(s):.4g}", check_poly_lowering(eq, pn_fn, 0, s, t.beta(0), 0.0),
                 "lowering n=0") for s in grid[:2]]
    elif suite == "bootstrap":
        out = _bootstrap_cases(fam, max(ns), grid)
    else:
        raise ValueError(f"no point-by-point reference for {suite!r}")
    return out


def _bootstrap_cases(fam, N: int, grid):
    """The bootstrap suite point by point: phi_0 from the ratio recurrence of
    L-(s,0) phi_0 = 0, normalized to 1 at s0, then N raising steps, each
    level against the direct phi_n (the weight chain through the chain
    points, anchored at s0, times P_n) up to one constant."""
    from qladder.ladder import _d_ratio_up

    eq, lat, t = fam.eq, fam.lattice, fam.coeffs
    s0 = complex(grid[0])
    offs = [round((complex(s) - s0).real) for s in grid]
    lo, hi = min(offs) - N, max(offs)
    vals = [complex(1.0)]
    for k in range(lo, hi):
        s = s0 + k
        vals.append(-v_fn(fam, 0, s) * delta_x(lat, s) * vals[-1] / sqrt_ts_plus(fam, s))
    i0 = offs[0] - lo
    cur = [v * (1 / vals[i0] if vals[i0] != 0 else 1.0) for v in vals]
    table = {0: dict(zip(range(lo, hi + 1), cur))}
    for n in range(N):
        coef, dr = t.alpha(n) * lam_ratio(eq, 2.0 * n), _d_ratio_up(fam, n)
        div = coef * dr if dr is not None else coef
        cur = [(u_fn(fam, n, s0 + k) * cur[j + 1] + e_minus(fam, s0 + k) * cur[j]) / div
               for j, k in enumerate(range(lo + n + 1, hi + 1))]
        table[n + 1] = dict(zip(range(lo + n + 1, hi + 1), cur))
    w = weight_chain(fam, s0, lo, hi)
    out = []
    for n in range(N + 1):
        d = {k: w[k] * pn(fam, n, s0 + k) for k in offs}
        k0 = next(k for k in offs if abs(d[k]) > 1e-14)
        const = table[n][k0] / d[k0]
        scale = max(max(abs(v) for v in d.values()), 1e-30)
        out += [(n, f"{s0 + k:.6g}", abs(table[n][k] - const * d[k]) / (abs(const) * scale), "")
                for k in offs]
    return out


def report_to_dict(rep) -> dict:
    """A check report as the dict `json.dumps` writes as its v1 JSON object,
    case by case from `rep.cases`: the reference `report.dumps_reports` is
    compared with, byte for byte."""
    return {
        "schema": SCHEMA_ID,
        "suite": rep.suite,
        "identity": rep.identity,
        "family": rep.family,
        "tolerance": rep.tolerance,
        "max_residual": rep.max_residual,
        "verdict": "pass" if rep.passed else "fail",
        "wall_ms": round(rep.wall_ms, 3),
        "cases": [
            {"n": n, "s": s, "residual": r, "note": note} if note else {"n": n, "s": s, "residual": r}
            for n, s, r, note in rep.cases
        ],
        "meta": rep.meta,
    }
