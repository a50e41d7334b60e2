"""Point-by-point definitions, one point at a time through the scalar
Lattice.x: sigma, Theta and tau at a point, the two-branch limit-aware
ratios sigma/nabla x and Theta/Delta x, the polynomial raising and lowering
relations, the ladder coefficients and operators, the difference
quotients, k-fold forward differences and n-fold backward chains, the
Pearson recurrence, rho_n, the Rodrigues formula, the direct tau_k quotient
and the discrete squared norms.  The library has no point-by-point
evaluator: it evaluates sigma, Theta and the ladder coefficients on
`ladder.StencilGrid` arrays, and x on `lattice.LatticeTable`s, whose folds
give the difference calculus.  The tests keep these as the reference the
library is compared against."""

import cmath
from dataclasses import dataclass

from qladder.hypergeometric_core import (
    RODRIGUES_MAX_ORDER,
    EquationData,
    WeightTable,
    _sigma_at,
    _sigma_theta_deriv,
    _theta_at,
    a_nk,
    lam_ratio,
    lam_tau_ratio,
    lambda_n,
    rel_residual,
    tau_tilde,
)
from qladder.ladder import ThreePointOperator, _absent
from qladder.lattice import DegenerateStepError, Lattice
from qladder.qkernel import QKernelError, require_finite


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
    step = lat.nabla_x(s)
    if lat.is_degenerate_step(step):
        dstep = lat.x_deriv(s) - lat.x_deriv(complex(s) - 1.0)
        if lat.is_degenerate_step(dstep):
            raise DegenerateStepError(f"nabla x({s}) vanishes to second order")
        return _sigma_theta_deriv(eq, s, -1) / dstep
    return sigma_eval(eq, s) / step


def theta_over_delta(eq: EquationData, s) -> complex:
    """Theta(s)/Delta x(s), with the exact derivative ratio at removable 0/0."""
    lat = eq.lattice
    step = lat.delta_x(s)
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
    return sqrt_ts_minus(fam, s) / fam.eq.lattice.nabla_x(s)


def e_plus(fam, s) -> complex:
    """The E^+ coefficient of H and L-: sqrt(Theta(s) sigma(s+1))/Delta x(s)."""
    return sqrt_ts_plus(fam, s) / fam.eq.lattice.delta_x(s)


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
    Theta/Delta x P(s+1) + (the I coefficient of H) P(s)."""
    return son * p_minus + tod * p_plus + diag * p_zero


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
            return self.w[k] * self.fam.pn_ttrr(n, s)

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


def pearson_weight(eq: EquationData, anchor, lo: int, hi: int) -> WeightTable:
    """The Pearson table of `hypergeometric_core.pearson_weight`, point by
    point through sigma_eval and theta_eval: the Pearson equation
    Delta[sigma rho]/Delta x(s-1/2) = tau rho as a ratio recurrence on
    anchor+lo .. anchor+hi, normalized to rho(anchor) = 1.

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
