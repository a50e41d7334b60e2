"""Orthonormal functions phi_n, the three-point operators H, L+, L-, the
scalar functions u and v, factorization constants, and the identity checks
built from them.

Operators are three-point stencils

    (Op f)(s) = c_minus(s) f(s-1) + c_zero(s) f(s) + c_plus(s) f(s+1)

with coefficients built from sigma, Theta = sigma + tau * Delta x(s-1/2) and
the principal square root of the *product* Theta(s-1) sigma(s) (resp.
Theta(s) sigma(s+1)).  Evaluating the product first fixes one branch for
every family, including complex lattice coordinates.

phi values used by residual checks are built along integer chains
s0 + k by the Pearson-consistent recurrence

    w(s+1) = Theta(s) w(s) / sqrt(Theta(s) sigma(s+1)),
    w(s-1) = sigma(s) w(s) / sqrt(Theta(s-1) sigma(s)),

which squares to the weight ratio rho(s+1)/rho(s) = Theta(s)/sigma(s+1) and
keeps every square-root branch consistent with the operator coefficients;
for positive weights it reduces to sqrt(rho) up to one overall constant.
The identities checked here are 1-homogeneous in that constant, so chains
may be anchored anywhere.  Orthogonality sums (mutual adjointness,
self-adjointness, Gram matrices) instead use the closed-form weight on the
real support, where rho >= 0 pointwise.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from .hypergeometric_core import (
    lam_ratio,
    lam_tau_ratio,
    lambda_n,
    rel_residual,
    sigma_eval,
    sigma_over_nabla,
    theta_eval,
    theta_over_delta,
)
from .qkernel import QKernelError
from .report import CaseRecord, CheckReport

__all__ = [
    "ThreePointOperator",
    "OrthonormalFamily",
    "theta",
    "u_fn",
    "v_fn",
    "hamiltonian",
    "raising_op",
    "lowering_op",
    "h_minusplus",
    "h_plusminus",
    "weight_chain",
    "PhiChain",
    "check_eigen",
    "check_ttrr_phi",
    "check_raising",
    "check_lowering",
    "check_uv_shift",
    "check_h_remark",
    "check_h_s_independence",
    "check_factorization",
    "ladder_bootstrap",
    "check_bootstrap",
    "check_adjoint",
    "check_selfadjoint",
    "check_branch_continuity",
]


@dataclass(frozen=True)
class ThreePointOperator:
    """c_minus(s) E^- + c_zero(s) I + c_plus(s) E^+ with callable coefficients."""

    c_minus: object
    c_zero: object
    c_plus: object

    def apply(self, f, s) -> complex:
        s = complex(s)
        out = complex(self.c_zero(s)) * complex(f(s))
        cm = complex(self.c_minus(s))
        if cm != 0.0:
            out += cm * complex(f(s - 1.0))
        cp = complex(self.c_plus(s))
        if cp != 0.0:
            out += cp * complex(f(s + 1.0))
        return out

    def applied(self, f):
        """The function s -> (Op f)(s), for nesting operators."""
        return lambda s: self.apply(f, s)


def theta(fam, s) -> complex:
    """Theta(s) = sigma(s) + tau(s) Delta x(s-1/2)."""
    return theta_eval(fam.eq, s)


def _sqrt_ts_minus(fam, s) -> complex:
    """Principal sqrt of Theta(s-1) sigma(s)."""
    return cmath.sqrt(theta_eval(fam.eq, complex(s) - 1.0) * sigma_eval(fam.eq, s))


def _sqrt_ts_plus(fam, s) -> complex:
    """Principal sqrt of Theta(s) sigma(s+1)."""
    return cmath.sqrt(theta_eval(fam.eq, s) * sigma_eval(fam.eq, complex(s) + 1.0))


def u_fn(fam, n: int, s) -> complex:
    """u(s,n) = lambda_n/[n]_q * tau_n(s)/tau_n' - sigma(s)/nabla x(s);
    the n = 0 value uses the analytic continuation of lambda_n/[n]_q."""
    eq = fam.eq
    return lam_tau_ratio(eq, n, s) - sigma_over_nabla(eq, s)


def v_fn(fam, n: int, s) -> complex:
    """v(s,n) = -lambda_n/[n]_q tau_n(s)/tau_n' + lambda_n Delta x(s-1/2)
    + lambda_{2n}/[2n]_q (x(s) - beta_n) - Theta(s)/Delta x(s)."""
    eq = fam.eq
    beta = fam.ttrr_beta(n)
    return (
        -lam_tau_ratio(eq, n, s)
        + lambda_n(eq, n) * eq.lattice.delta_x_mid(s)
        + lam_ratio(eq, 2.0 * n) * (eq.lattice.x(s) - beta)
        - theta_over_delta(eq, s)
    )


def hamiltonian(fam, n: int) -> ThreePointOperator:
    """H(s,n) = sqrt(Theta(s-1) sigma(s))/nabla x(s) E^-
              + sqrt(Theta(s) sigma(s+1))/Delta x(s) E^+
              - (Theta(s)/Delta x(s) + sigma(s)/nabla x(s)
                 - lambda_n Delta x(s-1/2)) I."""
    eq = fam.eq
    lam = lambda_n(eq, n)
    return ThreePointOperator(
        c_minus=lambda s: _sqrt_ts_minus(fam, s) / eq.lattice.nabla_x(s),
        c_zero=lambda s: -(
            theta_over_delta(eq, s)
            + sigma_over_nabla(eq, s)
            - lam * eq.lattice.delta_x_mid(s)
        ),
        c_plus=lambda s: _sqrt_ts_plus(fam, s) / eq.lattice.delta_x(s),
    )


def raising_op(fam, n: int) -> ThreePointOperator:
    """L+(s,n) = u(s,n) I + sqrt(Theta(s-1) sigma(s))/nabla x(s) E^-."""
    eq = fam.eq
    return ThreePointOperator(
        c_minus=lambda s: _sqrt_ts_minus(fam, s) / eq.lattice.nabla_x(s),
        c_zero=lambda s: u_fn(fam, n, s),
        c_plus=lambda s: 0.0,
    )


def lowering_op(fam, n: int) -> ThreePointOperator:
    """L-(s,n) = v(s,n) I + sqrt(Theta(s) sigma(s+1))/Delta x(s) E^+."""
    eq = fam.eq
    return ThreePointOperator(
        c_minus=lambda s: 0.0,
        c_zero=lambda s: v_fn(fam, n, s),
        c_plus=lambda s: _sqrt_ts_plus(fam, s) / eq.lattice.delta_x(s),
    )


def h_minusplus(fam, n: int) -> complex:
    """h(n) in L-(s,n+1) L+(s,n) = h(n) I + u(s+1,n) H(s,n):
    lambda_{2n}/[2n]_q * lambda_{2n+2}/[2n+2]_q * alpha_n gamma_{n+1}."""
    eq = fam.eq
    return (
        lam_ratio(eq, 2.0 * n)
        * lam_ratio(eq, 2.0 * n + 2.0)
        * fam.ttrr_alpha(n)
        * fam.ttrr_gamma(n + 1)
    )


def h_plusminus(fam, n: int) -> complex:
    """h(n) in L+(s,n-1) L-(s,n) = h(n) I + u(s,n-1) H(s,n):
    lambda_{2n-2}/[2n-2]_q * lambda_{2n}/[2n]_q * alpha_{n-1} gamma_n."""
    if n < 1:
        raise QKernelError("h_plusminus needs n >= 1")
    eq = fam.eq
    return (
        lam_ratio(eq, 2.0 * n - 2.0)
        * lam_ratio(eq, 2.0 * n)
        * fam.ttrr_alpha(n - 1)
        * fam.ttrr_gamma(n)
    )


def _h_bracket_mp_pieces(fam, n: int, s):
    """The two terms of the displayed bracket whose value is h_minusplus(n):
    (A(s+1) - sigma(s+1)/nabla x(s+1)) (A(s) - lambda_n Delta x(s-1/2))
    and A(s+1) Theta(s)/Delta x(s), with A(s) = lambda_n/[n]_q tau_n(s)/tau_n'."""
    eq = fam.eq
    s = complex(s)
    A = lambda t: lam_tau_ratio(eq, n, t)
    p1 = (A(s + 1.0) - sigma_over_nabla(eq, s + 1.0)) * (
        A(s) - lambda_n(eq, n) * eq.lattice.delta_x_mid(s)
    )
    p2 = A(s + 1.0) * theta_over_delta(eq, s)
    return p1, p2


def _h_bracket_pm_pieces(fam, n: int, s):
    """The two terms of the displayed bracket for h_plusminus(n), with
    B(s) = -A(s) + lambda_{2n}/[2n]_q (x(s) - beta_n):
    (B(s-1) + lambda_n Delta x(s-3/2)) (B(s) + sigma(s)/nabla x(s)) and
    -B(s) Theta(s-1)/Delta x(s-1)."""
    eq = fam.eq
    s = complex(s)
    beta = fam.ttrr_beta(n)
    L = lam_ratio(eq, 2.0 * n)
    B = lambda t: -lam_tau_ratio(eq, n, t) + L * (eq.lattice.x(t) - beta)
    p1 = (B(s - 1.0) + lambda_n(eq, n) * eq.lattice.delta_x_mid(s - 1.0)) * (
        B(s) + sigma_over_nabla(eq, s)
    )
    p2 = -B(s) * theta_over_delta(eq, s - 1.0)
    return p1, p2


# ==========================================================================
# chain-consistent phi values
# ==========================================================================


def weight_chain(fam, s0, lo: int, hi: int, anchor=1.0) -> dict:
    """w(s0+k) for k in lo..hi with w(s0) = anchor, satisfying

        sqrt(Theta(s) sigma(s+1)) w(s+1) = Theta(s) w(s)  and
        sqrt(Theta(s-1) sigma(s)) w(s-1) = sigma(s) w(s),

    so w^2 solves the Pearson ratio recurrence and all square-root branches
    agree with the operator coefficients."""
    if lo > 0 or hi < 0:
        raise QKernelError("chain must contain its anchor (lo <= 0 <= hi)")
    s0 = complex(s0)
    w = {0: complex(anchor)}
    for k in range(hi):
        s = s0 + k
        root = _sqrt_ts_plus(fam, s)
        if root == 0.0:
            raise QKernelError(
                f"weight chain hit Theta(s) sigma(s+1) = 0 at s = {s}; "
                "choose a chain away from support boundaries"
            )
        w[k + 1] = theta_eval(fam.eq, s) * w[k] / root
    for k in range(0, lo, -1):
        s = s0 + k
        root = _sqrt_ts_minus(fam, s)
        if root == 0.0:
            raise QKernelError(
                f"weight chain hit Theta(s-1) sigma(s) = 0 at s = {s}; "
                "choose a chain away from support boundaries"
            )
        w[k - 1] = sigma_eval(fam.eq, s) * w[k] / root
    return w


@dataclass
class PhiChain:
    """phi-like functions w(s) P_n(s) along one integer chain.

    The overall constant of w is irrelevant to every residual check here
    (they are 1-homogeneous); `fn(n)` returns the callable and resolves
    chain offsets by nearest integer.
    """

    fam: object
    s0: complex
    lo: int
    hi: int
    route: str = "ttrr"
    w: dict = field(default_factory=dict)

    def __post_init__(self):
        self.s0 = complex(self.s0)
        if not self.w:
            self.w = weight_chain(self.fam, self.s0, self.lo, self.hi)

    def offset(self, s) -> int:
        d = complex(s) - self.s0
        k = round(d.real)
        if abs(d - k) > 1e-8:
            raise QKernelError(f"point {s} is not on the chain through {self.s0}")
        if not (self.lo <= k <= self.hi):
            raise QKernelError(f"chain offset {k} outside [{self.lo}, {self.hi}]")
        return k

    def fn(self, n: int):
        return lambda s: self.w[self.offset(s)] * self.fam.pn(n, s, self.route)


# ==========================================================================
# orthonormal family (pointwise, closed-form weight on the real support)
# ==========================================================================


@dataclass
class OrthonormalFamily:
    """phi_n = sqrt(rho/d_n^2) P_n with the family's closed-form weight.

    Pointwise phi values require rho >= 0 (real support); chain-based checks
    do not go through this class.
    """

    family: object
    route: str = "ttrr"

    def rho_at_s(self, s) -> complex:
        return self.family.kind.rho_at_s(self.family, s)

    def phi(self, n: int, s) -> complex:
        rho = self.rho_at_s(s)
        if abs(rho.imag) > 1e-12 * abs(rho) or rho.real < 0.0:
            raise QKernelError(
                f"rho({s}) is not a nonnegative real; pointwise phi needs the "
                "real branch (use PhiChain for off-support checks)"
            )
        return cmath.sqrt(rho) * self.family.pn(n, s, self.route) / self.family.d_n(n)

    def phi_point(self, n: int, point) -> complex:
        """phi at a natural-coordinate point (used by Jackson-integral Grams)."""
        fam = self.family
        rho = fam.weight(point)
        return cmath.sqrt(rho) * fam.pn(n, fam.s_from_point(point), self.route) / fam.d_n(n)

    # reduced operator application: valid where sigma, Theta, rho >= 0 on the
    # support (discrete sums); uses the limit-aware ratios so boundary points
    # with sigma(a) = nabla x(a) = 0 evaluate cleanly.
    def apply_reduced(self, which: str, n: int, s, op_n: int | None = None) -> complex:
        """(Op phi_n)(s) with the square roots reduced through the Pearson
        relation: sqrt(Theta(s-1)sigma(s)) sqrt(rho(s-1)) = sigma(s) sqrt(rho(s))
        for nonnegative sigma, Theta, rho on the support.  `op_n` is the
        operator's eigen-parameter (defaults to the function index n); only
        H distinguishes the two."""
        fam = self.family
        eq = fam.eq
        s = complex(s)
        w = cmath.sqrt(self.rho_at_s(s))
        d = fam.d_n(n)
        son = sigma_over_nabla(eq, s)
        tod = theta_over_delta(eq, s)
        if which == "L+":
            return (
                u_fn(fam, n, s) * w * fam.pn(n, s, self.route)
                + son * w * fam.pn(n, s - 1.0, self.route)
            ) / d
        if which == "L-":
            return (
                v_fn(fam, n, s) * w * fam.pn(n, s, self.route)
                + tod * w * fam.pn(n, s + 1.0, self.route)
            ) / d
        if which == "H":
            lam = lambda_n(eq, n if op_n is None else op_n)
            return (
                w
                * (
                    son * fam.pn(n, s - 1.0, self.route)
                    + tod * fam.pn(n, s + 1.0, self.route)
                    - (son + tod - lam * eq.lattice.delta_x_mid(s)) * fam.pn(n, s, self.route)
                )
                / d
            )
        raise QKernelError(f"unknown operator {which!r}")


# ==========================================================================
# identity checks
# ==========================================================================


def _point_chain(fam, s, margin: int, route: str) -> PhiChain:
    """A local chain of half-width `margin` anchored at one grid point.

    Each grid point carries its own Pearson-consistent weight chain (the
    residuals checked here are local and 1-homogeneous in the chain
    constant), so grids need not be integer chains of each other; this is
    how the theta-grids of the trigonometric lattice are handled."""
    return PhiChain(fam, complex(s), -margin, margin, route=route)


def check_eigen(fam, ns, s_grid, tolerance: float = 1e-9, route: str = "ttrr") -> CheckReport:
    """H(s,n) phi_n(s) = 0 at every grid point, for each n in ns."""
    rep = CheckReport(
        suite="eigen",
        identity="H(s,n) phi_n(s) = 0 (symmetric-form difference equation)",
        family=fam.name,
        tolerance=tolerance,
    )
    for s in s_grid:
        s = complex(s)
        chain = _point_chain(fam, s, 1, route)
        for n in ns:
            H = hamiltonian(fam, n)
            f = chain.fn(n)
            terms = (
                complex(H.c_minus(s)) * f(s - 1.0),
                complex(H.c_zero(s)) * f(s),
                complex(H.c_plus(s)) * f(s + 1.0),
            )
            rep.cases.append(
                CaseRecord(n, f"{s:.6g}", rel_residual(sum(terms), terms))
            )
    return rep


def check_ttrr_phi(fam, ns, s_grid, tolerance: float = 1e-9, route: str = "ttrr") -> CheckReport:
    """alpha_n (d_{n+1}/d_n) phi_{n+1} + gamma_n (d_{n-1}/d_n) phi_{n-1}
    + (beta_n - x) phi_n = 0; the norm ratios cancel against the phi
    normalizations, so the check runs on chain functions."""
    rep = CheckReport(
        suite="ttrr_phi",
        identity="alpha_n d_{n+1}/d_n phi_{n+1} + gamma_n d_{n-1}/d_n phi_{n-1}"
        " + (beta_n - x) phi_n = 0",
        family=fam.name,
        tolerance=tolerance,
    )
    for n in ns:
        for s in s_grid:
            s = complex(s)
            terms = (
                fam.ttrr_alpha(n) * fam.pn(n + 1, s, route),
                fam.ttrr_gamma(n) * (fam.pn(n - 1, s, route) if n >= 1 else 0.0),
                (fam.ttrr_beta(n) - fam.lattice.x(s)) * fam.pn(n, s, route),
            )
            rep.cases.append(CaseRecord(n, f"{s:.6g}", rel_residual(sum(terms), terms)))
    return rep


def _ladder_residual(fam, which, n, s, chain) -> float:
    eq = fam.eq
    s = complex(s)
    f = chain.fn(n)
    if which == "+":
        op = raising_op(fam, n)
        coef = fam.ttrr_alpha(n) * lam_ratio(eq, 2.0 * n)
        target = coef * chain.fn(n + 1)(s)
    else:
        op = lowering_op(fam, n)
        coef = fam.ttrr_gamma(n) * lam_ratio(eq, 2.0 * n)
        target = coef * chain.fn(n - 1)(s) if n >= 1 else complex(0.0)
    got = op.apply(f, s)
    terms = (got, target, complex(op.c_zero(s)) * f(s))
    return rel_residual(got - target, terms)


def check_raising(fam, ns, s_grid, tolerance: float = 1e-9, route: str = "ttrr") -> CheckReport:
    """L+(s,n) phi_n = alpha_n lambda_{2n}/[2n]_q (d_{n+1}/d_n) phi_{n+1};
    the d-ratio enters in its cancelled form (valid at the top of finite
    families where d_{n+1} = 0)."""
    rep = CheckReport(
        suite="raising",
        identity="L+(s,n) phi_n = alpha_n lambda_{2n}/[2n]_q d_{n+1}/d_n phi_{n+1}",
        family=fam.name,
        tolerance=tolerance,
    )
    for s in s_grid:
        chain = _point_chain(fam, s, 1, route)
        for n in ns:
            rep.cases.append(
                CaseRecord(n, f"{complex(s):.6g}", _ladder_residual(fam, "+", n, s, chain))
            )
    return rep


def check_lowering(fam, ns, s_grid, tolerance: float = 1e-9, route: str = "ttrr") -> CheckReport:
    """L-(s,n) phi_n = gamma_n lambda_{2n}/[2n]_q (d_{n-1}/d_n) phi_{n-1}."""
    rep = CheckReport(
        suite="lowering",
        identity="L-(s,n) phi_n = gamma_n lambda_{2n}/[2n]_q d_{n-1}/d_n phi_{n-1}",
        family=fam.name,
        tolerance=tolerance,
    )
    for s in s_grid:
        chain = _point_chain(fam, s, 1, route)
        for n in ns:
            rep.cases.append(
                CaseRecord(n, f"{complex(s):.6g}", _ladder_residual(fam, "-", n, s, chain))
            )
    return rep


def check_uv_shift(fam, ns, s_grid, tolerance: float = 1e-10) -> CheckReport:
    """u(s+1,n) = v(s,n+1) (equivalently u(s+1,n-1) = v(s,n))."""
    rep = CheckReport(
        suite="uv_shift",
        identity="u(s+1,n) = v(s,n+1)",
        family=fam.name,
        tolerance=tolerance,
    )
    for n in ns:
        for s in s_grid:
            s = complex(s)
            uu = u_fn(fam, n, s + 1.0)
            vv = v_fn(fam, n + 1, s)
            rep.cases.append(CaseRecord(n, f"{s:.6g}", rel_residual(uu - vv, (uu, vv))))
    return rep


def check_h_remark(fam, ns, tolerance: float = 1e-12) -> CheckReport:
    """h_plusminus(n+1) = h_minusplus(n)."""
    rep = CheckReport(
        suite="h_remark",
        identity="h+-(n+1) = h-+(n)",
        family=fam.name,
        tolerance=tolerance,
    )
    for n in ns:
        a = h_plusminus(fam, n + 1)
        b = h_minusplus(fam, n)
        rep.cases.append(CaseRecord(n, "-", rel_residual(a - b, (a, b))))
    return rep


def check_h_s_independence(fam, ns, s_grid, tolerance: float = 1e-10) -> CheckReport:
    """The displayed brackets for h-+(n) and h+-(n) are independent of s and
    equal the gamma/alpha closed values."""
    rep = CheckReport(
        suite="h_s_independence",
        identity="s-independence of the bracket expansions of h-+ and h+-",
        family=fam.name,
        tolerance=tolerance,
    )
    for n in ns:
        hm = h_minusplus(fam, n)
        for s in s_grid:
            p1, p2 = _h_bracket_mp_pieces(fam, n, s)
            # the scale is what had to cancel, so a degenerately zero h
            # (top of a finite family) is not divided by its own noise
            rep.cases.append(
                CaseRecord(n, f"{complex(s):.6g}",
                           rel_residual(p1 + p2 - hm, (p1, p2, hm)), "minusplus")
            )
        if n >= 1:
            hp = h_plusminus(fam, n)
            for s in s_grid:
                p1, p2 = _h_bracket_pm_pieces(fam, n, s)
                rep.cases.append(
                    CaseRecord(n, f"{complex(s):.6g}",
                               rel_residual(p1 + p2 - hp, (p1, p2, hp)), "plusminus")
                )
    return rep


def check_factorization(fam, ns, s_grid, tolerance: float = 1e-9, route: str = "ttrr") -> CheckReport:
    """Both factorizations on probe functions (monomials x^j, j <= 3, plus
    the chain phi_n):

        L-(s,n+1) L+(s,n) - h-+(n) I - u(s+1,n) H(s,n)  = 0,
        L+(s,n) L-(s,n+1) - h-+(n) I - u(s,n)  H(s,n+1) = 0.
    """
    rep = CheckReport(
        suite="factorization",
        identity="u(s+1,n) H(s,n) = L-(s,n+1) L+(s,n) - h(n) I  and  "
        "u(s,n) H(s,n+1) = L+(s,n) L-(s,n+1) - h(n) I",
        family=fam.name,
        tolerance=tolerance,
    )
    lat = fam.lattice
    for n in ns:
        Lp = raising_op(fam, n)
        Lm = lowering_op(fam, n + 1)
        Hn = hamiltonian(fam, n)
        Hn1 = hamiltonian(fam, n + 1)
        h = h_minusplus(fam, n)
        for s in s_grid:
            s = complex(s)
            chain = _point_chain(fam, s, 2, route)
            probes = [(f"x^{j}", lambda t, j=j: lat.x(t) ** j) for j in range(4)]
            probes.append((f"phi_{n}", chain.fn(n)))
            for tag, f in probes:
                t1, sc1 = _apply_scaled(Lm, Lp.applied(f), s, inner=(Lp, f))
                t2 = h * f(s)
                hf, schf = _apply_scaled(Hn, f, s)
                u1 = u_fn(fam, n, s + 1.0)
                t3 = u1 * hf
                scale = max(sc1, abs(t2), abs(u1) * schf, 1e-300)
                rep.cases.append(
                    CaseRecord(n, f"{s:.6g}", abs(t1 - t2 - t3) / scale,
                               f"minus-plus {tag}")
                )
                t1, sc1 = _apply_scaled(Lp, Lm.applied(f), s, inner=(Lm, f))
                hf, schf = _apply_scaled(Hn1, f, s)
                u0 = u_fn(fam, n, s)
                t3 = u0 * hf
                scale = max(sc1, abs(t2), abs(u0) * schf, 1e-300)
                rep.cases.append(
                    CaseRecord(n, f"{s:.6g}", abs(t1 - t2 - t3) / scale,
                               f"plus-minus {tag}")
                )
    return rep


def _apply_scaled(op: ThreePointOperator, f, s, inner=None):
    """(Op f)(s) together with the magnitude of the largest product formed,
    i.e. the scale at which rounding noise enters the cancellation.  With
    `inner = (InnerOp, g)`, f must be InnerOp.applied(g) and the inner
    stencil scales are propagated through the outer coefficients."""
    s = complex(s)
    pieces = []
    for shift, coef in ((-1.0, op.c_minus), (0.0, op.c_zero), (1.0, op.c_plus)):
        cv = complex(coef(s))
        if cv == 0.0:
            continue
        fv = complex(f(s + shift))
        pieces.append((cv, fv, shift))
    val = sum(cv * fv for cv, fv, _ in pieces)
    scale = max((abs(cv * fv) for cv, fv, _ in pieces), default=0.0)
    if inner is not None:
        iop, g = inner
        for cv, _, shift in pieces:
            isc = max(
                (
                    abs(complex(ic(s + shift)) * complex(g(s + shift + ish)))
                    for ish, ic in ((-1.0, iop.c_minus), (0.0, iop.c_zero), (1.0, iop.c_plus))
                ),
                default=0.0,
            )
            scale = max(scale, abs(cv) * isc)
    return val, scale


def ladder_bootstrap(of: OrthonormalFamily, N: int, s_grid, route: str = "ttrr") -> dict:
    """Solve L-(s,0) phi_0 = 0 as the ratio recurrence

        phi_0(s+1) = -v(s,0) Delta x(s) phi_0(s) / sqrt(Theta(s) sigma(s+1)),

    normalize phi_0 at the first grid point, then climb with the raising
    operator.  Returns {n: {offset: value}} on the grid chain."""
    fam = of.family
    eq = fam.eq
    if N < 0:
        raise QKernelError("bootstrap needs N >= 0")
    s0 = complex(s_grid[0])
    offs = [round((complex(s) - s0).real) for s in s_grid]
    lo, hi = min(offs) - 0, max(offs) + 0
    # phi_0 on an extended chain (raising consumes one left point per level)
    ext_lo = lo - N
    vals = {ext_lo: complex(1.0)}
    for k in range(ext_lo, hi):
        s = s0 + k
        root = _sqrt_ts_plus(fam, s)
        if root == 0.0:
            raise QKernelError(f"bootstrap ratio degenerate at s = {s}")
        vals[k + 1] = -v_fn(fam, 0, s) * eq.lattice.delta_x(s) * vals[k] / root
    # normalize at the first grid point against the direct phi_0
    anchor = of.phi(0, s0) if _pointwise_branch_consistent(of, [s0]) else complex(1.0)
    scale = anchor / vals[offs[0]] if vals[offs[0]] != 0 else complex(1.0)
    table = {0: {k: vals[k] * scale for k in range(ext_lo, hi + 1)}}
    cur = table[0]
    for n in range(N):
        Lp = raising_op(fam, n)
        nxt = {}
        coef = fam.ttrr_alpha(n) * lam_ratio(eq, 2.0 * n)
        dr = _d_ratio_up(fam, n)
        for k in range(ext_lo + n + 1, hi + 1):
            s = s0 + k
            val = u_fn(fam, n, s) * cur[k] + _sqrt_ts_minus(fam, s) / eq.lattice.nabla_x(s) * cur[k - 1]
            nxt[k] = val / (coef * dr) if dr is not None else val / coef
        table[n + 1] = nxt
        cur = nxt
    return table


def _phi_pointwise_ok(of: OrthonormalFamily, s) -> bool:
    try:
        rho = of.rho_at_s(s)
    except Exception:
        return False
    return abs(rho.imag) <= 1e-12 * abs(rho) and rho.real > 0.0


def _pointwise_branch_consistent(of: OrthonormalFamily, s_values) -> bool:
    """Whether the positive pointwise sqrt(rho) satisfies the same branch
    relations as the principal-root chain: needs sigma(s) >= 0 and
    Theta(s) >= 0 (real) across the span.  Where Theta < 0 (Al-Salam--Carlitz
    with a < 0) the chain continuation alternates sign against pointwise
    sqrt(rho) and is the branch the operators pair with."""
    eq = of.family.eq

    def nonneg(z):
        z = complex(z)
        return abs(z.imag) <= 1e-10 * max(1.0, abs(z)) and z.real >= -1e-12 * max(1.0, abs(z))

    for s in s_values:
        if not _phi_pointwise_ok(of, s):
            return False
        if not (nonneg(sigma_eval(eq, s)) and nonneg(theta_eval(eq, s))):
            return False
    return True


def _d_ratio_up(fam, n: int):
    """d_{n+1}/d_n when both norms exist and are nonzero, else None."""
    try:
        lo = fam.d_n(n)
        hi = fam.d_n(n + 1)
    except Exception:
        return None
    if lo == 0 or hi == 0:
        return None
    return hi / lo


def check_bootstrap(of: OrthonormalFamily, N: int, s_grid, tolerance: float = 1e-8,
                    route: str = "ttrr") -> CheckReport:
    """Bootstrapped phi_n match direct phi_n up to one constant per level,
    fixed at the first grid point."""
    fam = of.family
    rep = CheckReport(
        suite="bootstrap",
        identity="phi_0 from L-(s,0) phi_0 = 0, then phi_{n+1} from L+(s,n)",
        family=fam.name,
        tolerance=tolerance,
    )
    table = ladder_bootstrap(of, N, s_grid, route)
    s0 = complex(s_grid[0])
    offs = [round((complex(s) - s0).real) for s in s_grid]
    chain = PhiChain(fam, s0, min(offs) - N, max(offs), route=route)
    span = [s0 + k for k in range(min(offs) - N, max(offs) + 1)]
    use_pointwise = _pointwise_branch_consistent(of, span)
    for n in range(N + 1):
        if use_pointwise:
            direct = {k: of.phi(n, s0 + k) for k in offs}
        else:
            f = chain.fn(n)
            direct = {k: f(s0 + k) for k in offs}
        got = table[n]
        k0 = next(k for k in offs if abs(direct[k]) > 1e-14)
        const = got[k0] / direct[k0]
        scale = max(max(abs(v) for v in direct.values()), 1e-30)
        for k in offs:
            rep.cases.append(
                CaseRecord(n, f"{s0 + k:.6g}", abs(got[k] - const * direct[k]) / (abs(const) * scale))
            )
    return rep


def check_adjoint(of: OrthonormalFamily, ns, tolerance: float = 1e-8) -> CheckReport:
    """Mutual adjointness on a finite discrete support:

        sum phi_{n+1} [[2n]_q/lambda_{2n} L+ phi_n] Delta x(s-1/2)
          = sum [[2n+2]_q/lambda_{2n+2} L- phi_{n+1}] phi_n Delta x(s-1/2)
          = alpha_n d_{n+1}/d_n.
    """
    fam = of.family
    rep = CheckReport(
        suite="adjoint",
        identity="sum phi_{n+1} [2n]_q/lambda_{2n} (L+ phi_n) dx = "
        "sum ([2n+2]_q/lambda_{2n+2} L- phi_{n+1}) phi_n dx = alpha_n d_{n+1}/d_n",
        family=fam.name,
        tolerance=tolerance,
    )
    if fam.support.kind != "discrete_grid":
        rep.meta["status"] = "skipped"
        rep.meta["reason"] = f"support kind {fam.support.kind!r} has no discrete sum"
        return rep
    lat = fam.lattice
    grid = fam.support.grid_points
    for n in ns:
        if fam.n_max is not None and n + 1 > fam.n_max:
            rep.cases.append(CaseRecord(n, "-", 0.0, "out-of-range: phi_{n+1} beyond finite family"))
            continue
        dr = _d_ratio_up(fam, n)
        if dr is None:
            rep.cases.append(CaseRecord(n, "-", 0.0, "out-of-range: d_{n+1} vanishes"))
            continue
        target = fam.ttrr_alpha(n) * dr
        s1 = complex(0.0)
        s2 = complex(0.0)
        for s in grid:
            dx = lat.delta_x_mid(s)
            s1 += of.phi(n + 1, s) * of.apply_reduced("L+", n, s) * dx
            s2 += of.apply_reduced("L-", n + 1, s) * of.phi(n, s) * dx
        s1 /= lam_ratio(fam.eq, 2.0 * n)
        s2 /= lam_ratio(fam.eq, 2.0 * n + 2.0)
        rep.cases.append(CaseRecord(n, "sum1", rel_residual(s1 - target, (s1, target))))
        rep.cases.append(CaseRecord(n, "sum2", rel_residual(s2 - target, (s2, target))))
    return rep


def check_selfadjoint(of: OrthonormalFamily, pairs, tolerance: float = 1e-8,
                      drop_last: int = 0) -> CheckReport:
    """Self-adjointness of the eigenvalue operator on the discrete support:

        sum phi_m (H(.,n) phi_n)(s) = sum phi_n (H(.,n) phi_m)(s).

    The eigenvalue operator of the symmetric-form equation is
    -H(s,n)/Delta x(s-1/2) with respect to the Delta x(s-1/2)-weighted inner
    product; the weight cancels against the operator normalization, leaving
    plain sums of H applications.  The lambda_n term contributes the same
    orthogonality sum to both sides and cancels; what remains exercises the
    boundary-term argument.  `drop_last` truncates the grid to break the
    boundary condition (negative control)."""
    fam = of.family
    rep = CheckReport(
        suite="selfadjoint",
        identity="sum phi_m (H(.,n) phi_n) = sum phi_n (H(.,n) phi_m)"
        " (eigenvalue operator -H/Delta x(s-1/2) self-adjoint)",
        family=fam.name,
        tolerance=tolerance,
    )
    if fam.support.kind != "discrete_grid":
        rep.meta["status"] = "skipped"
        rep.meta["reason"] = f"support kind {fam.support.kind!r} has no discrete sum"
        return rep
    grid = fam.support.grid_points
    if drop_last:
        grid = grid[:-drop_last]
    for n, m in pairs:
        a = complex(0.0)
        b = complex(0.0)
        terms_scale = 0.0
        for s in grid:
            ta = of.phi(m, s) * of.apply_reduced("H", n, s, op_n=n)
            tb = of.phi(n, s) * of.apply_reduced("H", m, s, op_n=n)
            a += ta
            b += tb
            terms_scale = max(terms_scale, abs(ta), abs(tb))
        scale = max(abs(a), abs(b), terms_scale, 1e-30)
        rep.cases.append(CaseRecord(n, f"m={m}", abs(a - b) / scale))
    return rep


def check_branch_continuity(fam, s_grid, tolerance: float = 0.2) -> CheckReport:
    """Continuity of the principal-root operator coefficients along the grid
    (detects branch flips on complex lattice coordinates)."""
    rep = CheckReport(
        suite="branch_continuity",
        identity="sqrt(Theta sigma) operator coefficients vary continuously along the grid",
        family=fam.name,
        tolerance=tolerance,
    )
    vals = [_sqrt_ts_plus(fam, s) for s in s_grid]
    for i in range(1, len(vals)):
        scale = max(abs(vals[i]), abs(vals[i - 1]), 1e-30)
        rep.cases.append(
            CaseRecord(0, f"{complex(s_grid[i]):.6g}", abs(vals[i] - vals[i - 1]) / scale)
        )
    return rep
