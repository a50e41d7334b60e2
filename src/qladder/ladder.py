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
from functools import cached_property, reduce

import numpy as np

from .hypergeometric_core import (
    _limit_ratio,
    _sigma_at,
    _theta_at,
    lam_ratio,
    lam_tau_ratio,
    lambda_n,
    rel_residual,
    sigma_eval,
    sigma_over_nabla,
    theta_eval,
    theta_over_delta,
)
from .lattice import _cdiv
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
    "StencilGrid",
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
    """c_minus(s) E^- + c_zero(s) I + c_plus(s) E^+ with callable coefficients.

    s is one point, or anything the coefficients and f accept: the batched
    suites pass chain offsets to operators tabulated on a StencilGrid, whose
    values are arrays.  A coefficient that is zero everywhere is skipped, so
    f is not evaluated where it would only be multiplied by zero.
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


def theta(fam, s) -> complex:
    """Theta(s) = sigma(s) + tau(s) Delta x(s-1/2)."""
    return theta_eval(fam.eq, s)


def _root(theta, sigma):
    """The principal square root of the product Theta sigma: the branch of
    every operator coefficient and chain weight."""
    z = theta * sigma
    return np.sqrt(z) if isinstance(z, np.ndarray) else cmath.sqrt(z)


def _sqrt_ts_minus(fam, s) -> complex:
    """Principal sqrt of Theta(s-1) sigma(s)."""
    return _root(theta_eval(fam.eq, complex(s) - 1.0), sigma_eval(fam.eq, s))


def _sqrt_ts_plus(fam, s) -> complex:
    """Principal sqrt of Theta(s) sigma(s+1)."""
    return _root(theta_eval(fam.eq, s), sigma_eval(fam.eq, complex(s) + 1.0))


def _e_minus(fam, s) -> complex:
    """The E^- coefficient of H and L+: sqrt(Theta(s-1) sigma(s))/nabla x(s)."""
    return _sqrt_ts_minus(fam, s) / fam.eq.lattice.nabla_x(s)


def _e_plus(fam, s) -> complex:
    """The E^+ coefficient of H and L-: sqrt(Theta(s) sigma(s+1))/Delta x(s)."""
    return _sqrt_ts_plus(fam, s) / fam.eq.lattice.delta_x(s)


# The diagonal coefficients from their pieces at a point, for one point or
# for the arrays of a StencilGrid: A = A(s,n) = lambda_n/[n]_q tau_n(s)/tau_n',
# son = sigma(s)/nabla x(s), tod = Theta(s)/Delta x(s), dxm = Delta x(s-1/2).

def _u_at(A, son):
    return A - son


def _v_at(fam, n: int, A, xv, dxm, tod):
    eq = fam.eq
    return (
        -A
        + lambda_n(eq, n) * dxm
        + lam_ratio(eq, 2.0 * n) * (xv - fam.ttrr_beta(n))
        - tod
    )


def _h_diag_at(lam, son, tod, dxm):
    return -(tod + son - lam * dxm)


def u_fn(fam, n: int, s):
    """u(s,n) = lambda_n/[n]_q * tau_n(s)/tau_n' - sigma(s)/nabla x(s);
    the n = 0 value uses the analytic continuation of lambda_n/[n]_q."""
    eq = fam.eq
    return _u_at(lam_tau_ratio(eq, n, s), sigma_over_nabla(eq, s))


def v_fn(fam, n: int, s):
    """v(s,n) = -lambda_n/[n]_q tau_n(s)/tau_n' + lambda_n Delta x(s-1/2)
    + lambda_{2n}/[2n]_q (x(s) - beta_n) - Theta(s)/Delta x(s)."""
    eq = fam.eq
    lat = eq.lattice
    return _v_at(fam, n, lam_tau_ratio(eq, n, s), lat.x_values(s), lat.delta_x_mid(s),
                 theta_over_delta(eq, s))


def hamiltonian(fam, n: int) -> ThreePointOperator:
    """H(s,n) = sqrt(Theta(s-1) sigma(s))/nabla x(s) E^-
              + sqrt(Theta(s) sigma(s+1))/Delta x(s) E^+
              - (Theta(s)/Delta x(s) + sigma(s)/nabla x(s)
                 - lambda_n Delta x(s-1/2)) I."""
    eq = fam.eq
    lam = lambda_n(eq, n)
    return ThreePointOperator(
        c_minus=lambda s: _e_minus(fam, s),
        c_zero=lambda s: _h_diag_at(lam, sigma_over_nabla(eq, s), theta_over_delta(eq, s),
                                    eq.lattice.delta_x_mid(s)),
        c_plus=lambda s: _e_plus(fam, s),
    )


def raising_op(fam, n: int) -> ThreePointOperator:
    """L+(s,n) = u(s,n) I + sqrt(Theta(s-1) sigma(s))/nabla x(s) E^-."""
    return ThreePointOperator(
        c_minus=lambda s: _e_minus(fam, s),
        c_zero=lambda s: u_fn(fam, n, s),
        c_plus=_absent,
    )


def lowering_op(fam, n: int) -> ThreePointOperator:
    """L-(s,n) = v(s,n) I + sqrt(Theta(s) sigma(s+1))/Delta x(s) E^+."""
    return ThreePointOperator(
        c_minus=_absent,
        c_zero=lambda s: v_fn(fam, n, s),
        c_plus=lambda s: _e_plus(fam, s),
    )


def _absent(s):
    """The coefficient of a shift an operator does not have."""
    return 0.0


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


def _h_bracket_mp_pieces(n: int, g: "StencilGrid"):
    """The two terms of the displayed bracket whose value is h_minusplus(n),
    at every grid point: (A(s+1) - sigma(s+1)/nabla x(s+1)) (A(s) - lambda_n
    Delta x(s-1/2)) and A(s+1) Theta(s)/Delta x(s)."""
    A, son, tod = (_by_offset(a) for a in (g.A(n), g.son, g.tod))
    dxm = _by_offset(g.dxm)
    p1 = (A(1) - son(1)) * (A(0) - lambda_n(g.fam.eq, n) * dxm(0))
    p2 = A(1) * tod(0)
    return p1, p2


def _h_bracket_pm_pieces(n: int, g: "StencilGrid"):
    """The two terms of the displayed bracket for h_plusminus(n), with
    B(s) = -A(s) + lambda_{2n}/[2n]_q (x(s) - beta_n), at every grid point:
    (B(s-1) + lambda_n Delta x(s-3/2)) (B(s) + sigma(s)/nabla x(s)) and
    -B(s) Theta(s-1)/Delta x(s-1)."""
    fam = g.fam
    beta = fam.ttrr_beta(n)
    L = lam_ratio(fam.eq, 2.0 * n)
    A, son, tod, xv, dxm = (_by_offset(a) for a in (g.A(n), g.son, g.tod, g.x, g.dxm))
    B = lambda k: -A(k) + L * (xv(k) - beta)
    p1 = (B(-1) + lambda_n(fam.eq, n) * dxm(-1)) * (B(0) + son(0))
    p2 = -B(0) * tod(-1)
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
        _require_nonzero_root(root, s, "Theta(s) sigma(s+1)")
        w[k + 1] = theta_eval(fam.eq, s) * w[k] / root
    for k in range(0, lo, -1):
        s = s0 + k
        root = _sqrt_ts_minus(fam, s)
        _require_nonzero_root(root, s, "Theta(s-1) sigma(s)")
        w[k - 1] = sigma_eval(fam.eq, s) * w[k] / root
    return w


def _require_nonzero_root(root, s, product: str):
    zero = np.asarray(root == 0.0)
    if zero.any():
        at = s[zero][0] if isinstance(s, np.ndarray) else s
        raise QKernelError(
            f"weight chain hit {product} = 0 at s = {at}; "
            "choose a chain away from support boundaries"
        )


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
    do not go through this class.  P_n comes from the recurrence route.
    """

    family: object

    def rho_at_s(self, s) -> complex:
        return self.family.kind.rho_at_s(self.family, s)

    def sqrt_rho(self, s):
        """sqrt(rho(s)) at a point of the real support, or elementwise on an
        ndarray of support nodes (one weight evaluation per node)."""
        if isinstance(s, np.ndarray):
            return np.array([self.sqrt_rho(t) for t in s.tolist()], dtype=complex)
        rho = self.rho_at_s(s)
        if abs(rho.imag) > 1e-12 * abs(rho) or rho.real < 0.0:
            raise QKernelError(
                f"rho({s}) is not a nonnegative real; pointwise phi needs the "
                "real branch (use PhiChain for off-support checks)"
            )
        return cmath.sqrt(rho)

    def phi(self, n: int, s) -> complex:
        return self._normalized(self.sqrt_rho(s), self.family.pn_ttrr(n, s), n)

    def phi_point(self, n: int, point) -> complex:
        """phi at a natural-coordinate point (used by Jackson-integral Grams)."""
        fam = self.family
        rho = fam.weight(point)
        return cmath.sqrt(rho) * fam.pn_ttrr(n, fam.s_from_point(point)) / fam.d_n(n)

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
        son = sigma_over_nabla(eq, s)
        tod = theta_over_delta(eq, s)
        P = lambda t: fam.pn_ttrr(n, t)
        if which == "L+":
            reduced = u_fn(fam, n, s) * P(s) + son * P(s - 1.0)
        elif which == "L-":
            reduced = v_fn(fam, n, s) * P(s) + tod * P(s + 1.0)
        elif which == "H":
            lam = lambda_n(eq, n if op_n is None else op_n)
            diag = _h_diag_at(lam, son, tod, eq.lattice.delta_x_mid(s))
            reduced = _reduced_h_at(son, tod, diag, P(s - 1.0), P(s), P(s + 1.0))
        else:
            raise QKernelError(f"unknown operator {which!r}")
        return self._normalized(self.sqrt_rho(s), reduced, n)

    def _normalized(self, w, values, n: int):
        """w values / d_n, with w = sqrt(rho): phi_n from P_n, or an operator
        applied to phi_n from its reduced stencil on P_n."""
        return _cdiv(w * values, self.family.d_n(n))


def _reduced_h_at(son, tod, diag, p_minus, p_zero, p_plus):
    """H(s,n) on P with the square roots reduced: sigma/nabla x P(s-1) +
    Theta/Delta x P(s+1) + (the I coefficient of H) P(s)."""
    return son * p_minus + tod * p_plus + diag * p_zero


# ==========================================================================
# identity checks
# ==========================================================================


# numpy turns a division by a vanishing step, an overflow or an invalid
# operation into a warning and an inf or nan residual; the scalar operators
# raise an ArithmeticError there, and so do the batched suites
_RAISE_FP = np.errstate(divide="raise", over="raise", invalid="raise")


def _by_offset(a):
    """A (... x chain offset) array centred on offset 0, as a function of
    the offset."""
    return lambda k: a[..., a.shape[-1] // 2 + round(k)]


class StencilGrid:
    """The n-independent data of the point-local suites on one check grid,
    each piece computed once, when first needed.

    Arrays are (grid point x chain offset).  `t`, `x`, `dxm` (Delta x(s-1/2)),
    `sigma`, `theta` and the chain weights `w` cover the offsets
    k = -margin..margin, column margin + k holding s + k.  The coefficients
    (`son` = sigma/nabla x and `tod` = Theta/Delta x with the removable-0/0
    limit, `e_minus`, `e_plus`, and the per-n ones) cover the inner offsets
    -(margin-1)..margin-1, as far as a three-point stencil reaches inside the
    chain.  x is evaluated once, on the half-integer offsets as well.

    Each grid point carries its own Pearson-consistent weight chain, anchored
    at w = 1 on offset 0 (the residuals checked here are local and
    1-homogeneous in the chain constant), so grids need not be integer
    chains of each other; this is how the theta-grids of the trigonometric
    lattice are handled.
    """

    def __init__(self, fam, s_grid, margin: int):
        self.fam = fam
        self.margin = margin
        pts = [complex(s) for s in s_grid]
        self.s = np.array(pts, dtype=complex)
        self.labels = tuple(f"{s:.6g}" for s in pts)  # case label of each grid point
        half = np.arange(-2 * margin - 1, 2 * margin + 2) / 2.0
        self._x_half = fam.lattice.x_values(self.s[:, None] + half)
        self.t = self.s[:, None] + np.arange(-margin, margin + 1)
        self.x = self._x_half[:, 1::2]
        self._A = {}

    @cached_property
    def dxm(self):
        xh = self._x_half[:, ::2]
        return xh[:, 1:] - xh[:, :-1]

    @cached_property
    def sigma(self):
        return _sigma_at(self.fam.eq, self.x, self.dxm)

    @cached_property
    def theta(self):
        return _theta_at(self.fam.eq, self.x, self.dxm)

    @cached_property
    def inner(self):
        return self.t[:, 1:-1]

    @cached_property
    def nabla(self):
        return self.x[:, 1:-1] - self.x[:, :-2]

    @cached_property
    def delta(self):
        return self.x[:, 2:] - self.x[:, 1:-1]

    @cached_property
    def son(self):
        return _limit_ratio(self.fam.eq, self.sigma[:, 1:-1], self.nabla, self.inner,
                            sigma_over_nabla)

    @cached_property
    def tod(self):
        return _limit_ratio(self.fam.eq, self.theta[:, 1:-1], self.delta, self.inner,
                            theta_over_delta)

    @cached_property
    def roots(self):
        """sqrt(Theta(s+k) sigma(s+k+1)) for k = -margin..margin-1: the root
        of the E^+ coefficient at s+k and of the E^- coefficient at s+k+1."""
        return _root(self.theta[:, :-1], self.sigma[:, 1:])

    @cached_property
    def e_minus(self):
        return _cdiv(self.roots[:, :-1], self.nabla)

    @cached_property
    def e_plus(self):
        return _cdiv(self.roots[:, 1:], self.delta)

    @cached_property
    def w(self):
        """The recurrence of `weight_chain` on every grid point at once."""
        m = self.margin
        root = lambda k: self.roots[:, m + k]  # sqrt(Theta(s+k) sigma(s+k+1))
        w = {0: np.ones(self.s.shape, dtype=complex)}
        for k in range(m):
            _require_nonzero_root(root(k), self.t[:, m + k], "Theta(s) sigma(s+1)")
            w[k + 1] = _cdiv(self.theta[:, m + k] * w[k], root(k))
        for k in range(0, -m, -1):
            _require_nonzero_root(root(k - 1), self.t[:, m + k], "Theta(s-1) sigma(s)")
            w[k - 1] = _cdiv(self.sigma[:, m + k] * w[k], root(k - 1))
        return np.stack([w[k] for k in range(-m, m + 1)], axis=-1)

    def A(self, n: int):
        """A(s,n) = lambda_n/[n]_q tau_n(s)/tau_n' on the inner offsets."""
        if n not in self._A:
            self._A[n] = lam_tau_ratio(self.fam.eq, n, self.inner)
        return self._A[n]

    def u(self, n: int):
        return _u_at(self.A(n), self.son)

    def v(self, n: int):
        return _v_at(self.fam, n, self.A(n), self.x[:, 1:-1], self.dxm[:, 1:-1], self.tod)

    def p(self, n: int):
        """P_n on every offset."""
        return np.broadcast_to(self.fam.pn_ttrr_x(n, self.x), self.x.shape)

    def phi(self, n: int):
        """The chain function w P_n on every offset."""
        return self.w * self.p(n)

    # H, L+ and L- on chain offsets, with the coefficients tabulated here
    def hamiltonian(self, n: int) -> ThreePointOperator:
        diag = _h_diag_at(lambda_n(self.fam.eq, n), self.son, self.tod, self.dxm[:, 1:-1])
        return ThreePointOperator(_by_offset(self.e_minus), _by_offset(diag),
                                  _by_offset(self.e_plus))

    def raising(self, n: int) -> ThreePointOperator:
        return ThreePointOperator(_by_offset(self.e_minus), _by_offset(self.u(n)), _absent)

    def lowering(self, n: int) -> ThreePointOperator:
        return ThreePointOperator(_absent, _by_offset(self.v(n)), _by_offset(self.e_plus))


@_RAISE_FP
def check_eigen(fam, ns, s_grid, tolerance: float = 1e-9) -> CheckReport:
    """H(s,n) phi_n(s) = 0 at every grid point, for each n in ns."""
    rep = CheckReport(
        suite="eigen",
        identity="H(s,n) phi_n(s) = 0 (symmetric-form difference equation)",
        family=fam.name,
        tolerance=tolerance,
    )
    return _cases_by_point(rep, StencilGrid(fam, s_grid, 1), ns, _eigen_residuals)


def _eigen_residuals(n: int, g: "StencilGrid"):
    H = g.hamiltonian(n)
    f = _by_offset(g.phi(n))
    terms = (H.c_minus(0) * f(-1), H.c_zero(0) * f(0), H.c_plus(0) * f(1))
    return rel_residual(sum(terms), terms)


def _cases_by_point(rep: CheckReport, g: "StencilGrid", ns, residuals) -> CheckReport:
    """One case per grid point and n, grid point outermost; residuals(n, g)
    gives the residuals of one n at every grid point."""
    res = {n: residuals(n, g).tolist() for n in ns}
    for i, label in enumerate(g.labels):
        for n in ns:
            rep.cases.append(CaseRecord(n, label, res[n][i]))
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


def _ladder_residuals(which: str, n: int, g: StencilGrid):
    """Residual of L+ phi_n (which "+") or L- phi_n ("-") against its
    target at every grid point."""
    fam = g.fam
    f = _by_offset(g.phi(n))
    if which == "+":
        op = g.raising(n)
        coef = fam.ttrr_alpha(n) * lam_ratio(fam.eq, 2.0 * n)
        target = coef * _by_offset(g.phi(n + 1))(0)
    else:
        op = g.lowering(n)
        coef = fam.ttrr_gamma(n) * lam_ratio(fam.eq, 2.0 * n)
        target = coef * _by_offset(g.phi(n - 1))(0) if n >= 1 else complex(0.0)
    got = op.apply(f, 0)
    return rel_residual(got - target, (got, target, op.c_zero(0) * f(0)))


@_RAISE_FP
def check_raising(fam, ns, s_grid, tolerance: float = 1e-9) -> CheckReport:
    """L+(s,n) phi_n = alpha_n lambda_{2n}/[2n]_q (d_{n+1}/d_n) phi_{n+1};
    the d-ratio enters in its cancelled form (valid at the top of finite
    families where d_{n+1} = 0)."""
    rep = CheckReport(
        suite="raising",
        identity="L+(s,n) phi_n = alpha_n lambda_{2n}/[2n]_q d_{n+1}/d_n phi_{n+1}",
        family=fam.name,
        tolerance=tolerance,
    )
    return _cases_by_point(rep, StencilGrid(fam, s_grid, 1), ns,
                           lambda n, g: _ladder_residuals("+", n, g))


@_RAISE_FP
def check_lowering(fam, ns, s_grid, tolerance: float = 1e-9) -> CheckReport:
    """L-(s,n) phi_n = gamma_n lambda_{2n}/[2n]_q (d_{n-1}/d_n) phi_{n-1}."""
    rep = CheckReport(
        suite="lowering",
        identity="L-(s,n) phi_n = gamma_n lambda_{2n}/[2n]_q d_{n-1}/d_n phi_{n-1}",
        family=fam.name,
        tolerance=tolerance,
    )
    return _cases_by_point(rep, StencilGrid(fam, s_grid, 1), ns,
                           lambda n, g: _ladder_residuals("-", n, g))


@_RAISE_FP
def check_uv_shift(fam, ns, s_grid, tolerance: float = 1e-10) -> CheckReport:
    """u(s+1,n) = v(s,n+1) (equivalently u(s+1,n-1) = v(s,n))."""
    rep = CheckReport(
        suite="uv_shift",
        identity="u(s+1,n) = v(s,n+1)",
        family=fam.name,
        tolerance=tolerance,
    )
    g = StencilGrid(fam, s_grid, 2)
    for n in ns:
        uu = _by_offset(g.u(n))(1)
        vv = _by_offset(g.v(n + 1))(0)
        for label, r in zip(g.labels, rel_residual(uu - vv, (uu, vv)).tolist()):
            rep.cases.append(CaseRecord(n, label, r))
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


@_RAISE_FP
def check_h_s_independence(fam, ns, s_grid, tolerance: float = 1e-10) -> CheckReport:
    """The displayed brackets for h-+(n) and h+-(n) are independent of s and
    equal the gamma/alpha closed values."""
    rep = CheckReport(
        suite="h_s_independence",
        identity="s-independence of the bracket expansions of h-+ and h+-",
        family=fam.name,
        tolerance=tolerance,
    )
    g = StencilGrid(fam, s_grid, 2)
    for n in ns:
        hm = h_minusplus(fam, n)
        p1, p2 = _h_bracket_mp_pieces(n, g)
        # the scale is what had to cancel, so a degenerately zero h
        # (top of a finite family) is not divided by its own noise
        for label, r in zip(g.labels, rel_residual(p1 + p2 - hm, (p1, p2, hm)).tolist()):
            rep.cases.append(CaseRecord(n, label, r, "minusplus"))
        if n >= 1:
            hp = h_plusminus(fam, n)
            p1, p2 = _h_bracket_pm_pieces(n, g)
            for label, r in zip(g.labels, rel_residual(p1 + p2 - hp, (p1, p2, hp)).tolist()):
                rep.cases.append(CaseRecord(n, label, r, "plusminus"))
    return rep


@_RAISE_FP
def check_factorization(fam, ns, s_grid, tolerance: float = 1e-9) -> CheckReport:
    """Both factorizations on probe functions (monomials x^j, j <= 3, plus
    the chain phi_n):

        L-(s,n+1) L+(s,n) - h-+(n) I - u(s+1,n) H(s,n)  = 0,
        L+(s,n) L-(s,n+1) - h-+(n) I - u(s,n)  H(s,n+1) = 0.

    The operators act on chain offsets of a StencilGrid, the grid point s
    being offset 0, so each `_apply_scaled` call forms every probe at every
    grid point at once.
    """
    rep = CheckReport(
        suite="factorization",
        identity="u(s+1,n) H(s,n) = L-(s,n+1) L+(s,n) - h(n) I  and  "
        "u(s,n) H(s,n+1) = L+(s,n) L-(s,n+1) - h(n) I",
        family=fam.name,
        tolerance=tolerance,
    )
    g = StencilGrid(fam, s_grid, 2)
    monomials = [g.x ** j for j in range(4)]
    for n in ns:
        Lp, Lm = g.raising(n), g.lowering(n + 1)
        Hn, Hn1 = g.hamiltonian(n), g.hamiltonian(n + 1)
        h = h_minusplus(fam, n)
        f = _by_offset(np.stack(monomials + [g.phi(n)]))  # (probe, grid point, offset)
        tags = [f"x^{j}" for j in range(4)] + [f"phi_{n}"]
        t1, sc1 = _apply_scaled(Lm, Lp.applied(f), 0, inner=(Lp, f))
        t2 = h * f(0)
        hf, schf = _apply_scaled(Hn, f, 0)
        u1 = Lp.c_zero(1)
        t3 = u1 * hf
        minus_plus = abs(t1 - t2 - t3) / _largest((sc1, abs(t2), abs(u1) * schf, 1e-300))
        t1, sc1 = _apply_scaled(Lp, Lm.applied(f), 0, inner=(Lm, f))
        hf, schf = _apply_scaled(Hn1, f, 0)
        u0 = Lp.c_zero(0)
        t3 = u0 * hf
        plus_minus = abs(t1 - t2 - t3) / _largest((sc1, abs(t2), abs(u0) * schf, 1e-300))
        minus_plus, plus_minus = minus_plus.T.tolist(), plus_minus.T.tolist()
        for i, label in enumerate(g.labels):
            for j, tag in enumerate(tags):
                rep.cases.append(CaseRecord(n, label, minus_plus[i][j], f"minus-plus {tag}"))
                rep.cases.append(CaseRecord(n, label, plus_minus[i][j], f"plus-minus {tag}"))
    return rep


def _largest(values):
    """Elementwise maximum of nonnegative numbers or arrays (0 for none)."""
    return reduce(np.maximum, values, 0.0)


def _apply_scaled(op: ThreePointOperator, f, s, inner=None):
    """(Op f)(s) together with the magnitude of the largest product formed,
    i.e. the scale at which rounding noise enters the cancellation.  With
    `inner = (InnerOp, g)`, f must be InnerOp.applied(g) and the inner
    stencil scales are propagated through the outer coefficients.  Like
    ThreePointOperator.apply it also takes the chain offsets of a
    StencilGrid's operators, and is then elementwise."""
    pieces = []
    for shift, coef in ((-1.0, op.c_minus), (0.0, op.c_zero), (1.0, op.c_plus)):
        cv = coef(s)
        if not np.any(cv != 0.0):
            continue
        pieces.append((cv, f(s + shift), shift))
    val = sum(cv * fv for cv, fv, _ in pieces)
    scale = _largest(abs(cv * fv) for cv, fv, _ in pieces)
    if inner is not None:
        iop, g = inner
        for cv, _, shift in pieces:
            isc = _largest(
                abs(ic(s + shift) * g(s + shift + ish))
                for ish, ic in ((-1.0, iop.c_minus), (0.0, iop.c_zero), (1.0, iop.c_plus))
            )
            scale = _largest((scale, abs(cv) * isc))
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
            val = u_fn(fam, n, s) * cur[k] + _e_minus(fam, s) * cur[k - 1]
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


@_RAISE_FP
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
    boundary condition (negative control).  One pass over the support: the
    weight, each phi_k and each H(.,n) phi_k are evaluated once on the node
    array.  Pairs beyond a finite family are out-of-range cases."""
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
    g = StencilGrid(fam, grid, 1)  # the nodes with their neighbours s - 1, s + 1
    w = of.sqrt_rho(g.s)
    son, tod, dxm = g.son[:, 0], g.tod[:, 0], g.dxm[:, 1]
    P, diag, phi, hphi = {}, {}, {}, {}  # P_k at s-1, s, s+1; phi_k, H(.,n) phi_k
    for n, m in pairs:
        if fam.n_max is not None and max(n, m) > fam.n_max:
            rep.cases.append(CaseRecord(n, f"m={m}", 0.0,
                                        "out-of-range: phi_k beyond finite family"))
            continue
        if n not in diag:
            diag[n] = _h_diag_at(lambda_n(fam.eq, n), son, tod, dxm)
        for k in (n, m):
            if k not in P:
                P[k] = g.p(k).T
                phi[k] = of._normalized(w, P[k][1], k)
            if (n, k) not in hphi:
                hphi[n, k] = of._normalized(w, _reduced_h_at(son, tod, diag[n], *P[k]), k)
        ta = phi[m] * hphi[n, n]
        tb = phi[n] * hphi[n, m]
        a, b = ta.sum(), tb.sum()
        terms_scale = max(np.max(np.abs(ta), initial=0.0), np.max(np.abs(tb), initial=0.0))
        scale = max(abs(a), abs(b), terms_scale, 1e-30)
        rep.cases.append(CaseRecord(n, f"m={m}", float(abs(a - b) / scale)))
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
