"""Orthonormal functions phi_n, the three-point operators H, L+, L-, the
scalar functions u and v, factorization constants, and the identity checks
built from them.

Operators are three-point stencils

    (Op f)(s) = c_minus(s) f(s-1) + c_zero(s) f(s) + c_plus(s) f(s+1)

with coefficients built from sigma, Theta = sigma + tau * Delta x(s-1/2) and
the principal square root of the *product* Theta(s-1) sigma(s) (resp.
Theta(s) sigma(s+1)).  Evaluating the product first fixes one branch for
every family, including complex lattice coordinates.

`StencilGrid` is the one implementation of these coefficients.  It tabulates
x, the steps, sigma, Theta, the limit-aware ratios, the principal roots, the
E^- and E^+ coefficients, u, v, the H diagonal and the chain weights on
(grid point x chain offset) arrays, and every suite reads them there: a
suite that needs the coefficients at a few points takes a grid on them
from `StencilGrid.shared`, which keeps one grid per family and distinct
(points, margin), so the suites of one run share them.  The n-dependent
constants come from the family's per-n table (`FamilySpec.coeffs`).
Quotients of those arrays round as Python's complex division does
(`lattice._cdiv`).

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
from dataclasses import dataclass
from functools import cached_property, reduce, wraps

import numpy as np

from .hypergeometric_core import _entry, _limit_ratio, _sigma_at, _theta_at, rel_residual
from .lattice import _cdiv
from .orthogonality import InnerProductSpec, discrete_inner
from .qkernel import QKernelError
from .report import CaseRecord, CheckReport

__all__ = [
    "ThreePointOperator",
    "OrthonormalFamily",
    "h_minusplus",
    "h_plusminus",
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


def _sqrt(z):
    """The principal square root, elementwise for an ndarray."""
    return np.sqrt(z) if isinstance(z, np.ndarray) else cmath.sqrt(z)


def _absent(s):
    """The coefficient of a shift an operator does not have."""
    return 0.0


def h_minusplus(fam, n: int) -> complex:
    """h(n) in L-(s,n+1) L+(s,n) = h(n) I + u(s+1,n) H(s,n):
    lambda_{2n}/[2n]_q * lambda_{2n+2}/[2n+2]_q * alpha_n gamma_{n+1}."""
    t = fam.coeffs
    return t.lam_ratio(2.0 * n) * t.lam_ratio(2.0 * n + 2.0) * t.alpha(n) * t.gamma(n + 1)


def h_plusminus(fam, n: int) -> complex:
    """h(n) in L+(s,n-1) L-(s,n) = h(n) I + u(s,n-1) H(s,n):
    lambda_{2n-2}/[2n-2]_q * lambda_{2n}/[2n]_q * alpha_{n-1} gamma_n, which
    is h_minusplus(n-1)."""
    if n < 1:
        raise QKernelError("h_plusminus needs n >= 1")
    return h_minusplus(fam, n - 1)


def _h_bracket_mp_pieces(n: int, g: "StencilGrid"):
    """The two terms of the displayed bracket whose value is h_minusplus(n),
    at every grid point: (A(s+1) - sigma(s+1)/nabla x(s+1)) (A(s) - lambda_n
    Delta x(s-1/2)) and A(s+1) Theta(s)/Delta x(s)."""
    A, dxm = _by_offset(g.A(n)), _by_offset(g.dxm)
    son, tod = g.plus_side(g.son), g.minus_side(g.tod)
    p1 = (A(1) - son(1)) * (A(0) - g.fam.coeffs.lambda_n(n) * dxm(0))
    p2 = A(1) * tod(0)
    return p1, p2


def _h_bracket_pm_pieces(n: int, g: "StencilGrid"):
    """The two terms of the displayed bracket for h_plusminus(n), with
    B(s) = -A(s) + lambda_{2n}/[2n]_q (x(s) - beta_n), at every grid point:
    (B(s-1) + lambda_n Delta x(s-3/2)) (B(s) + sigma(s)/nabla x(s)) and
    -B(s) Theta(s-1)/Delta x(s-1)."""
    t = g.fam.coeffs
    beta = t.beta(n)
    L = t.lam_ratio(2.0 * n)
    A, xv, dxm = (_by_offset(a) for a in (g.A(n), g.x, g.dxm))
    son, tod = g.plus_side(g.son), g.minus_side(g.tod)
    B = lambda k: -A(k) + L * (xv(k) - beta)
    p1 = (B(-1) + t.lambda_n(n) * dxm(-1)) * (B(0) + son(0))
    p2 = -B(0) * tod(-1)
    return p1, p2


# ==========================================================================
# orthonormal family (pointwise, closed-form weight on the real support)
# ==========================================================================


@dataclass
class OrthonormalFamily:
    """phi_n = sqrt(rho/d_n^2) P_n with the family's closed-form weight.

    Pointwise phi values require rho >= 0 (real support); chain-based checks
    do not go through this class.  P_n comes from the recurrence route.
    Every method takes one point or an ndarray of support nodes, with one
    weight evaluation per node; `phi` and `phi_point` take n as one index or
    as a range, which stacks phi_n for n in the range on a leading axis from
    one recurrence pass.
    """

    family: object

    def rho_at_s(self, s) -> complex:
        return self.family.kind.rho_at_s(self.family, s)

    def sqrt_rho(self, s):
        """sqrt(rho(s)) at a point of the real support, or elementwise on an
        ndarray of support nodes."""
        rho = self.rho_at_s(s)
        bad = (np.abs(rho.imag) > 1e-12 * np.abs(rho)) | (rho.real < 0.0)
        if np.any(bad):
            at = s[bad][0] if isinstance(s, np.ndarray) else s
            raise QKernelError(
                f"rho({at}) is not a nonnegative real; pointwise phi needs the "
                "real branch (off the support the checks use chain weights)"
            )
        return _sqrt(rho)

    def phi(self, n, s):
        """phi_n at support points s (n an index or a range)."""
        return self._phi(n, self.sqrt_rho(s), self.family.lattice.x_values(s))

    def phi_point(self, n, point):
        """phi_n at natural-coordinate points (n an index or a range; used
        by Jackson-integral Grams)."""
        fam = self.family
        w = _sqrt(fam.weight(point))
        return self._phi(n, w, fam.lattice.x_values(fam.s_from_point(point)))

    def _phi(self, n, w, x):
        fam = self.family
        if not isinstance(n, range):
            return self._normalized(w, fam.pn_ttrr_x(n, x), n)
        P = fam.pn_stack(n[-1], x)
        d = np.array([fam.d_n(k) for k in n]).reshape((-1,) + (1,) * np.ndim(x))
        return _cdiv(w * np.asarray(P)[n.start:n.stop:n.step], d)

    # reduced operator application: valid where sigma, Theta, rho >= 0 on the
    # support (discrete sums); uses the limit-aware ratios so boundary points
    # with sigma(a) = nabla x(a) = 0 evaluate cleanly.
    def apply_reduced(self, which: str, n: int, s, op_n: int | None = None) -> complex:
        """(Op phi_n)(s) with the square roots reduced through the Pearson
        relation: sqrt(Theta(s-1)sigma(s)) sqrt(rho(s-1)) = sigma(s) sqrt(rho(s))
        for nonnegative sigma, Theta, rho on the support.  `op_n` is the
        operator's eigen-parameter (defaults to the function index n); only
        H distinguishes the two."""
        reduced = _reduced(which, n, StencilGrid.shared(self.family, np.atleast_1d(s), 1), op_n)
        if not isinstance(s, np.ndarray):
            reduced = complex(reduced[0])
        return self._normalized(self.sqrt_rho(s), reduced, n)

    def _normalized(self, w, values, n: int):
        """w values / d_n, with w = sqrt(rho): phi_n from P_n, or an operator
        applied to phi_n from its reduced stencil on P_n."""
        return _cdiv(w * values, self.family.d_n(n))


def _reduced(which: str, n: int, g: "StencilGrid", op_n: int | None = None):
    """The reduced stencil of L+, L- or H(., op_n) on P_n at the points of a
    margin-1 StencilGrid (see `OrthonormalFamily.apply_reduced`): the square
    roots reduce to sigma/nabla x on P_n(s-1) and Theta/Delta x on P_n(s+1)."""
    P = g.p(n).T  # P_n at s - 1, s, s + 1
    son, tod = g.son[:, 0], g.tod[:, 0]
    if which == "L+":
        return g.u(n)[:, 0] * P[1] + son * P[0]
    if which == "L-":
        return g.v(n)[:, 0] * P[1] + tod * P[2]
    if which == "H":
        return son * P[0] + tod * P[2] + g.h_diag(n if op_n is None else op_n) * P[1]
    raise QKernelError(f"unknown operator {which!r}")


# ==========================================================================
# identity checks
# ==========================================================================


# numpy turns a division by a vanishing step, an overflow or an invalid
# operation into a warning and an inf or nan residual; Python's complex
# arithmetic raises an ArithmeticError there, and so do the suites
_RAISE_FP = np.errstate(divide="raise", over="raise", invalid="raise")


def _by_offset(a, first: int | None = None):
    """A (... x chain offset) array as a function of the offset, its column 0
    holding offset `first` (by default the array is centred on offset 0)."""
    if first is None:
        first = -(a.shape[-1] // 2)

    def at(k):
        i = round(k) - first
        if not 0 <= i < a.shape[-1]:
            raise IndexError(f"chain offset {k} was not evaluated")
        return a[..., i]

    return at


def _chain_weights(theta, sigma, up, down, t, anchor: int):
    """Chain weights along the last axis, w = 1 on column `anchor`:

        sqrt(Theta(s) sigma(s+1)) w(s+1) = Theta(s) w(s)  and
        sqrt(Theta(s-1) sigma(s)) w(s-1) = sigma(s) w(s),

    so w^2 solves the Pearson ratio recurrence and every square-root branch
    agrees with the operator coefficients.  Column c of `up` and of `down` is
    sqrt(Theta sigma) between columns c and c + 1 of theta, sigma and the
    points t, evaluated from the lower and from the upper point."""
    last = theta.shape[-1] - 1
    w = {anchor: np.ones(theta.shape[:-1], dtype=complex)}
    for c in range(anchor, last):
        _require_nonzero_root(up[..., c], t[..., c], "Theta(s) sigma(s+1)")
        w[c + 1] = _cdiv(theta[..., c] * w[c], up[..., c])
    for c in range(anchor, 0, -1):
        _require_nonzero_root(down[..., c - 1], t[..., c], "Theta(s-1) sigma(s)")
        w[c - 1] = _cdiv(sigma[..., c] * w[c], down[..., c - 1])
    return np.stack([w[c] for c in range(last + 1)], axis=-1)


def _require_nonzero_root(root, s, product: str):
    zero = root == 0.0
    if zero.any():
        raise QKernelError(
            f"weight chain hit {product} = 0 at s = {s[zero][0]}; "
            "choose a chain away from support boundaries"
        )


def _frozen(a):
    """a, marked read-only: a grid's arrays are read by every suite that
    shares the grid, so none may change one under another."""
    a.flags.writeable = False
    return a


# A grid's arrays are computed under _RAISE_FP whichever suite reads them
# first, so a shared array is the same, or raises the same, for every suite.
def _grid_array(fn):
    """A StencilGrid array, computed on first read and read-only."""
    return cached_property(wraps(fn)(_RAISE_FP(lambda self: _frozen(fn(self)))))


def _per_n(fn):
    """A StencilGrid array of one n, computed on first read and read-only."""
    return _entry(wraps(fn)(_RAISE_FP(lambda self, n: _frozen(fn(self, n)))))


class StencilGrid:
    """The coefficients of H, L+ and L- on one check grid, each piece
    computed once, when first needed.

    Arrays are (grid point x chain offset).  `t`, `x`, `dxm` (Delta x(s-1/2)),
    `sigma`, `theta` and the chain weights `w` cover the offsets
    k = -margin..margin, column margin + k holding s + k; column c of `roots`
    is sqrt(Theta sigma) between columns c and c + 1 of those.  Each
    coefficient covers only the offsets a stencil of the suites reads, so the
    grid divides by a lattice step exactly where a point-by-point stencil
    would: the L+ side (`nabla`, `son` = sigma/nabla x with the removable-0/0
    limit, `e_minus`, `u`) on offsets 0..margin-1, the L- side (`delta`,
    `tod` = Theta/Delta x, `e_plus`, `v`) on -(margin-1)..0, A(s,n) on
    -(margin-1)..margin-1 and the H diagonal on offset 0.  `plus_side` and
    `minus_side` index the two sides by offset.  x is evaluated once, on the
    half-integer offsets as well.  Per n the grid keeps A(s,n), u, v, the H
    diagonal, P_n and the chain function w P_n; P_0..P_n come from one
    recurrence pass on x, continued when a higher n is first read, and the
    n-dependent constants from the family's per-n table (`fam.coeffs`).

    The suites take their grids from `StencilGrid.shared`, one per family
    and distinct (points, margin), so suites on the same points and margin
    read one grid, and the first of them pays for each piece.  The margin is
    part of the key because it fixes the offsets each coefficient covers.
    Every array a grid keeps is read-only.

    Each grid point carries its own Pearson-consistent weight chain, anchored
    at w = 1 on offset 0 (the residuals checked here are local and
    1-homogeneous in the chain constant), so grids need not be integer
    chains of each other; this is how the theta-grids of the trigonometric
    lattice are handled.
    """

    @_RAISE_FP
    def __init__(self, fam, s_grid, margin: int):
        self.fam = fam
        self.margin = margin
        pts = [complex(s) for s in s_grid]
        self.s = _frozen(np.array(pts, dtype=complex))
        self.labels = tuple(f"{s:.6g}" for s in pts)  # case label of each grid point
        half = np.arange(-2 * margin - 1, 2 * margin + 2) / 2.0
        self._x_half = _frozen(fam.lattice.x_values(self.s[:, None] + half))
        self.t = _frozen(self.s[:, None] + np.arange(-margin, margin + 1))
        self.x = self._x_half[:, 1::2]
        self._memo = {}  # the per-n arrays
        self._monic = ()  # monic P_0, P_1, .. on x, as far as read
        m = margin
        self._plus = slice(m, 2 * m)  # columns of the L+ offsets 0..m-1
        self._minus = slice(1, m + 1)  # columns of the L- offsets -(m-1)..0

    @classmethod
    def shared(cls, fam, s_grid, margin: int) -> "StencilGrid":
        """The grid of `fam` on these points with this margin, built on the
        first request and kept in the family's private cache."""
        pts = tuple(complex(s) for s in s_grid)
        key = ("grid", pts, margin)
        grid = fam._cache.get(key)
        if grid is None:
            grid = fam._cache[key] = cls(fam, pts, margin)
        return grid

    def plus_side(self, a):
        """An L+-side array as a function of the offset."""
        return _by_offset(a, 0)

    def minus_side(self, a):
        """An L--side array as a function of the offset."""
        return _by_offset(a, 1 - self.margin)

    @_grid_array
    def dxm(self):
        xh = self._x_half[:, ::2]
        return xh[:, 1:] - xh[:, :-1]

    @_grid_array
    def sigma(self):
        return _sigma_at(self.fam.eq, self.x, self.dxm)

    @_grid_array
    def theta(self):
        return _theta_at(self.fam.eq, self.x, self.dxm)

    @_grid_array
    def nabla(self):
        """nabla x(s) = x(s) - x(s-1) on the L+ offsets."""
        m = self.margin
        return self.x[:, self._plus] - self.x[:, m - 1:2 * m - 1]

    @_grid_array
    def delta(self):
        """Delta x(s) = x(s+1) - x(s) on the L- offsets."""
        m = self.margin
        return self.x[:, 2:m + 2] - self.x[:, self._minus]

    @_grid_array
    def son(self):
        return _limit_ratio(self.fam.eq, self.sigma[:, self._plus], self.nabla,
                            self.t[:, self._plus], -1)

    @_grid_array
    def tod(self):
        return _limit_ratio(self.fam.eq, self.theta[:, self._minus], self.delta,
                            self.t[:, self._minus], 1)

    @_grid_array
    def roots(self):
        """sqrt(Theta(s+k) sigma(s+k+1)) for k = -margin..margin-1, the
        principal root of the product: the root of the E^+ coefficient at
        s+k and of the E^- coefficient at s+k+1."""
        return np.sqrt(self.theta[:, :-1] * self.sigma[:, 1:])

    @_grid_array
    def e_minus(self):
        """The E^- coefficient of H and L+, sqrt(Theta(s-1) sigma(s))/nabla x(s),
        on the L+ offsets."""
        m = self.margin
        return _cdiv(self.roots[:, m - 1:2 * m - 1], self.nabla)

    @_grid_array
    def e_plus(self):
        """The E^+ coefficient of H and L-, sqrt(Theta(s) sigma(s+1))/Delta x(s),
        on the L- offsets."""
        return _cdiv(self.roots[:, self._minus], self.delta)

    @_grid_array
    def w(self):
        """The chain weights of every grid point, w = 1 on offset 0."""
        return _chain_weights(self.theta, self.sigma, self.roots, self.roots, self.t,
                              self.margin)

    @_per_n
    def A(self, n: int):
        """A(s,n) = lambda_n/[n]_q tau_n(s)/tau_n' on offsets -(margin-1)..margin-1;
        the n = 0 value by the continuation of lam_ratio."""
        return self.fam.coeffs.A(n, self.t[:, 1:-1])

    @_per_n
    def u(self, n: int):
        """u(s,n) = A(s,n) - sigma(s)/nabla x(s) on the L+ offsets."""
        return self.A(n)[:, self.margin - 1:] - self.son

    @_per_n
    def v(self, n: int):
        """v(s,n) = -A(s,n) + lambda_n Delta x(s-1/2) + lambda_{2n}/[2n]_q
        (x(s) - beta_n) - Theta(s)/Delta x(s) on the L- offsets."""
        t, cols = self.fam.coeffs, self._minus
        return (
            -self.A(n)[:, :self.margin]
            + t.lambda_n(n) * self.dxm[:, cols]
            + t.lam_ratio(2.0 * n) * (self.x[:, cols] - t.beta(n))
            - self.tod
        )

    @_per_n
    def h_diag(self, n: int):
        """The I coefficient of H(s,n) on offset 0:
        -(Theta/Delta x + sigma/nabla x - lambda_n Delta x(s-1/2))."""
        lam = self.fam.coeffs.lambda_n(n)
        return -(self.tod[:, -1] + self.son[:, 0] - lam * self.dxm[:, self.margin])

    @_per_n
    def p(self, n: int):
        """P_n on every offset."""
        fam = self.fam
        self._monic = rows = fam.monic_rows(n, self.x, self._monic)
        return np.broadcast_to(rows[n] * fam.coeffs.a_n(n), self.x.shape)

    @_per_n
    def phi(self, n: int):
        """The chain function w P_n on every offset."""
        return self.w * self.p(n)

    # H(s,n) = E^- coefficient E^- + E^+ coefficient E^+ + (H diagonal) I,
    # L+(s,n) = u(s,n) I + E^- coefficient E^-, L-(s,n) = v(s,n) I + E^+
    # coefficient E^+, on chain offsets
    def hamiltonian(self, n: int) -> ThreePointOperator:
        return ThreePointOperator(self.plus_side(self.e_minus),
                                  _by_offset(self.h_diag(n)[:, None], 0),
                                  self.minus_side(self.e_plus))

    def raising(self, n: int) -> ThreePointOperator:
        return ThreePointOperator(self.plus_side(self.e_minus), self.plus_side(self.u(n)),
                                  _absent)

    def lowering(self, n: int) -> ThreePointOperator:
        return ThreePointOperator(_absent, self.minus_side(self.v(n)),
                                  self.minus_side(self.e_plus))


@_RAISE_FP
def check_eigen(fam, ns, s_grid, tolerance: float = 1e-9) -> CheckReport:
    """H(s,n) phi_n(s) = 0 at every grid point, for each n in ns."""
    rep = CheckReport(
        suite="eigen",
        identity="H(s,n) phi_n(s) = 0 (symmetric-form difference equation)",
        family=fam.name,
        tolerance=tolerance,
    )
    return _cases_by_point(rep, StencilGrid.shared(fam, s_grid, 1), ns, _eigen_residuals)


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


def check_ttrr_phi(fam, ns, s_grid, tolerance: float = 1e-9) -> CheckReport:
    """alpha_n (d_{n+1}/d_n) phi_{n+1} + gamma_n (d_{n-1}/d_n) phi_{n-1}
    + (beta_n - x) phi_n = 0; the norm ratios cancel against the phi
    normalizations, so the check runs on chain functions.  P_0..P_{n+1} come
    from the recurrence pass of the margin-1 grid on the points."""
    rep = CheckReport(
        suite="ttrr_phi",
        identity="alpha_n d_{n+1}/d_n phi_{n+1} + gamma_n d_{n-1}/d_n phi_{n-1}"
        " + (beta_n - x) phi_n = 0",
        family=fam.name,
        tolerance=tolerance,
    )
    g = StencilGrid.shared(fam, s_grid, 1)
    t, x = fam.coeffs, g.x[:, 1]
    P = lambda k: g.p(k)[:, 1] if k >= 0 else 0.0  # P_{-1} = 0
    for n in ns:
        terms = (
            t.alpha(n) * P(n + 1),
            t.gamma(n) * (P(n - 1) if n >= 1 else 0.0),
            (t.beta(n) - x) * P(n),
        )
        for label, r in zip(g.labels, rel_residual(sum(terms), terms).tolist()):
            rep.cases.append(CaseRecord(n, label, r))
    return rep


def _ladder_residuals(which: str, n: int, g: StencilGrid):
    """Residual of L+ phi_n (which "+") or L- phi_n ("-") against its
    target at every grid point."""
    t = g.fam.coeffs
    f = _by_offset(g.phi(n))
    if which == "+":
        op = g.raising(n)
        coef = t.alpha(n) * t.lam_ratio(2.0 * n)
        target = coef * _by_offset(g.phi(n + 1))(0)
    else:
        op = g.lowering(n)
        coef = t.gamma(n) * t.lam_ratio(2.0 * n)
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
    return _cases_by_point(rep, StencilGrid.shared(fam, s_grid, 1), ns,
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
    return _cases_by_point(rep, StencilGrid.shared(fam, s_grid, 1), ns,
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
    g = StencilGrid.shared(fam, s_grid, 2)
    for n in ns:
        uu = g.plus_side(g.u(n))(1)
        vv = g.minus_side(g.v(n + 1))(0)
        for label, r in zip(g.labels, rel_residual(uu - vv, (uu, vv)).tolist()):
            rep.cases.append(CaseRecord(n, label, r))
    return rep


def check_h_remark(fam, ns, tolerance: float = 1e-12) -> CheckReport:
    """h_plusminus(n+1) = h_minusplus(n).  The closed form has one copy, and
    h_plusminus(n+1) is h_minusplus(n), so this is the index identity of
    that closed form and its residual is exactly 0; check_h_s_independence
    tests h-+ and h+- against their bracket expansions."""
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
    g = StencilGrid.shared(fam, s_grid, 2)
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
    g = StencilGrid.shared(fam, s_grid, 2)
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


@_RAISE_FP
def ladder_bootstrap(of: OrthonormalFamily, N: int, s_grid) -> dict:
    """Solve L-(s,0) phi_0 = 0 as the ratio recurrence

        phi_0(s+1) = -v(s,0) Delta x(s) phi_0(s) / sqrt(Theta(s) sigma(s+1)),

    normalize phi_0 at the first grid point, then climb with the raising
    operator.  Returns {n: {offset: value}} on the grid chain."""
    return _bootstrap(of, N, s_grid)[0]


def _chain(s_grid, N: int):
    """The bootstrap chain of a grid: its anchor s0 = s_grid[0], the offsets
    of the grid points from s0 and the first chain offset (the raising climb
    consumes one left point per level)."""
    s0 = complex(s_grid[0])
    offs = [round((complex(s) - s0).real) for s in s_grid]
    return s0, offs, min(offs) - N


def _bootstrap(of: OrthonormalFamily, N: int, s_grid):
    """The bootstrap table and the margin-1 StencilGrid on the chain points
    s0 + lo .. s0 + max(offsets)."""
    fam = of.family
    if N < 0:
        raise QKernelError("bootstrap needs N >= 0")
    s0, offs, lo = _chain(s_grid, N)
    hi = max(offs)
    g = StencilGrid.shared(fam, [s0 + k for k in range(lo, hi + 1)], 1)
    # phi_0 from L-(s,0) phi_0 = 0 at every chain point but the last
    root = g.roots[:-1, 1]  # sqrt(Theta(s) sigma(s+1))
    if np.any(root == 0.0):
        at = complex(g.s[:-1][root == 0.0][0])
        raise QKernelError(f"bootstrap ratio degenerate at s = {at}")
    vals = [complex(1.0)]
    for step, r in zip((-g.v(0)[:-1, 0] * g.delta[:-1, 0]).tolist(), root.tolist()):
        vals.append(step * vals[-1] / r)
    # normalize at the first grid point against the direct phi_0
    i0 = offs[0] - lo
    anchor = of.phi(0, s0) if _pointwise_branch_consistent(of, g, [i0]) else complex(1.0)
    scale = anchor / vals[i0] if vals[i0] != 0 else complex(1.0)
    cur = np.array([v * scale for v in vals])  # phi_n on the chain offsets n + lo .. hi
    table = {0: dict(zip(range(lo, hi + 1), cur.tolist()))}
    # L+ acts on every chain point but the first, on a grid of its own: E^-
    # is not evaluated at the first point, which may be a lattice symmetry
    # point where nabla x vanishes
    up = StencilGrid.shared(fam, g.s[1:], 1)
    for n in range(N):
        coef = fam.coeffs.alpha(n) * fam.coeffs.lam_ratio(2.0 * n)
        dr = _d_ratio_up(fam, n)
        val = up.u(n)[n:, 0] * cur[1:] + up.e_minus[n:, 0] * cur[:-1]
        cur = _cdiv(val, coef * dr if dr is not None else coef)
        table[n + 1] = dict(zip(range(lo + n + 1, hi + 1), cur.tolist()))
    return table, g


def _phi_pointwise_ok(of: OrthonormalFamily, s) -> bool:
    try:
        rho = of.rho_at_s(s)
    except Exception:
        return False
    return abs(rho.imag) <= 1e-12 * abs(rho) and rho.real > 0.0


def _pointwise_branch_consistent(of: OrthonormalFamily, g: StencilGrid, rows) -> bool:
    """Whether the positive pointwise sqrt(rho) satisfies the same branch
    relations as the principal-root chain at the given points of a margin-1
    grid: needs sigma(s) >= 0 and Theta(s) >= 0 (real) across the span.
    Where Theta < 0 (Al-Salam--Carlitz with a < 0) the chain continuation
    alternates sign against pointwise sqrt(rho) and is the branch the
    operators pair with."""

    def nonneg(z):
        z = complex(z)
        return abs(z.imag) <= 1e-10 * max(1.0, abs(z)) and z.real >= -1e-12 * max(1.0, abs(z))

    return all(_phi_pointwise_ok(of, complex(g.s[i])) and nonneg(g.sigma[i, 1])
               and nonneg(g.theta[i, 1]) for i in rows)


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


@_RAISE_FP
def check_bootstrap(of: OrthonormalFamily, N: int, s_grid, tolerance: float = 1e-8) -> CheckReport:
    """Bootstrapped phi_n match direct phi_n up to one constant per level,
    fixed at the first grid point.  The direct phi_n are the pointwise ones
    where their branch agrees with the chain's, else the chain weights times
    P_n, both on the bootstrap's chain grid."""
    fam = of.family
    rep = CheckReport(
        suite="bootstrap",
        identity="phi_0 from L-(s,0) phi_0 = 0, then phi_{n+1} from L+(s,n)",
        family=fam.name,
        tolerance=tolerance,
    )
    table, g = _bootstrap(of, N, s_grid)
    s0, offs, lo = _chain(s_grid, N)
    rows = [k - lo for k in offs]
    if _pointwise_branch_consistent(of, g, range(len(g.s))):
        direct = of.phi(range(N + 1), g.s[rows])
    else:
        # one chain through the grid points, anchored at s0; a link going up
        # is read at its lower point, one going down at its upper point
        theta, sigma = g.theta[None, :, 1], g.sigma[None, :, 1]
        up, down = g.roots[None, :-1, 1], g.roots[None, 1:, 0]
        w = _chain_weights(theta, sigma, up, down, g.s[None, :], -lo)[0]
        direct = w[rows] * np.stack([g.p(n)[rows, 1] for n in range(N + 1)])
    for n in range(N + 1):
        direct_n = dict(zip(offs, direct[n].tolist()))
        got = table[n]
        k0 = next(k for k in offs if abs(direct_n[k]) > 1e-14)
        const = got[k0] / direct_n[k0]
        scale = max(max(abs(v) for v in direct_n.values()), 1e-30)
        for k in offs:
            rep.cases.append(CaseRecord(
                n, f"{s0 + k:.6g}", abs(got[k] - const * direct_n[k]) / (abs(const) * scale)))
    return rep


@_RAISE_FP
def check_adjoint(of: OrthonormalFamily, ns, tolerance: float = 1e-8) -> CheckReport:
    """Mutual adjointness on a finite discrete support:

        sum phi_{n+1} [[2n]_q/lambda_{2n} L+ phi_n] Delta x(s-1/2)
          = sum [[2n+2]_q/lambda_{2n+2} L- phi_{n+1}] phi_n Delta x(s-1/2)
          = alpha_n d_{n+1}/d_n.

    One pass over the support: the weight is evaluated once per node, and
    phi_k and the reduced L+ phi_n, L- phi_{n+1} once on the node array."""
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
    grid = fam.support.grid_points
    spec = InnerProductSpec(fam.lattice, tuple(grid))
    g = StencilGrid.shared(fam, grid, 1)  # the nodes with s - 1, s + 1
    t = fam.coeffs
    w = of.sqrt_rho(g.s)
    phi = lambda k: of._normalized(w, g.p(k)[:, 1], k)  # phi_k on the nodes
    for n in ns:
        if fam.n_max is not None and n + 1 > fam.n_max:
            rep.cases.append(CaseRecord(n, "-", 0.0, "out-of-range: phi_{n+1} beyond finite family"))
            continue
        dr = _d_ratio_up(fam, n)
        if dr is None:
            rep.cases.append(CaseRecord(n, "-", 0.0, "out-of-range: d_{n+1} vanishes"))
            continue
        target = t.alpha(n) * dr
        raised = of._normalized(w, _reduced("L+", n, g), n)
        lowered = of._normalized(w, _reduced("L-", n + 1, g), n + 1)
        s1 = discrete_inner(spec, lambda _: phi(n + 1), lambda _: raised) / t.lam_ratio(2.0 * n)
        s2 = discrete_inner(spec, lambda _: lowered, lambda _: phi(n)) / t.lam_ratio(
            2.0 * n + 2.0)
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
    g = StencilGrid.shared(fam, grid, 1)  # the nodes with their neighbours s - 1, s + 1
    w = of.sqrt_rho(g.s)
    phi, hphi = {}, {}  # phi_k, H(.,n) phi_k
    for n, m in pairs:
        if fam.n_max is not None and max(n, m) > fam.n_max:
            rep.cases.append(CaseRecord(n, f"m={m}", 0.0,
                                        "out-of-range: phi_k beyond finite family"))
            continue
        for k in (n, m):
            if k not in phi:
                phi[k] = of._normalized(w, g.p(k)[:, 1], k)
            if (n, k) not in hphi:
                hphi[n, k] = of._normalized(w, _reduced("H", k, g, op_n=n), k)
        ta = phi[m] * hphi[n, n]
        tb = phi[n] * hphi[n, m]
        a, b = ta.sum(), tb.sum()
        terms_scale = max(np.max(np.abs(ta), initial=0.0), np.max(np.abs(tb), initial=0.0))
        scale = max(abs(a), abs(b), terms_scale, 1e-30)
        rep.cases.append(CaseRecord(n, f"m={m}", float(abs(a - b) / scale)))
    return rep


@_RAISE_FP
def check_branch_continuity(fam, s_grid, tolerance: float = 0.2) -> CheckReport:
    """Continuity of the principal-root operator coefficients along the grid
    (detects branch flips on complex lattice coordinates)."""
    rep = CheckReport(
        suite="branch_continuity",
        identity="sqrt(Theta sigma) operator coefficients vary continuously along the grid",
        family=fam.name,
        tolerance=tolerance,
    )
    g = StencilGrid.shared(fam, s_grid, 1)
    vals = g.roots[:, 1].tolist()  # sqrt(Theta(s) sigma(s+1))
    for i in range(1, len(vals)):
        scale = max(abs(vals[i]), abs(vals[i - 1]), 1e-30)
        rep.cases.append(CaseRecord(0, g.labels[i], abs(vals[i] - vals[i - 1]) / scale))
    return rep
