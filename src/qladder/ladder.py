"""The three-point operators H, L+, L- on the orthonormal functions phi_n,
the scalar functions u and v, factorization constants, and the identity
checks built from them.  phi_n itself is a quantity of the family
(`FamilySpec.phi`): every check takes the `FamilySpec`.

Operators are three-point stencils

    (Op f)(s) = c_minus(s) f(s-1) + c_zero(s) f(s) + c_plus(s) f(s+1)

with coefficients built from sigma, Theta = sigma + tau * Delta x(s-1/2) and
the principal square root of the *product* Theta(s-1) sigma(s) (resp.
Theta(s) sigma(s+1)).  Evaluating the product first fixes one branch for
every family, including complex lattice coordinates.

`StencilGrid` is the one implementation of these coefficients.  It tabulates
x, the steps, sigma, Theta, the limit-aware ratios, the principal roots, the
E^-+ coefficients (one array on the links, as E^-(s+1) = E^+(s)), u, v, the
H diagonal and the chain weights on (grid point x chain offset) arrays of
one shape, offsets -2..2, and every suite reads them there: a suite takes
the grid on its points from `StencilGrid.shared`, which keeps one grid per
family and point set, so the suites on the request's points all read one
grid, each testing the chain links and the steps it reads.  `StencilGrid.apply`
is the one sum of an H, L+ or L- stencil, on chain functions or, reduced
through the Pearson relation, on P_n; every suite reads it, and only the
outer products of the factorization are written out.  The n-dependent
pieces (A(s,n), u, v, the H diagonal, P_n and w P_n) are columns over n,
like the family's per-n table (`FamilySpec.coeffs`) their constants come
from, so a suite reads every n it checks as one array and forms their
residuals with a fixed number of array operations.  Quotients of those
arrays round as Python's complex division does (`qkernel._cdiv`).

phi values used by residual checks are built along integer chains
s0 + k by the Pearson-consistent recurrence

    w(s+1) = Theta(s) w(s) / sqrt(Theta(s) sigma(s+1)),
    w(s-1) = sigma(s) w(s) / sqrt(Theta(s-1) sigma(s)),

which squares to the weight ratio rho(s+1)/rho(s) = Theta(s)/sigma(s+1) and
keeps every square-root branch consistent with the operator coefficients;
for positive weights it reduces to sqrt(rho) up to one overall constant.
The identities checked here are 1-homogeneous in that constant, so chains
may be anchored anywhere; the bootstrap's direct phi_n are these chains
too.  Only the orthogonality sums (mutual adjointness, self-adjointness)
read the family's closed-form weight, on the real support where rho >= 0
pointwise: sqrt(rho) and phi_n = sqrt(rho) P_n / d_n come from the
`FamilySpec` (`sqrt_rho`, `_phi`), which this module never forms itself.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, reduce, wraps

import numpy as np

from .hypergeometric_core import _column, _limit_ratio, _sigma_at, _theta_at, rel_residual
from .lattice import DegenerateStepError, LatticeTable
from .orthogonality import InnerProductSpec, discrete_inner
from .qkernel import QKernelError, _cdiv
from .report import Skipped, suite

__all__ = [
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
    "check_bootstrap",
    "check_adjoint",
    "check_selfadjoint",
    "check_branch_continuity",
]


def h_minusplus(fam, n):
    """h(n) in L-(s,n+1) L+(s,n) = h(n) I + u(s+1,n) H(s,n):
    lambda_{2n}/[2n]_q * lambda_{2n+2}/[2n+2]_q * alpha_n gamma_{n+1}, for
    one n or elementwise on an int ndarray of n."""
    t = fam.coeffs
    return t.lam_ratio(2 * n) * t.lam_ratio(2 * n + 2) * t.alpha(n) * t.gamma(n + 1)


def h_plusminus(fam, n):
    """h(n) in L+(s,n-1) L-(s,n) = h(n) I + u(s,n-1) H(s,n):
    lambda_{2n-2}/[2n-2]_q * lambda_{2n}/[2n]_q * alpha_{n-1} gamma_n, which
    is h_minusplus(n-1)."""
    if np.any(np.asarray(n) < 1):
        raise QKernelError("h_plusminus needs n >= 1")
    return h_minusplus(fam, n - 1)


# ==========================================================================
# identity checks
# ==========================================================================


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


def _chain_weights(theta, sigma, roots, anchor: int):
    """Chain weights along the last axis, w = 1 on column `anchor`:

        sqrt(Theta(s) sigma(s+1)) w(s+1) = Theta(s) w(s)  and
        sqrt(Theta(s-1) sigma(s)) w(s-1) = sigma(s) w(s),

    so w^2 solves the Pearson ratio recurrence and every square-root branch
    agrees with the operator coefficients.  Column c of `roots` is
    sqrt(Theta sigma) between columns c and c + 1 of theta and sigma.  A
    link whose root vanishes leaves no weight beyond it: the caller tests
    the links it reads first (`StencilGrid.require_links`)."""
    last = theta.shape[-1] - 1
    w = {anchor: np.ones(theta.shape[:-1], dtype=complex)}
    for c in range(anchor, last):
        w[c + 1] = _cdiv(theta[..., c] * w[c], roots[..., c])
    for c in range(anchor, 0, -1):
        w[c - 1] = _cdiv(sigma[..., c] * w[c], roots[..., c - 1])
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


def _grid_array(fn):
    """A StencilGrid array, computed on first read, under the floating-point
    policy of the suite that reads it first (`report.suite`), and read-only."""
    return cached_property(wraps(fn)(lambda self: _frozen(fn(self))))


class StencilGrid:
    """The coefficients of H, L+ and L- on one check grid, each piece
    computed once, when first needed.

    Arrays are (grid point x chain offset), on one shape for every grid.
    `t`, `x`, `dxm` (Delta x(s-1/2)), `sigma`, `theta` and the chain weights
    `w` cover the offsets k = -2..2, column 2 + k holding s + k; column c of
    `roots` is sqrt(Theta sigma) between columns c and c + 1 of those.  The
    coefficients cover the offsets the widest stencil reads (the
    factorization's outer products): the L+ side (`son` = sigma/nabla x with
    the removable-0/0 limit, `u`) on offsets 0, 1, the L- side (`tod` =
    Theta/Delta x, `v`) on -1, 0, A(s,n) on -1..1 and the H diagonal on
    offset 0.  The links (s-1, s) and (s, s+1) carry one `step` array,
    nabla x on offsets 0, 1 and Delta x on -1, 0, and one `e` array,
    sqrt(Theta sigma)/step: E^- on the L+ side and E^+ on the L- side.
    `plus_side` and `minus_side` index the two sides by offset.  x is one
    `LatticeTable`, on the half-integer offsets as well.

    A(s,n), u, v, the H diagonal, P_n and the chain function w P_n are
    columns over n too (`hypergeometric_core._column`): one n reads its
    row, and a suite reads every n it checks at once, stacked as (n x grid
    point x offset).  A column grows to the largest n read in one
    coefficient-array computation, so a grid raises only at an n at or below
    one a suite asked for.  P_0..P_n come from one recurrence pass on x,
    continued when a higher n is first read; the constants from the
    family's per-n table.  A grid keeps the family's equation data `eq` and
    its table `coeffs`, not the family, so the family that caches it is
    freed by reference counting.

    The suites take their grids from `StencilGrid.shared`, one per family
    and point set, so the suites on the request's points read one grid, and
    the first of them pays for each piece; the other grids lie on the
    bootstrap's chain, the discrete support and the theta grid.  Every array
    a grid keeps is read-only.  The library reads grids only in suite
    bodies, so each array is computed under the suites' one floating-point
    policy (`report.suite`: divide, over and invalid raise) by whichever
    suite reads it first, and is the same, or raises the same, for every
    suite.

    Each grid point carries its own Pearson-consistent weight chain, anchored
    at w = 1 on offset 0 (the residuals checked here are local and
    1-homogeneous in the chain constant), so grids need not be integer
    chains of each other; this is how the theta-grids of the trigonometric
    lattice are handled.  What a grid may not divide by is tested where it
    is read, as `LatticeTable` tests a step only where a lane reads it: the
    weights cover every offset, formed with floating-point errors ignored,
    and a reader tests the links it reads first (`require_links`); `e` reads
    NaN where a step is degenerate, and a reader of `e` tests the steps
    first (`require_steps`).
    """

    def __init__(self, fam, s_grid):
        self.eq, self.coeffs = fam.eq, fam.coeffs
        pts = [complex(s) for s in s_grid]
        self.s = _frozen(np.array(pts, dtype=complex))
        self.labels = tuple(f"{s:.6g}" for s in pts)  # case label of each grid point
        self._x_half = _frozen(LatticeTable(fam.lattice, pts, -5, 5).x)
        self.t = _frozen(self.s[:, None] + np.arange(-2, 3))
        self.x = self._x_half[:, 1::2]
        self._columns = defaultdict(list)  # name -> its rows over n = 0, 1, .. so far
        self._monic = ()  # monic P_0, P_1, .. on x, as far as read

    @classmethod
    def shared(cls, fam, s_grid) -> "StencilGrid":
        """The grid of `fam` on these points, built on the first request and
        kept by the family (`FamilySpec.cached`)."""
        pts = tuple(complex(s) for s in s_grid)
        return fam.cached(("grid", pts), lambda: cls(fam, pts))

    def _compute(self, fn, ns):
        """fn's rows for the n in ns, read-only: one coefficient-array computation."""
        return list(_frozen(fn(self, np.array(ns))))

    def plus_side(self, a):
        """An L+-side array (offsets 0, 1) as a function of the offset."""
        return _by_offset(a, 0)

    def minus_side(self, a):
        """An L--side array (offsets -1, 0) as a function of the offset."""
        return _by_offset(a, -1)

    @_grid_array
    def dxm(self):
        xh = self._x_half[:, ::2]
        return xh[:, 1:] - xh[:, :-1]

    @_grid_array
    def sigma(self):
        return _sigma_at(self.eq, self.x, self.dxm)

    @_grid_array
    def theta(self):
        return _theta_at(self.eq, self.x, self.dxm)

    @_grid_array
    def step(self):
        """x(s) - x(s-1) and x(s+1) - x(s): nabla x on the L+ offsets, Delta x
        on the L- offsets."""
        return self.x[:, 2:4] - self.x[:, 1:3]

    @_grid_array
    def son(self):
        return _limit_ratio(self.eq, self.sigma[:, 2:4], self.step, self.t[:, 2:4], -1)

    @_grid_array
    def tod(self):
        return _limit_ratio(self.eq, self.theta[:, 1:3], self.step, self.t[:, 1:3], 1)

    @_grid_array
    def roots(self):
        """sqrt(Theta(s+k) sigma(s+k+1)) for k = -2..1, the principal root of
        the product: the root of the E^+ coefficient at s+k and of the E^-
        coefficient at s+k+1."""
        return np.sqrt(self.theta[:, :-1] * self.sigma[:, 1:])

    @_grid_array
    def e(self):
        """sqrt(Theta sigma)/step on the links (s-1, s) and (s, s+1): the E^-
        coefficient sqrt(Theta(s-1) sigma(s))/nabla x(s) of H and L+ on the
        L+ offsets, the E^+ coefficient sqrt(Theta(s) sigma(s+1))/Delta x(s)
        of H and L- on the L- offsets; NaN where the step is degenerate,
        which `require_steps` refuses."""
        bad = self.eq.lattice.is_degenerate_step(self.step)
        return np.where(bad, np.nan, _cdiv(self.roots[:, 1:3], np.where(bad, 1.0, self.step)))

    def require_steps(self, first: int = 0, nabla_only: bool = False):
        """Refuse the grid if a step that `e` divides by vanishes: nabla x(s)
        and (unless `nabla_only`) Delta x(s) of each point from row `first`
        on, in row order, in the words of the CLI's grid check.  A reader of
        `e` calls this first."""
        bad = self.eq.lattice.is_degenerate_step(self.step[first:, :1 if nabla_only else 2])
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise DegenerateStepError(f"grid point {self.s[first + i]:.6g} is degenerate "
                                      f"({('nabla x', 'Delta x')[k]} vanishes); choose a grid "
                                      "excluding lattice symmetry points")

    @_grid_array
    def w(self):
        """The chain weights of every grid point, w = 1 on offset 0; NaN
        beyond a link whose root vanishes, which `require_links` refuses."""
        with np.errstate(all="ignore"):
            return _chain_weights(self.theta, self.sigma, self.roots, 2)

    def require_links(self, reach: int):
        """Refuse the grid if a chain link within `reach` of offset 0 has a
        vanishing root: the links up from offset 0 first, outward, then the
        links down, each at the first point where its root is 0.  A reader
        of the chain weights on offsets -reach..reach calls this first."""
        for c in range(2, 2 + reach):
            _require_nonzero_root(self.roots[:, c], self.t[:, c], "Theta(s) sigma(s+1)")
        for c in range(2, 2 - reach, -1):
            _require_nonzero_root(self.roots[:, c - 1], self.t[:, c], "Theta(s-1) sigma(s)")

    # H(s,n) = e E^- + e E^+ + h_diag I, L+(s,n) = u I + e E^-, L-(s,n) =
    # v I + e E^+ on chain offsets
    @_column
    def A(self, n):
        """A(s,n) = lambda_n/[n]_q tau_n(s)/tau_n' on offsets -1..1; the n = 0
        value by the continuation of lam_ratio."""
        return self.coeffs.A(n, self.t[:, 1:-1])

    @_column
    def u(self, n):
        """u(s,n) = A(s,n) - sigma(s)/nabla x(s) on the L+ offsets."""
        return self.A(n)[..., 1:] - self.son

    @_column
    def v(self, n):
        """v(s,n) = -A(s,n) + lambda_n Delta x(s-1/2) + lambda_{2n}/[2n]_q
        (x(s) - beta_n) - Theta(s)/Delta x(s) on the L- offsets."""
        t = self.coeffs
        return (
            -self.A(n)[..., :2]
            + t.lambda_n(n)[:, None, None] * self.dxm[:, 1:3]
            + t.lam_ratio(2 * n)[:, None, None] * (self.x[:, 1:3] - t.beta(n)[:, None, None])
            - self.tod
        )

    @_column
    def h_diag(self, n):
        """The I coefficient of H(s,n) on offset 0:
        -(Theta/Delta x + sigma/nabla x - lambda_n Delta x(s-1/2))."""
        lam = self.coeffs.lambda_n(n)[:, None]
        return -(self.tod[:, -1] + self.son[:, 0] - lam * self.dxm[:, 2])

    @_column
    def p(self, n):
        """P_n on every offset."""
        t = self.coeffs
        self._monic = rows = t.monic_recurrence(int(n[-1]), self.x, self._monic)
        monic = np.array([np.broadcast_to(rows[k], self.x.shape) for k in n.tolist()])
        return monic * t.a_n(n)[:, None, None]

    @_column
    def phi(self, n):
        """The chain function w P_n on every offset."""
        return self.w * self.p(n)

    def apply(self, op: str, n, f, k: int = 0, reduced: bool = False):
        """(value, terms) of (Op f)(s + k) for op "L+", "L-" or "H" at
        operator index n (an int, or n's whose coefficients broadcast against
        f as (n x grid point)).  f holds values on chain offsets, centred on
        offset 0 along its last axis.  The terms are summed in order: for L+
        and L- the diagonal term, then the side term; for H the E^-, I and
        E^+ terms.  With `reduced`, sigma/nabla x and Theta/Delta x are the
        E^- and E^+ coefficients: the operator on P_n where the Pearson
        relation sqrt(Theta(s-1) sigma(s)) sqrt(rho(s-1)) = sigma(s)
        sqrt(rho(s)) (sigma, Theta, rho >= 0 on a real support) takes the
        square roots out; the limit-aware ratios keep a boundary point with
        sigma(a) = nabla x(a) = 0 finite."""
        f = _by_offset(f)
        minus = lambda: self.plus_side(self.son if reduced else self.e)(k) * f(k - 1)
        plus = lambda: self.minus_side(self.tod if reduced else self.e)(k) * f(k + 1)
        if op == "L+":
            terms = (self.plus_side(self.u(n))(k) * f(k), minus())
        elif op == "L-":
            terms = (self.minus_side(self.v(n))(k) * f(k), plus())
        elif op == "H":
            terms = (minus(), _by_offset(self.h_diag(n)[..., None], 0)(k) * f(k), plus())
        else:
            raise QKernelError(f"unknown operator {op!r}")
        return sum(terms), terms


def _cases_by_point(rep, g: StencilGrid, ns, residuals):
    """One case per point and n, point outermost, from (n x point) residuals."""
    ns = list(ns)
    rep.add(ns * len(g.labels), [label for label in g.labels for _ in ns], residuals.T)


def _cases_by_n(rep, g: StencilGrid, ns, residuals):
    """One case per n and point, n outermost, from (n x point) residuals."""
    rep.add([n for n in ns for _ in g.labels], g.labels * len(ns), residuals)


@suite("eigen", "H(s,n) phi_n(s) = 0 (symmetric-form difference equation)", 1e-9)
def check_eigen(rep, fam, ns, s_grid):
    """H(s,n) phi_n(s) = 0.  Sweep: ns on s_grid."""
    g = StencilGrid.shared(fam, s_grid)
    g.require_links(1)
    g.require_steps()
    _cases_by_point(rep, g, ns, rel_residual(*g.apply("H", ns, g.phi(ns))))


@suite("ttrr_phi",
       "alpha_n d_{n+1}/d_n phi_{n+1} + gamma_n d_{n-1}/d_n phi_{n-1}"
       " + (beta_n - x) phi_n = 0", 1e-9)
def check_ttrr_phi(rep, fam, ns, s_grid):
    """alpha_n (d_{n+1}/d_n) phi_{n+1} + gamma_n (d_{n-1}/d_n) phi_{n-1}
    + (beta_n - x) phi_n = 0; the norm ratios cancel against the phi
    normalizations, so the check runs on chain functions.  P_0..P_{n+1} come
    from the recurrence pass of the grid on s_grid, at its offset 0.  Sweep:
    ns on s_grid."""
    g = StencilGrid.shared(fam, s_grid)
    t, n = fam.coeffs, np.array(ns, dtype=int)
    P = lambda k: g.p(k)[..., 2]
    below = np.where((n >= 1)[:, None], P(np.maximum(n - 1, 0)), 0.0)  # P_{-1} = 0
    terms = (t.alpha(n)[:, None] * P(n + 1), t.gamma(n)[:, None] * below,
             (t.beta(n)[:, None] - g.x[:, 2]) * P(n))
    _cases_by_n(rep, g, ns, rel_residual(sum(terms), terms))


def _ladder_residuals(op: str, ns, g: StencilGrid):
    """Residual of L+ phi_n (op "L+") or L- phi_n ("L-") against its
    target at every grid point, for every n in ns."""
    t, n = g.coeffs, np.array(ns, dtype=int)
    g.require_links(1)
    g.require_steps()
    got, (own, _) = g.apply(op, n, g.phi(n))
    if op == "L+":
        target = (t.alpha(n) * t.lam_ratio(2 * n))[:, None] * g.phi(n + 1)[..., 2]
    else:
        coef = (t.gamma(n) * t.lam_ratio(2 * n))[:, None]
        target = np.where((n >= 1)[:, None], coef * g.phi(np.maximum(n - 1, 0))[..., 2], 0.0)
    return rel_residual(got - target, (got, target, own))


@suite("raising", "L+(s,n) phi_n = alpha_n lambda_{2n}/[2n]_q d_{n+1}/d_n phi_{n+1}", 1e-9)
def check_raising(rep, fam, ns, s_grid):
    """L+(s,n) phi_n = alpha_n lambda_{2n}/[2n]_q (d_{n+1}/d_n) phi_{n+1};
    the d-ratio enters in its cancelled form (valid at the top of finite
    families where d_{n+1} = 0).  Sweep: ns on s_grid."""
    g = StencilGrid.shared(fam, s_grid)
    _cases_by_point(rep, g, ns, _ladder_residuals("L+", ns, g))


@suite("lowering", "L-(s,n) phi_n = gamma_n lambda_{2n}/[2n]_q d_{n-1}/d_n phi_{n-1}", 1e-9)
def check_lowering(rep, fam, ns, s_grid):
    """L-(s,n) phi_n = gamma_n lambda_{2n}/[2n]_q (d_{n-1}/d_n) phi_{n-1}.
    Sweep: ns on s_grid."""
    g = StencilGrid.shared(fam, s_grid)
    _cases_by_point(rep, g, ns, _ladder_residuals("L-", ns, g))


@suite("uv_shift", "u(s+1,n) = v(s,n+1)", 1e-10)
def check_uv_shift(rep, fam, ns, s_grid):
    """u(s+1,n) = v(s,n+1) (equivalently u(s+1,n-1) = v(s,n)).  Sweep:
    n = 0..N+1 on s_grid."""
    g = StencilGrid.shared(fam, s_grid)
    ns = range(max(ns) + 2)
    n = np.array(ns, dtype=int)
    uu = g.plus_side(g.u(n))(1)
    vv = g.minus_side(g.v(n + 1))(0)
    _cases_by_n(rep, g, ns, rel_residual(uu - vv, (uu, vv)))


@suite("h_remark", "h+-(n+1) = h-+(n)", 1e-12)
def check_h_remark(rep, fam, ns, s_grid):
    """h_plusminus(n+1) = h_minusplus(n).  The closed form has one copy, and
    h_plusminus(n+1) is h_minusplus(n), so this is the index identity of
    that closed form and its residual is exactly 0; check_h_s_independence
    tests h-+ and h+- against their bracket expansions.  Sweep: n = 1..N+1;
    no points."""
    ns = range(1, max(ns) + 2)
    n = np.array(ns, dtype=int)
    a, b = h_plusminus(fam, n + 1), h_minusplus(fam, n)
    rep.add(ns, "-", rel_residual(a - b, (a, b)))


@suite("h_s_independence", "s-independence of the bracket expansions of h-+ and h+-", 1e-10)
def check_h_s_independence(rep, fam, ns, s_grid):
    """The displayed brackets for h-+(n) and h+-(n) are independent of s and
    equal the gamma/alpha closed values:

        h-+(n) = (A(s+1) - sigma(s+1)/nabla x(s+1)) (A(s) - lambda_n Delta x(s-1/2))
                 + A(s+1) Theta(s)/Delta x(s),
        h+-(n) = (B(s-1) + lambda_n Delta x(s-3/2)) (B(s) + sigma(s)/nabla x(s))
                 - B(s) Theta(s-1)/Delta x(s-1),  n >= 1,

    with A = A(.,n) and B(s) = -A(s,n) + lambda_{2n}/[2n]_q (x(s) - beta_n).
    The scale of a residual is what had to cancel, so a degenerately zero h
    (top of a finite family) is not divided by its own noise.  Sweep: ns on
    s_grid."""
    g = StencilGrid.shared(fam, s_grid)
    t, n = fam.coeffs, np.array(ns, dtype=int)
    son, tod, dxm = g.plus_side(g.son), g.minus_side(g.tod), _by_offset(g.dxm)
    A, hm = _by_offset(g.A(n)), h_minusplus(fam, n)[:, None]
    p1 = (A(1) - son(1)) * (A(0) - t.lambda_n(n)[:, None] * dxm(0))
    p2 = A(1) * tod(0)
    minus_plus = rel_residual(p1 + p2 - hm, (p1, p2, hm)).tolist()
    n = n[n >= 1]
    A, xv, hp = _by_offset(g.A(n)), _by_offset(g.x), h_plusminus(fam, n)[:, None]
    L, beta = t.lam_ratio(2 * n)[:, None], t.beta(n)[:, None]
    B = lambda k: -A(k) + L * (xv(k) - beta)
    p1 = (B(-1) + t.lambda_n(n)[:, None] * dxm(-1)) * (B(0) + son(0))
    p2 = -B(0) * tod(-1)
    plus_minus = iter(rel_residual(p1 + p2 - hp, (p1, p2, hp)).tolist())
    for k, row in zip(ns, minus_plus):
        rep.add(k, g.labels, row, "minusplus")
        if k >= 1:
            rep.add(k, g.labels, next(plus_minus), "plusminus")


@suite("factorization",
       "u(s+1,n) H(s,n) = L-(s,n+1) L+(s,n) - h(n) I  and  "
       "u(s,n) H(s,n+1) = L+(s,n) L-(s,n+1) - h(n) I", 1e-9)
def check_factorization(rep, fam, ns, s_grid):
    """Both factorizations on probe functions (monomials x^j, j <= 3, plus
    the chain phi_n):

        L-(s,n+1) L+(s,n) - h-+(n) I - u(s+1,n) H(s,n)  = 0,
        L+(s,n) L-(s,n+1) - h-+(n) I - u(s,n)  H(s,n+1) = 0.

    The operators act on chain offsets of a StencilGrid (offset 0 is the
    grid point) on (probe x n x grid point) arrays, the inner ones and H
    through `StencilGrid.apply`.  A residual is scaled by
    the largest product the stencils form, the inner one's propagated
    through the outer coefficients: where rounding noise enters.  Sweep: ns
    on s_grid.
    """
    g = StencilGrid.shared(fam, s_grid)
    n = np.array(ns, dtype=int)
    monomials = np.stack([g.x ** j for j in range(4)])[:, None]
    g.require_links(2)
    g.require_steps()
    probes = np.concatenate([np.broadcast_to(monomials, (4, len(n)) + g.x.shape),
                             g.phi(n)[None]])  # (probe, n, grid point, offset)
    u, v = g.plus_side(g.u(n)), g.minus_side(g.v(n + 1))
    em, ep = g.plus_side(g.e), g.minus_side(g.e)
    t2 = h_minusplus(fam, n)[:, None] * _by_offset(probes)(0)

    def scaled(value, terms):
        """A stencil's value and its largest product."""
        return value, _largest(abs(z) for z in terms)

    def residual(outer, hamiltonian, u_h):
        """|L_outer L_inner f - h f - u_h H f| over its scale; `outer` pairs
        each coefficient of the outer stencil with the scaled inner stencil
        it multiplies."""
        terms = [c * z for c, (z, _) in outer]
        t1, scale = scaled(sum(terms), terms)
        scale = _largest([scale] + [abs(c) * sc for c, (_, sc) in outer])
        hf, schf = hamiltonian
        return abs(t1 - t2 - u_h * hf) / _largest((scale, abs(t2), abs(u_h) * schf, 1e-300))

    # the inner L+ f at offsets 0, 1 and L- f at offsets -1, 0; H f at offset
    # 0 for n and n + 1
    inner = lambda op, m, k=0: scaled(*g.apply(op, m, probes, k))
    minus_plus = residual(((v(0), inner("L+", n)), (ep(0), inner("L+", n, 1))),
                          inner("H", n), u(1))
    plus_minus = residual(((em(0), inner("L-", n + 1, -1)), (u(0), inner("L-", n + 1))),
                          inner("H", n + 1), u(0))
    # (n, grid point, probe, minus-plus or plus-minus), read in C order
    res = np.stack([minus_plus, plus_minus], axis=-1).transpose(1, 2, 0, 3)
    for k, by_point in zip(ns, res):
        notes = [f"{side} {tag}" for tag in [f"x^{j}" for j in range(4)] + [f"phi_{k}"]
                 for side in ("minus-plus", "plus-minus")]
        rep.add(k, [label for label in g.labels for _ in notes], by_point,
                notes * len(g.labels))


def _largest(values):
    """Elementwise maximum of nonnegative numbers or arrays (0 for none)."""
    return reduce(np.maximum, values, 0.0)


def _d_ratio_up(fam, n: int):
    """d_{n+1}/d_n when both norms exist and are nonzero, else None."""
    try:
        lo = fam.d_n(n)
        hi = fam.d_n(n + 1)
    except (ValueError, ArithmeticError):
        return None
    if lo == 0 or hi == 0:
        return None
    return hi / lo


@suite("bootstrap", "phi_0 from L-(s,0) phi_0 = 0, then phi_{n+1} from L+(s,n)", 1e-8)
def check_bootstrap(rep, fam, ns, s_grid):
    """Solve L-(s,0) phi_0 = 0 as the ratio recurrence

        phi_0(s+1) = -v(s,0) Delta x(s) phi_0(s) / sqrt(Theta(s) sigma(s+1))

    on the chain s0 + k, k = -N..len(s_grid) - 1, with s0 = s_grid[0] and
    N = min(max(ns), 4); normalize phi_0 to 1 at s0, then climb N levels
    with the raising operator, each consuming one chain point on the left;
    the recurrence and the climb read one grid, on the chain.  The
    bootstrapped phi_n match the direct phi_n, the chain weights through the
    chain points times P_n, up to one constant per level, fixed at s0 (so
    skipped on a one-point grid).  The closed-form weight is not read: the
    chain weights square to it up to a constant (the Pearson relation) and
    take the branch the operators pair with.  Sweep: levels n = 0..N on
    the chain s0 + k, k < len(s_grid); each level costs digits (q-Hermite at
    q = 0.2 reads 2.6e-7 at level 4)."""
    if len(s_grid) < 2:
        raise Skipped("one grid point: the constant fit there leaves no point to check")
    N, s0, count = min(max(ns), 4), complex(s_grid[0]), len(s_grid)
    g = StencilGrid.shared(fam, [s0 + k for k in range(-N, count)])
    # phi_0 from L-(s,0) phi_0 = 0 at every chain point but the last, in
    # Python complex arithmetic: as a cumulative product of numpy quotients
    # the asc1 a = -1, q = 0.2 residual reads 5.1e-8, not 9.478e-9 (bound 1e-8)
    root = g.roots[:-1, 2]  # sqrt(Theta(s) sigma(s+1))
    _require_nonzero_root(root, g.s[:-1], "Theta(s) sigma(s+1)")
    vals = [complex(1.0)]
    for step, r in zip((-g.v(0)[:-1, 1] * g.step[:-1, 1]).tolist(), root.tolist()):
        vals.append(step * vals[-1] / r)
    scale = 1 / vals[N] if vals[N] != 0 else complex(1.0)  # phi_0(s0) = 1
    levels = np.zeros((N + 1, len(vals)), dtype=complex)  # phi_n, read from chain point n on
    levels[0] = [v * scale for v in vals]
    # L+ acts on the chain, its values kept from chain point 1 on: phi_n
    # left of the chain enters as 0, and the first point's E^- (nabla x
    # vanishes there at a lattice symmetry point) is neither tested nor kept
    g.u(range(N))  # every level's u in one pass
    g.require_steps(1, nabla_only=True)
    for n in range(N):
        coef, dr = fam.coeffs.alpha(n) * fam.coeffs.lam_ratio(2 * n), _d_ratio_up(fam, n)
        left = np.concatenate(([0.0], levels[n, :-1]))
        val, _ = g.apply("L+", n, np.stack([left, levels[n]], axis=-1))
        levels[n + 1, 1:] = _cdiv(val[1:], coef * dr if dr is not None else coef)
    # the direct phi_n: one chain up through the chain points from s0, whose
    # links the phi_0 recurrence tested, times P_n
    rows = slice(N, N + count)  # the chain points s0 + k, k < len(s_grid)
    chain = _chain_weights(g.theta[None, rows, 2], g.sigma[None, rows, 2],
                           g.roots[None, rows, 2], 0)[0]
    direct = chain * g.p(range(N + 1))[:, rows, 2]
    for n, (got, want) in enumerate(zip(levels[:, rows].tolist(), direct.tolist())):
        k0 = next(k for k, d in enumerate(want) if abs(d) > 1e-14)
        const = got[k0] / want[k0]
        scale = max(max(abs(d) for d in want), 1e-30)
        rep.add(n, [f"{s0 + k:.6g}" for k in range(count)],
                [abs(got[k] - const * want[k]) / (abs(const) * scale) for k in range(count)])


def _support_grid(fam):
    """(nodes, g, w): the nodes of the discrete support, the StencilGrid on
    them and sqrt(rho) there; Skipped where the lattice kind has no discrete
    sum."""
    grid = fam.kind.sum_nodes(fam)
    if grid is None:
        raise Skipped(f"support kind {fam.support_label!r} has no discrete sum")
    g = StencilGrid.shared(fam, grid)
    return grid, g, fam.sqrt_rho(g.s)


@suite("adjoint",
       "sum phi_{n+1} [2n]_q/lambda_{2n} (L+ phi_n) dx = "
       "sum ([2n+2]_q/lambda_{2n+2} L- phi_{n+1}) phi_n dx = alpha_n d_{n+1}/d_n", 1e-8)
def check_adjoint(rep, fam, ns, s_grid):
    """Mutual adjointness on a finite discrete support:

        sum phi_{n+1} [[2n]_q/lambda_{2n} L+ phi_n] Delta x(s-1/2)
          = sum [[2n+2]_q/lambda_{2n+2} L- phi_{n+1}] phi_n Delta x(s-1/2)
          = alpha_n d_{n+1}/d_n.

    One pass over the support: the weight is evaluated once per node, and
    phi_k and the reduced L+ phi_n, L- phi_{n+1} once on the (n x node)
    array.  Sweep: n = 0..N-1 over the whole support (s_grid is not read)."""
    grid, g, w = _support_grid(fam)
    ns = range(max(ns))
    spec = InnerProductSpec(fam.lattice, tuple(grid))
    t = fam.coeffs
    skipped, targets = {}, {}  # n -> why it is out of range, n -> alpha_n d_{n+1}/d_n
    for n in ns:
        if fam.n_max is not None and n + 1 > fam.n_max:
            skipped[n] = "out-of-range: phi_{n+1} beyond finite family"
            continue
        dr = _d_ratio_up(fam, n)
        if dr is None:
            skipped[n] = "out-of-range: d_{n+1} vanishes"
        else:
            targets[n] = t.alpha(n) * dr
    if targets:
        n = np.array(list(targets))
        phi, phi1 = fam._phi(n, w, g.p(n)[..., 2]), fam._phi(n + 1, w, g.p(n + 1)[..., 2])
        raised = fam._phi(n, w, g.apply("L+", n, g.p(n), reduced=True)[0])
        lowered = fam._phi(n + 1, w, g.apply("L-", n + 1, g.p(n + 1), reduced=True)[0])
        s1 = _cdiv(discrete_inner(spec, lambda _: phi1, lambda _: raised), t.lam_ratio(2 * n))
        s2 = _cdiv(discrete_inner(spec, lambda _: lowered, lambda _: phi), t.lam_ratio(2 * n + 2))
        target = np.array(list(targets.values()))
        sums = zip(rel_residual(s1 - target, (s1, target)).tolist(),
                   rel_residual(s2 - target, (s2, target)).tolist())
        targets = dict(zip(targets, sums))
    for n in ns:
        if n in skipped:
            rep.add(n, "-", 0.0, skipped[n])
        else:
            rep.add(n, ["sum1", "sum2"], targets[n])


@suite("selfadjoint",
       "sum phi_m (H(.,n) phi_n) = sum phi_n (H(.,n) phi_m)"
       " (eigenvalue operator -H/Delta x(s-1/2) self-adjoint)", 1e-8)
def check_selfadjoint(rep, fam, ns, s_grid):
    """Self-adjointness of the eigenvalue operator on the discrete support:

        sum phi_m (H(.,n) phi_n)(s) = sum phi_n (H(.,n) phi_m)(s).

    The eigenvalue operator of the symmetric-form equation is
    -H(s,n)/Delta x(s-1/2) with respect to the Delta x(s-1/2)-weighted inner
    product; the weight cancels against the operator normalization, leaving
    plain sums of H applications.  The lambda_n term contributes the same
    orthogonality sum to both sides and cancels; what remains exercises the
    boundary-term argument (a support cut short breaks it).  One pass over
    the support: the weight, each phi_k and each H(.,n) phi_k are evaluated
    once, on the (n x k x node) array.  Pairs beyond a finite family are
    out-of-range cases.  Sweep: n, m = 0..N-1 over the whole support (s_grid
    is not read)."""
    _, g, w = _support_grid(fam)
    N = max(ns)
    top = N if fam.n_max is None else min(N, fam.n_max + 1)  # phi_k exists for k < top
    if top:
        ks = np.arange(top)
        P = g.p(ks)
        phi = fam._phi(ks, w, P[..., 2])
        g.h_diag(ks)  # the H diagonal of every operator n in one pass
        hphi = [fam._phi(ks, w, g.apply("H", n, P, reduced=True)[0]) for n in range(top)]  # [n][k]
    for n, m in ((n, m) for n in range(N) for m in range(N)):
        if max(n, m) >= top:
            rep.add(n, f"m={m}", 0.0, "out-of-range: phi_k beyond finite family")
            continue
        ta = phi[m] * hphi[n][n]
        tb = phi[n] * hphi[n][m]
        a, b = ta.sum(), tb.sum()
        terms_scale = max(np.max(np.abs(ta), initial=0.0), np.max(np.abs(tb), initial=0.0))
        scale = max(abs(a), abs(b), terms_scale, 1e-30)
        rep.add(n, f"m={m}", float(abs(a - b) / scale))


@suite("branch_continuity",
       "sqrt(Theta sigma) operator coefficients vary continuously along the grid", 0.2)
def check_branch_continuity(rep, fam, ns, s_grid):
    """Continuity of the principal-root operator coefficients along the grid
    (detects branch flips on complex lattice coordinates; a real one is
    skipped).  Sweep: fixed, a 200-point theta grid, as a flip shows only
    between close neighbours."""
    if not fam.kind.complex_s:
        raise Skipped("real lattice coordinate")
    g = StencilGrid.shared(fam, fam.kind.theta_grid(fam, 200))
    vals = g.roots[:, 2].tolist()  # sqrt(Theta(s) sigma(s+1))
    rep.add(0, g.labels[1:], [abs(b - a) / max(abs(b), abs(a), 1e-30)
                              for a, b in zip(vals, vals[1:])])
