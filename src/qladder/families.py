"""Concrete q-polynomial families: Al-Salam--Carlitz I and II, big q-Jacobi,
q-dual Hahn, Askey--Wilson and continuous q-Hermite.

Each family is stated once: the registry gives its name, its reference
parameters and its aliases, and `make_family` converts the parameters to
finite floats and sets them, the name and the base on the `FamilySpec`.  The
family's builder validates the parameters and gives only its own data: its
lattice and the Taylor data of its difference equation, the closed-form
weight / norm / recurrence data, the parameters of its basic-hypergeometric
series (`FamilySpec.pn_series` sums them) and the bounds of its measure.  A
`FamilySpec` owns every quantity of one family on its lattice: P_n, rho,
d_n, the orthonormal phi_n = sqrt(rho/d_n^2) P_n and the per-n table
`coeffs` (B_n).  Its weight, rho, phi_n and recurrence P_n take 1-d arrays
of points only.

Normalization
-------------
Every family has a canonical normalization: the one its series produces.
Its leading coefficient a_n is stored explicitly (monic, the default, for
Al-Salam--Carlitz, big q-Jacobi; a_n = 2^n (abcd q^{n-1};q)_n for
Askey--Wilson; a_n = 2^n for continuous q-Hermite; a nontrivial closed form
for q-dual Hahn).  The tabulated three-term recurrence coefficients
(alpha_n = 1 style) refer to the *monic* normalization and are converted to
the canonical one through a_n.

Validated vs tabulated data
---------------------------
The general machinery is the ground truth.  Tabulated closed forms that
disagree with it are kept as data, compared by the concordance suite, and
reported as suspected errata; the evaluators use the validated route:

* q-dual Hahn central recurrence coefficient beta_n: the tabulated form
  (with [b-a-n+1]_q) disagrees with the general route, which instead matches
  [b-a-n-1]_q; beta_n is computed generically.
* big q-Jacobi and q-dual Hahn squared norms (notes["d_0_sq_anchor"]): the
  tabulated displays are inconsistent with the recurrence data; d_0^2 is the
  orthogonality integral / sum of the weight and d_n^2/d_{n-1}^2 =
  gamma_n/alpha_{n-1} (Nikiforov, Suslov & Uvarov, 1991) gives the rest.
  Every other family's norms are its tabulated d_n^2.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from .hypergeometric_core import EquationData, EquationTable, _column
from .lattice import Lattice
from .orthogonality import InnerProductSpec, _outer, discrete_inner, jackson_integral
from .orthogonality import continuous_inner_aw_converged
from .qkernel import (
    QBase,
    QKernelError,
    _cdiv,
    _q_orbit,
    basic_hypergeometric,
    q_factorial,
    q_number,
    q_pochhammer,
    q_pochhammer_inf,
    q_pochhammer_multi,
    q_pochhammer_orbit,
)

__all__ = [
    "FamilyError",
    "LatticeKind",
    "lattice_kind",
    "ClosedForms",
    "CoefficientTable",
    "FamilySpec",
    "make_family",
    "reference_params",
    "eval_series",
    "eval_ttrr",
]


class FamilyError(ValueError):
    """Invalid family name or parameter set."""


@dataclass(frozen=True)
class ClosedForms:
    """Tabulated closed forms for one family (callables; None if not tabulated).

    beta_n/gamma_n are the monic-recurrence displays; d_n_sq is in the
    family's canonical normalization.  `displays` carries secondary displayed
    expressions (u(s,n), the factorization constant, Hamiltonian coefficients,
    an oracle Pearson ratio) for the concordance and Pearson comparisons;
    `notes` maps a compared quantity to the text its record carries (what a
    suspected erratum gets wrong, or an oracle's formula).
    """

    lambda_n: object
    beta_n: object
    gamma_n: object
    tau_slope: object
    tau_intercept: object
    d_n_sq: object = None
    weight: object = None
    # the weight prod (g(x);q)_inf^p as pairs (g, p = +-1), each g(q x) = q g(x)
    weight_factors: tuple = ()
    displays: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


class LatticeKind:
    """The shape of x(s) = c1 q^s + c2 q^{-s} + c3, read off the coefficients
    by `lattice_kind`, and every decision that depends on it: how one point
    (not a Jackson node: `FamilySpec.p_gram` stays at x) or a `--grid` value
    maps to s, the default check grid, the pointwise weight rho(s), the
    closed-form rho of the Pearson suite, and whether s is complex.  The
    measure is one sum over the lattice, sum rho(s) Delta x(s - 1/2)
    (Nikiforov, Suslov & Uvarov, 1991), between the family's bounds: a grid
    sum, a Jackson integral or an integral in theta as x(s) makes it, so the
    kind also chooses `p_gram`'s rule, the d_0^2 that anchors the norms of a
    family whose tabulated d_0^2 is a recorded erratum, the report label, the
    orthonormality defaults and the nodes of the discrete sums.
    The base class is the quadratic kind (real s, weight tabulated in s)."""

    complex_s = False  # s = i theta / ln q: one-step Pearson ratios, branch checks
    grid_start = 0.3
    # the measure's report label, orthonormality's defaults and its convention ratio
    label, gram_tolerance, gram_order, norm_convention = "discrete_grid", 1e-8, 4, False

    def s_from_point(self, fam, point) -> complex:
        return complex(point)

    def s_from_grid_value(self, fam, value) -> complex:
        return complex(value)

    def default_grid(self, fam, count: int) -> list:
        """Nondegenerate default check grid."""
        return [self.grid_start + k for k in range(count)]

    def rho_at_s(self, fam, s):
        """Pointwise weight at the points of the 1-d ndarray s, nonnegative
        on the real support."""
        return fam.weight(s)

    def pearson_rho(self, fam, s):
        """Closed-form rho at the points of s whose ratios the Pearson table reproduces."""
        return self.rho_at_s(fam, s)

    def sum_nodes(self, fam):
        """The grid s = lo, ..., hi - 1 the measure sums over (None off the quadratic kind)."""
        lo, hi = fam.support
        length = round(hi - lo)
        if abs(hi - lo - length) > 1e-9 or length < 1:
            raise FamilyError("discrete grid must have integer length b-a >= 1")
        return [lo + k for k in range(length)]

    def p_gram(self, fam, N: int, outer_p):
        """The rule of `FamilySpec.p_gram` on its outer(P_0..P_N) at x: (M, history)."""
        if N < (fam.n_max or 0):
            return fam.p_gram(fam.n_max)[0][:N + 1, :N + 1], []
        spec = InnerProductSpec(fam.lattice, tuple(self.sum_nodes(fam)))
        return discrete_inner(spec, lambda s: outer_p(fam.lattice.x_values(s)), fam.weight), []

    def norm_anchor(self, fam) -> complex:
        """Entry [0, 0] of the one grid sum the Gram reads (at n_max)."""
        return complex(fam.p_gram(0)[0][0, 0])


class _Exponential(LatticeKind):
    """c2 = 0: the natural coordinate is x = c1 q^s + c3, the weight a function of x."""

    grid_start = 0.25
    label, gram_order, norm_convention = "jackson_integral", 3, True

    def s_from_point(self, fam, point) -> complex:
        lat = fam.lattice
        if point == lat.c3:
            raise FamilyError(f"x = {lat.c3:g} is not on the exponential lattice")
        return cmath.log((complex(point) - lat.c3) / lat.c1) / math.log(lat.base.q)

    def rho_at_s(self, fam, s):
        return fam.weight(fam.lattice.x_values(s))

    def sum_nodes(self, fam):
        return None

    def p_gram(self, fam, N: int, outer_p):
        return jackson_integral(lambda x: outer_p(x) * fam._jackson_weight(x), *fam.support,
                                fam.base, scale=np.abs(_outer(fam.d_n(range(N + 1))))), []

    def norm_anchor(self, fam) -> complex:
        """The integral of the node weights `p_gram` reads too, settled on its
        own running sum (a floor of 1 stops it early where d_0^2 << 1)."""
        return complex(jackson_integral(fam._jackson_weight, *fam.support, fam.base, scale=0.0))


class _Trigonometric(LatticeKind):
    """c1 = c2, c3 = 0 with q^s = e^{i theta}: points and `--grid` values are
    theta, rho is the density on x in [-1, 1], and the measure its quadrature."""

    complex_s = True
    label, gram_tolerance, gram_order = "continuous_interval", 1e-6, 3

    def s_from_point(self, fam, theta) -> complex:
        return complex(0.0, 1.0) * complex(theta) / math.log(fam.lattice.base.q)

    s_from_grid_value = s_from_point
    sum_nodes = _Exponential.sum_nodes

    def theta_grid(self, fam, count: int, parts: int | None = None) -> list:
        """s at theta = (j + 1/2) pi / parts, j < count (parts defaults to count)."""
        parts = parts or count
        return [self.s_from_point(fam, (j + 0.5) * math.pi / parts) for j in range(count)]

    def default_grid(self, fam, count: int) -> list:
        return self.theta_grid(fam, count, count + 1)

    def rho_at_s(self, fam, s):
        return fam.closed.displays["weight_density"](fam.lattice.x_values(s))

    def pearson_rho(self, fam, s):
        return fam.weight(fam.lattice.x_values(s)) * fam.lattice.delta_x_mid(s)

    def p_gram(self, fam, N: int, outer_p):
        return continuous_inner_aw_converged(outer_p, fam.closed.displays["weight_density"],
                                             scale=np.abs(_outer(fam.d_n(range(N + 1)))))


QUADRATIC, EXPONENTIAL, TRIGONOMETRIC = LatticeKind(), _Exponential(), _Trigonometric()


def lattice_kind(lat: Lattice) -> LatticeKind:
    """Exponential if c2 = 0, trigonometric if c1 = c2 and c3 = 0, else quadratic."""
    c1, c2, c3 = complex(lat.c1), complex(lat.c2), complex(lat.c3)
    if c2 == 0:
        return EXPONENTIAL
    if c1 == c2 and c3 == 0:
        return TRIGONOMETRIC
    return QUADRATIC


class CoefficientTable(EquationTable):
    """The per-n table of one family's data, as columns over n: the columns
    of its equation's table (lam_ratio, lambda_n, (tau_n', tau_n(0)), b_n/a_n,
    generic beta_n) and a_n, B_n, validated beta_n, monic gamma_n, canonical
    alpha_n and gamma_n and the tabulated d_n^2, each entry computed once,
    when first read, by the scalar formula it replaces, so every value is
    the one that formula gives.  Entries are Python numbers and tuples, so
    no reader can change one.  It is built from the family's data (eq,
    closed forms, a_n, perturbation), not the family, so a family that
    caches it is freed by reference counting; the norms, which read the
    family's measure, are columns of `FamilySpec`."""

    def __init__(self, eq: EquationData, closed: ClosedForms, a_n, perturb: dict):
        super().__init__(eq)
        self.closed, self._leading = closed, a_n
        self._beta_shift = complex(perturb.get("beta", 0.0))
        self._gamma_shift = complex(perturb.get("gamma", 0.0))

    @_column
    def a_n(self, n: int):
        """The canonical leading coefficient, as the family's a_n gives it."""
        return self._leading(n)

    @_column
    def B(self, n: int) -> complex:
        """The Rodrigues normalization B_n = a_n / prod_{k<n} -lam_ratio(n+k)."""
        out = complex(self.a_n(n))
        for k in range(n):
            out /= -self.lam_ratio(n + k)
        return out

    @_column
    def beta(self, n: int) -> complex:
        """beta_n, the same in the monic and the canonical normalization: the
        generic route where the tabulated display is a recorded suspected
        erratum, else the display; plus any perturbation."""
        if "beta_n" in self.closed.notes:
            val = self.beta_generic(n)
        else:
            val = complex(self.closed.beta_n(n))
        return val + self._beta_shift

    @_column
    def gamma_monic(self, n: int) -> complex:
        if n == 0:
            return complex(0.0)
        return complex(self.closed.gamma_n(n)) + self._gamma_shift

    @_column
    def alpha(self, n: int) -> complex:
        """Canonical alpha_n = a_n / a_{n+1}."""
        return self.a_n(n) / self.a_n(n + 1)

    @_column
    def gamma(self, n: int) -> complex:
        """Canonical gamma_n = gamma_n^monic * a_n / a_{n-1}."""
        if n == 0:
            return complex(0.0)
        return self.gamma_monic(n) * self.a_n(n) / self.a_n(n - 1)

    @_column
    def d_n_sq(self, n: int) -> complex:
        """The tabulated d_n^2 (canonical normalization)."""
        return complex(self.closed.d_n_sq(n))

    def monic_recurrence(self, N: int, x, rows=()) -> list:
        """Monic P_0..P_N (at least) at x by the three-term recurrence on
        the beta and gamma_monic columns, continued from `rows`, monic
        P_0..P_k at the same x from an earlier call, when given."""
        beta, gamma = self.beta(range(N)), self.gamma_monic(range(N))
        rows = list(rows) or [complex(1.0)]  # monic P_0
        for k in range(len(rows) - 1, N):
            pm = rows[k - 1] if k else complex(0.0)  # monic P_{k-1}
            rows.append((x - beta[k]) * rows[k] - gamma[k] * pm)
        return rows


def _monic(n) -> complex:
    """a_n of a monic family."""
    return complex(1.0)


@dataclass(frozen=True)
class FamilySpec:
    """A fully populated family: lattice + equation data + closed forms +
    series parameters + support + validated recurrence/norm routes.
    `make_family` sets name, params and base; the family's builder the rest.

    Immutable after construction; evaluators are pure.  What it caches are
    idempotent derived values: the per-n table `coeffs` and the norm columns
    (`cached_property` and `_column`), and, per key through `cached`, the
    measure's integrals (`p_gram`), the Jackson node weights and the suites'
    stencil grids (`ladder.StencilGrid.shared`), so concurrent use is safe:
    a race at worst recomputes the same values.  A copy made by
    `with_perturbation` or `dataclasses.replace` starts with none of them.
    None of them refers back to the family, so reference counting frees a
    family when its last reference goes.
    """

    name: str  # the canonical registry key
    params: dict  # the required parameters as finite floats, in reference order
    base: QBase  # user-facing base q (0 < q < 1)
    eq: EquationData  # internal base may be 1/q (asc2)
    support: tuple | None  # the measure's bounds (lo, hi); None where none ships
    closed: ClosedForms
    # callable (int ndarray n, ndarray s) -> (prefactor, upper, lower, z), so that
    # canonical P_n(s) = prefactor r_phi_s(q^-n, upper; lower; q, z) over (n, s)
    series_fn: object
    a_n: object = _monic  # callable n -> canonical leading coefficient (monic: 1)
    n_max: int | None = None  # highest n of the orthogonal family (None = infinite)
    # lattice coordinates where the series route is well conditioned up to
    # n = 10 (n_max for a finite family): the concordance series-vs-ttrr points
    series_points: tuple = ()
    perturb: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    # -- lattice and natural coordinate ------------------------------------
    @property
    def lattice(self) -> Lattice:
        return self.eq.lattice

    @cached_property
    def kind(self) -> LatticeKind:
        return lattice_kind(self.lattice)

    @property
    def support_label(self) -> str:
        """The measure as reports name it: the lattice kind's, or "none" without bounds."""
        return "none" if self.support is None else self.kind.label

    def s_from_point(self, point) -> complex:
        """Map the family's natural coordinate to the lattice coordinate s."""
        return self.kind.s_from_point(self, point)

    # -- polynomial evaluation --------------------------------------------
    def pn_series(self, n, s):
        """Canonical P_n at lattice coordinate s via the basic-hypergeometric
        representation: the prefactor times one `basic_hypergeometric` pass
        on the parameters `series_fn` gives for the int ndarray n >= 0 and
        the ndarray s (an n column and an s row: every (n, point) in one
        pass); an int n and one point read one entry of it, 0 for n < 0."""
        one = not isinstance(n, np.ndarray)
        if one:
            if n < 0:
                return complex(0.0)
            n, s = np.array([[n]]), [s]
        pre, upper, lower, z = self.series_fn(n, np.asarray(s, dtype=complex))
        values = pre * basic_hypergeometric(n, upper, lower, z, self.base)
        return complex(values[0, 0]) if one else values

    def pn_stack(self, N: int, x):
        """P_0..P_N (canonical) at the points of the ndarray x from one pass
        of the (stable) three-term recurrence, the recurrence route of P_n:
        an (N+1, *x.shape) ndarray.  `eval_ttrr` wraps it for one point."""
        t = self.coeffs
        rows = zip(t.monic_recurrence(N, x), t.a_n(range(N + 1)))
        return np.stack([np.broadcast_to(p * a, x.shape) for p, a in rows])

    # -- what the family caches -----------------------------------------------
    @cached_property
    def coeffs(self) -> CoefficientTable:
        """The family's per-n table, built on first use."""
        return CoefficientTable(self.eq, self.closed, self.a_n, self.perturb)

    def cached(self, key, make):
        """The value kept under `key`, made by `make()` on the first request."""
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    # -- norms: columns over n, like the table's ------------------------------
    @cached_property
    def _columns(self):
        return defaultdict(list)

    _compute = EquationTable._compute  # one scalar formula call per n

    @_column
    def norm_sq(self, n: int) -> complex:
        """The validated squared norm of canonical P_n: the tabulated d_n^2,
        or where the family's norms are not `tabulated_norms`, d_0^2
        prod_{k<=n} gamma_k/alpha_{k-1} from the lattice kind's anchor;
        undefined beyond a finite family."""
        if self.n_max is not None and n > self.n_max:
            raise FamilyError(f"{self.name}: norm undefined beyond the finite family "
                              f"(n_max={self.n_max})")
        t = self.coeffs
        if self.tabulated_norms:
            return t.d_n_sq(n)
        out = self._norm_anchor
        for k in range(1, n + 1):
            out *= t.gamma(k) / t.alpha(k - 1)
        return out

    @_column
    def d_n(self, n: int) -> complex:
        """The principal square root of norm_sq, kept so ratios stay consistent."""
        return cmath.sqrt(self.norm_sq(n))

    @property
    def tabulated_norms(self) -> bool:
        """norm_sq is the tabulated d_n^2 unless concordance records the
        tabulated d_0^2 as a suspected erratum (notes["d_0_sq_anchor"])."""
        return "d_0_sq_anchor" not in self.closed.notes

    @cached_property
    def _norm_anchor(self) -> complex:
        """d_0^2 of the ratio route, as the lattice kind takes it."""
        return self.kind.norm_anchor(self)

    def _jackson_weight(self, x):
        """The weight at the (endpoints, size) nodes x of a Jackson pass: one
        `q_pochhammer_orbit` per factor from the endpoints x[:, 0], combined
        as the pointwise weight.  Every pass starts at the endpoints, so its
        weights are cached per size."""
        def make():
            orbits = lambda v: np.prod(q_pochhammer_orbit(v, self.base, x.shape[-1]), 0)
            return _pochhammer_quotient(self.closed.weight_factors, orbits)(x[:, 0])
        return self.cached(("jackson_weight", x.shape), make)

    def p_gram(self, N: int):
        """(M, history): the read-only M[n, m] = int P_n P_m w over the
        measure, n, m <= N, from one call of the lattice kind's rule on
        outer(P_0..P_N) w, kept per N: the grid sum (a finite family sums once,
        at n_max, and reads its leading block below), the Jackson integral at
        the node x itself or the quadrature against the density, these two
        settling against |d_n d_m|.  history is the quadrature's node-doubling
        loop, as (panels, matrix) pairs, or []."""
        def make():
            if self.support is None:
                raise QKernelError("no inner product available for support kind 'none'")
            M, history = self.kind.p_gram(self, N, lambda x: _outer(self.pn_stack(N, x)))
            M.setflags(write=False)
            return M, history
        return self.cached(("p_gram", N), make)

    # -- weight -------------------------------------------------------------
    def weight(self, points):
        """Closed-form weight at the natural-coordinate points (dual Hahn: at
        s) of a 1-d ndarray."""
        if self.closed.weight is None:
            raise FamilyError(
                f"{self.name}: no closed-form weight is tabulated; "
                "use the Pearson table instead"
            )
        return self.closed.weight(points)

    def rho_at_s(self, s):
        """The pointwise weight rho of the lattice kind at the points of the 1-d
        ndarray s, in one call under divide and invalid = raise; where that
        raises ValueError or ArithmeticError, point by point on one-element
        arrays, NaN at a point the weight refuses (a pole, a point off its
        domain).  Any other exception is a fault of the program and propagates."""
        try:
            with np.errstate(divide="raise", invalid="raise"):
                return self.kind.rho_at_s(self, s)
        except (ValueError, ArithmeticError):
            if len(s) > 1:
                return np.concatenate([self.rho_at_s(t) for t in np.split(s, len(s))])
            return np.full(1, np.nan, dtype=complex)

    # -- phi_n = sqrt(rho/d_n^2) P_n, on the real support where rho >= 0 ------
    # On a 1-d ndarray of nodes, one weight evaluation per node; n is one
    # index or a range, stacked on a leading axis from one recurrence pass.
    def sqrt_rho(self, s):
        """sqrt(rho) at the points of a 1-d ndarray s of the real support,
        where rho is a nonnegative real; a point where it is not, or where
        the weight is refused (NaN), raises naming the point."""
        rho = self.rho_at_s(s)
        bad = ~((np.abs(rho.imag) <= 1e-12 * np.abs(rho)) & (rho.real >= 0.0))
        if np.any(bad):
            raise QKernelError(
                f"rho({s[bad][0]}) is not a nonnegative real; pointwise phi needs the "
                "real branch (off the support the checks use chain weights)"
            )
        return np.sqrt(rho)

    def positive_sqrt_rho(self, rho):
        """(ok, w) for rho from `rho_at_s`: ok where rho is a positive real to
        rounding (a refused point's NaN is not), where w = sqrt(rho) gives
        phi_n; w is 0 elsewhere."""
        ok = (np.abs(rho.imag) <= 1e-12 * np.abs(rho)) & (rho.real > 0.0)
        return ok, np.sqrt(np.where(ok, rho, 0.0))

    def phi(self, n, s):
        """phi_n at the support points of the 1-d ndarray s (n an index or a range)."""
        ns = n if isinstance(n, range) else range(n, n + 1)
        P = self.pn_stack(ns[-1], self.lattice.x_values(s))[ns.start:ns.stop:ns.step]
        phi = self._phi(ns, self.sqrt_rho(s), P)
        return phi if isinstance(n, range) else phi[0]

    def _phi(self, n, w, values):
        """phi_n = w values / d_n with w = sqrt(rho): `values` are P_n, or an
        operator's stencil on P_n, at the points of w; for a range or an int
        ndarray n, stacked on a leading axis."""
        d = self.d_n(n)
        return _cdiv(w * values, d[:, None] if isinstance(d, np.ndarray) else d)

    def with_perturbation(self, name: str, delta: float) -> "FamilySpec":
        """A copy with a named closed-form coefficient shifted by delta
        (negative-control runs)."""
        if name not in ("beta", "gamma"):
            raise FamilyError(f"unknown perturbation target {name!r}")
        newp = dict(self.perturb)
        newp[name] = newp.get(name, 0.0) + _finite("delta", delta)
        return replace(self, perturb=newp)


# ==========================================================================
# family constructors
# ==========================================================================


def _positive_q(base: QBase):
    if not base.allows_infinite_products:
        raise FamilyError("families require 0 < q < 1 (base.q)")


def _require(cond: bool, param: str, message: str):
    if not cond:
        raise FamilyError(f"parameter {param!r} invalid: {message}")


def _each_n(f, n):
    """f(k) at each int k of the ndarray n, in n's shape: a series' scalar factors over n."""
    return np.array([f(k) for k in n.ravel().tolist()], dtype=complex).reshape(n.shape)


def _series_points(start: float, step: float) -> tuple:
    return tuple(start + step * j for j in range(7))


def _asc_forms(a: float, base: QBase):
    """What Al-Salam-Carlitz I in base `base` shares with Al-Salam-Carlitz II,
    which is I in the inverted base: the lattice q^s, the equation data and
    the closed forms lambda_n, beta_n, gamma_n, tau_n', tau_n(0), u and h-+
    (both monic).  Returns (lattice, eq, ClosedForms fields, displays)."""
    q = base.q
    lat = Lattice(1.0, 0.0, 0.0, base)
    rq = math.sqrt(q)
    eq = EquationData(
        sigma_pp=1.0,
        sigma_p0=-(a + 1.0) / 2.0,
        sigma_00=a,
        tau_p=rq / (1.0 - q),
        tau_0=rq * (1.0 + a) / (q - 1.0),
        lattice=lat,
    )
    forms = {
        "lambda_n": lambda n: q_number(float(n), base) * q ** (1 - n / 2.0) / (q - 1.0),
        "beta_n": lambda n: (1.0 + a) * q**n,
        "gamma_n": lambda n: a * q ** (n - 1) * (q**n - 1.0),
        "tau_slope": lambda n: q ** (0.5 - n) / (1.0 - q),
        "tau_intercept": lambda n: q ** ((1.0 - n) / 2.0) * (a + 1.0) / (q - 1.0),
    }
    displays = {
        "u": lambda s, n: a * q / (1.0 - q) / lat.x(s),
        "h_mp": lambda n: a * q ** (1 - n) * (q ** (n + 1) - 1.0) / (q - 1.0) ** 2,
    }
    return lat, eq, forms, displays


def _pochhammer_quotient(factors, products):
    """x -> prod (g(x);q)_inf^p over the pairs (g, p = +-1) of `factors`: products(args)
    multiplies the (a;q)_inf of the numerator's arguments, then the denominator's; one `_cdiv`."""
    def weight(x):
        x = np.asarray(x, dtype=complex)
        num, den = ([g(x) for g, p in factors if p == sign] for sign in (1, -1))
        w = products(num)
        return _cdiv(w, products(den)) if den else w
    return weight


def _make_asc1(base: QBase, a: float) -> dict:
    _require(a != 0.0, "a", "must be nonzero (weight support [a,1] degenerates)")
    q = base.q
    if a > 0.0:  # at a = q^k the Jackson sums over [0, 1] and [0, a] cancel: d_0^2 = 0
        k = round(math.log(a) / math.log(q))
        _require(abs(a - q**k) > 1e-12 * a, "a", f"a = q^{k} makes the measure on "
                 f"[a, 1] vanish: (q, a, q/a; q)_inf = 0")
    lat, eq, forms, displays = _asc_forms(a, base)

    def series(n, s):
        x = lat.x_values(s)
        if (x == 0).any():
            raise FamilyError("series evaluator needs x != 0 (it uses 1/x)")
        pre = _each_n(lambda k: (-a) ** k * q ** (k * (k - 1) / 2.0), n)
        return pre, (_cdiv(1.0, x),), (0.0,), _cdiv(q * x, a)

    weight_factors = ((lambda x: q * x, 1), (lambda x: _cdiv(q * x, a), 1))
    const = cache(lambda: q_pochhammer_multi((q, a, q / a), base))

    def d_n_sq(n):
        return (
            (-a) ** n
            * (1.0 - q)
            * q_pochhammer(q, base, n)
            * const()
            * q ** (n * (n - 1) / 2.0)
        )

    def ham_i_display(s, n):
        # tabulated I-coefficient of the three-point operator
        x = lat.x(s)
        k2 = q_number(2.0, base)
        return (
            q ** (1 - n) / (1.0 - q) * x
            + q * (a + 1.0) / (q - 1.0)
            - k2 / base.k_q / x
        )

    def pearson_ratio(s):
        # rho(s+1)/rho(s) = w(qx)/w(x) of the closed weight
        x = lat.x(s)
        return 1.0 / ((1.0 - q * x) * (1.0 - q * x / a))

    closed = ClosedForms(
        **forms,
        d_n_sq=d_n_sq,
        weight=_pochhammer_quotient(weight_factors, lambda v: q_pochhammer_multi(v, base)),
        weight_factors=weight_factors,
        displays={**displays, "ham_i": ham_i_display, "pearson_ratio": pearson_ratio},
        notes={
            "hamiltonian_i_display": "displayed identity-term of the three-point "
            "operator: its 1/x coefficient lacks the parameter factor a",
            "pearson_ratio": "oracle 1/((1-qx)(1-qx/a))",
        },
    )
    return dict(eq=eq, support=(a, 1.0), closed=closed, series_fn=series,
                series_points=_series_points(-3.0, 0.9))


def _make_asc2(base: QBase, a: float) -> dict:
    _require(a != 0.0, "a", "must be nonzero")
    q = base.q
    ibase = base.inverted()  # the family is the base-inverted ASC1
    iq = ibase.q
    lat, eq, forms, displays = _asc_forms(a, ibase)

    def series(n, s):
        # V_n^{(a)}(x; q) = U_n^{(a)}(x; 1/q), evaluated as the 2phi0 form in
        # the user's base q (terminating, so no q>1 products are needed)
        pre = _each_n(lambda k: (-a) ** k * q ** (-k * (k - 1) / 2.0), n)
        return pre, (lat.x_values(s),), (), _each_n(lambda k: base.pow(float(k)) / a, n)

    def d_n_sq(n):
        # reduced norm: the n-independent (q~, a, q~/a; q~)_inf constant of the
        # base-inverted closed form diverges for q~ > 1 and is dropped
        # (only ratios enter the ladder identities); anchored at d_0^2 = 1.
        return (-a) ** n * q_pochhammer(iq, ibase, n) * iq ** (n * (n - 1) / 2.0)

    return dict(eq=eq, support=None, series_fn=series, series_points=_series_points(-3.0, 0.9),
                closed=ClosedForms(**forms, d_n_sq=d_n_sq, weight=None, displays=displays))


def _make_big_q_jacobi(base: QBase, a: float, b: float, c: float) -> dict:
    q = base.q
    _require(0.0 < a * q < 1.0, "a", f"need 0 < a q < 1, got a q = {a * q}")
    _require(0.0 <= b * q < 1.0, "b", f"need 0 <= b q < 1, got b q = {b * q}")
    _require(c < 0.0, "c", f"need c < 0, got {c}")
    lat = Lattice(1.0, 0.0, 0.0, base)
    rq = math.sqrt(q)
    eq = EquationData(
        sigma_pp=(1.0 + a * b * q * q) / q,
        sigma_p0=-(a * b * q + a * c * q + a + c) / 2.0,
        sigma_00=a * c * q,
        tau_p=(1.0 - a * b * q * q) / ((1.0 - q) * rq),
        tau_0=rq * (a * (b * q - 1.0) + c * (a * q - 1.0)) / (1.0 - q),
        lattice=lat,
    )

    def series(n, s):
        abq = _each_n(lambda k: a * b * q ** (k + 1), n)
        pre = _cdiv(q_pochhammer(a * q, base, n) * q_pochhammer(c * q, base, n),
                    q_pochhammer(abq, base, n))
        return pre, (abq, lat.x_values(s)), (a * q, c * q), q

    def A_n(n):
        return (
            (1 - a * q ** (n + 1))
            * (1 - c * q ** (n + 1))
            * (1 - a * b * q ** (n + 1))
            / ((1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n + 2)))
        )

    def C_n(n):
        return (
            -a
            * c
            * q ** (n + 1)
            * (1 - q**n)
            * (1 - b * q**n)
            * (1 - a * b * q**n / c)
            / ((1 - a * b * q ** (2 * n)) * (1 - a * b * q ** (2 * n + 1)))
        )

    weight_factors = ((lambda x: _cdiv(x, a), 1), (lambda x: _cdiv(x, c), 1),
                      (lambda x: x, -1), (lambda x: _cdiv(b * x, c), -1))

    d_sq_prefactor = cache(lambda: a * q * (1 - q)
                           * q_pochhammer_multi((q, c / a, a * q / c, a * b * q * q), base)
                           / q_pochhammer_multi((a * q, b * q, c * q, a * b * q / c), base))

    def d_n_sq_tab(n):
        # as tabulated (suspected erratum: the (a b q^{n+1};q)_n factor is
        # repeated and the n-independent prefactor does not match the
        # orthogonality integral); kept for the concordance comparison only
        num = (
            (1 - a * b * q)
            * q_pochhammer_multi((q, b * q, a * b * q / c), base, n)
            * (-a * c) ** (-n)
            * q ** (-n * (n - 1) / 2.0)
        )
        den = (
            q_pochhammer(a * b * q, base, n)
            * q_pochhammer(a * b * q ** (n + 1), base, n) ** 2
        )
        return d_sq_prefactor() * num / den

    def D_n(n):
        return (
            a * b * (a * b + a * c + a + c) * q ** (2 * n + 3)
            - a * (b + c + a * b + b * c) * q ** (n + 2)
        ) / ((1 - a * b * q ** (2 * n + 2)) * (1 - q))

    def u_display(s, n):
        x = lat.x(s)
        return a * b * q ** (n + 1) / (1 - q) * x + D_n(n) - a * c * q * q / (q - 1) / x

    def h_mp_display(n):
        delta_np1 = (
            (1 - a * b * q ** (2 * n + 1))
            * (1 - a * b * q ** (2 * n + 3))
            / (q ** (2 * n + 1) * (q - 1) ** 2)
        )
        gamma_np1 = C_n(n + 1) * A_n(n)
        return delta_np1 * gamma_np1

    closed = ClosedForms(
        lambda_n=lambda n: -base.pow(-n / 2.0)
        * q_number(float(n), base)
        * (1 - a * b * q ** (n + 1))
        / (1 - q),
        beta_n=lambda n: 1.0 - A_n(n) - C_n(n),
        gamma_n=lambda n: C_n(n) * A_n(n - 1),
        tau_slope=lambda n: (base.pow(float(-n)) - a * b * q ** (n + 2)) / (rq * (1 - q)),
        tau_intercept=lambda n: q ** ((1.0 - n) / 2.0)
        * (a * (b * q ** (1 + n) - 1.0) + c * (a * q ** (1 + n) - 1.0))
        / (1 - q),
        d_n_sq=d_n_sq_tab,
        weight=_pochhammer_quotient(weight_factors, lambda v: q_pochhammer_multi(v, base)),
        weight_factors=weight_factors,
        displays={"u": u_display, "h_mp": h_mp_display},
        notes={"d_0_sq_anchor": "tabulated norm prefactor disagrees with the direct "
                                "orthogonality integral of the weight"},
    )
    return dict(eq=eq, support=(c * q, a * q), closed=closed, series_fn=series,
                series_points=_series_points(-3.9, 0.25))


def _make_q_dual_hahn(base: QBase, a: float, b: float, c: float) -> dict:
    q = base.q
    _require(a >= -0.5, "a", f"need -1/2 <= a, got {a}")
    _require(a < b - 1.0, "a", f"need a < b-1, got a={a}, b={b}")
    _require(abs(c) < a + 1.0, "c", f"need |c| < a+1, got |c|={abs(c)}")
    nb = b - a
    _require(abs(nb - round(nb)) < 1e-9 and round(nb) >= 1, "b",
             f"need b-a a positive integer (finite grid), got b-a={nb}")
    kq = base.k_q
    rq = math.sqrt(q)
    lat = Lattice(rq / kq**2, 1.0 / (rq * kq**2), -(rq + 1.0 / rq) / kq**2, base)

    def qn(k):
        return q_number(k, base)

    eq = EquationData(
        sigma_pp=kq,
        sigma_p0=(
            2.0 * qn(2.0)
            - q ** (0.5 - b)
            - q ** (0.5 + a)
            - q ** (1.5 + a + c - b)
            - q ** (0.5 + c)
        )
        / (2.0 * kq),
        sigma_00=(
            2.0 * q ** (1 + a - b)
            + 1.0 / q
            + q
            + 2.0 * q ** (1 + c - b)
            + 2.0 * q ** (1 + a + c)
            - (1.0 + q) * (q**-b + q**a + q**c + q ** (1 + a + c - b))
        )
        / (2.0 * kq**3),
        tau_p=-1.0,
        tau_0=q ** ((a - b + c + 1) / 2.0) * qn(a + 1.0) * qn(b - c - 1.0)
        + q ** ((c - b + 1) / 2.0) * qn(b) * qn(c),
        lattice=lat,
    )

    def a_n(n):
        # leading coefficient of the tabulated series normalization
        return (
            (1.0 - q) ** n
            * q ** (n * (b - a - c - n - 1.0) / 2.0)
            / q_pochhammer(q, base, n).real
        )

    n_max = round(nb) - 1

    def series(n, s):
        if (n > n_max).any():
            raise FamilyError(
                f"q_dual_hahn series is undefined for n={n[n > n_max][0]} > n_max={n_max}: "
                f"the lower parameter q^(a-b+1) truncates the family"
            )
        num = _each_n(lambda k: (-1.0) ** k, n) * (q_pochhammer(q ** (a - b + 1), base, n)
                                                   * q_pochhammer(q ** (a + c + 1), base, n))
        scale = _each_n(lambda k: q ** (k / 2.0 * (3 * a - b + c + 1 + k)) * kq**k, n)
        pre = _cdiv(num, scale * q_pochhammer(q, base, n))
        upper = (np.exp((a - s) * math.log(q)), np.exp((a + s + 1.0) * math.log(q)))
        return pre, upper, (q ** (a - b + 1), q ** (a + c + 1)), q

    qq_inf = q_pochhammer_inf(q, base)  # (q;q)_inf

    def weight(s):
        s = np.asarray(s, dtype=complex)
        pre = _cdiv(
            base.pow(((b - 1.0) ** 2 - (2.0 * s - 1.0) * (a + c)) / 2.0),
            (1.0 - q) ** (2 * (a + c - b) + 1),
        )
        num = q_pochhammer_multi(
            (
                base.pow(s - a + 1.0),
                base.pow(s - c + 1.0),
                base.pow(s + b + 1.0),
                base.pow(b - s),
            ),
            base,
        )
        den = qq_inf**2 * q_pochhammer_multi(
            (base.pow(s + a + 1.0), base.pow(s + c + 1.0)), base
        )
        return _cdiv(pre * num, den)

    def beta_display(n):
        # as tabulated; the general route matches [b-a-n-1]_q in place of
        # [b-a-n+1]_q (suspected erratum); the notes entry below records it,
        # so the family's table takes beta_n from the generic route
        return (
            q ** ((2 * n - b + c + 1) / 2.0) * qn(b - a - n + 1.0) * qn(a + c + n + 1.0)
            + q ** ((2 * n + 2 * a + c - b + 1) / 2.0) * qn(float(n)) * qn(b - c - n)
            + qn(a) * qn(a + 1.0)
        )

    def gamma_n(n):
        return (
            q ** (2 * n + c + a - b)
            * qn(a + c + n)
            * qn(b - a - n)
            * qn(b - c - n)
            * qn(float(n))
        )

    def d_n_sq_tab(n):
        # as tabulated (suspected erratum: disagrees with the orthogonality
        # sum by a factor geometric in n at the reference parameters)
        E = (
            -4 * a * b
            - 4 * b * c
            + 6 * a
            + 6 * c
            - 8 * b
            + 6
            + 4 * n * (a + c - 2 * b)
            - n * n
            + 17 * n
            + 2 * b * b
        )
        return (
            base.pow(E / 4.0)
            / (1.0 - q) ** (2 * (a + c - b + 1) + 3 * n)
            * q_pochhammer_multi((base.pow(b - c - n), base.pow(b - a - n)), base)
            / (
                q_factorial(n, base)
                * (qq_inf * q_pochhammer_inf(base.pow(a + c + n + 1.0), base))
            )
        )

    def tau_intercept(n):
        return (
            q ** ((c - b - n + 1) / 2.0) * qn(c + n / 2.0) * qn(b - n / 2.0)
            + q ** ((a + c - b + 1 - n / 2.0) / 2.0) * qn(a + n / 2.0 + 1.0) * qn(b - c - n - 1.0)
        )

    def u_display(s, n):
        s = complex(s)
        return (
            q ** (0.5 - n / 2.0) * lat.x(s + n / 2.0)
            - q ** (0.5 + n / 2.0) * tau_intercept(n)
            - base.pow((s + c + a - b + 2.0) / 2.0)
            * qn(s - a)
            * qn(s + b)
            * qn(s - c)
            / qn(2.0 * s)
        )

    closed = ClosedForms(
        lambda_n=lambda n: qn(float(n)) * q ** (0.5 - n / 2.0),
        beta_n=beta_display,
        gamma_n=gamma_n,
        tau_slope=lambda n: -base.pow(float(-n)),
        tau_intercept=tau_intercept,
        d_n_sq=d_n_sq_tab,
        weight=weight,
        displays={
            "u": u_display,
            "h_mp": lambda n: base.pow(float(-2 * n)) * gamma_n(n + 1),
        },
        notes={
            "beta_n": "tabulated central recurrence coefficient disagrees with the "
            "generic route (the [b-a-n-1]-type variant matches)",
            "d_0_sq_anchor": "tabulated norm at n=0 vs the direct orthogonality sum",
        },
    )
    return dict(eq=eq, support=(a, b), closed=closed, a_n=a_n, series_fn=series,
                series_points=_series_points(0.3, 0.7), n_max=n_max)


def _aw_weights(a, b, c, d, base: QBase):
    """The tabulated weight omega(x) and the positive density of the
    Askey--Wilson measure (q-Hermite at a = b = c = d = 0).

    The weight and the density are the ratio of eight h-products,

        h(x, 1) h(x, -1) h(x, sqrt q) h(x, -sqrt q) / (den0 h(x, a) h(x, b) h(x, c) h(x, d)),

    h(x, alpha) = prod_k (1 - 2 alpha q^k x + alpha^2 q^{2k}), each product
    taken while |alpha q^k| > 1e-17.  The table of q-power sequences holds,
    per alpha and k, the factor constants 2 alpha q^k and alpha^2 q^{2k}
    (alpha q^k by repeated multiplication, one `_q_orbit` of the eight
    alphas); it is built in one array pass on the first evaluation, so
    making a family costs nothing.  x is an ndarray (one point
    is a one-element array): all eight products run in one loop over k on a
    stacked (8, x.size) array, a row left as it is once its sequence has
    ended, so each entry is the product of its own factors in k order.
    numpy's complex multiply rounds some products differently from Python's,
    so these values can differ in the last bits from a Python-complex loop.
    """
    q = base.q
    kq = base.k_q
    rq = math.sqrt(q)
    alphas = (1.0, -1.0, rq, -rq, a, b, c, d)

    @cache  # built on the first evaluation
    def table():
        """The rank of each alpha's row (rows by falling length), the
        constants (2 alpha q^k, alpha^2 q^{2k}) as (2, k, row) and, per k,
        the number of rows whose sequence has not ended."""
        # steps enough for the largest |alpha| (>= 1) to fall below 1e-17
        top = max(abs(alpha) for alpha in alphas)
        size = math.ceil(math.log(1e-17 / top) / math.log(q)) + 2
        aq = _q_orbit(np.array(alphas), q, size).T  # alpha q^k as (k, alpha)
        lens = np.argmin(np.abs(aq) > 1e-17, axis=0)  # each row's first k at or below
        order = np.argsort(-lens, kind="stable")  # rows by falling length
        consts = np.stack([2.0 * aq, aq * aq])[:, :lens.max(), order]  # read below lens
        live = np.count_nonzero(np.arange(lens.max())[:, None] < lens, axis=1).tolist()
        return np.argsort(order).tolist(), consts, live

    def h_products(x):
        rank, (two_aq, aq_sq), live = table()
        flat = x.reshape(-1).astype(complex)  # cast once, not at every k
        prods = np.ones((len(rank), flat.size), dtype=complex)
        factor = np.empty_like(prods)  # one buffer: no temporary arrays per k
        for k, m in enumerate(live):
            f = factor[:m]
            np.multiply(two_aq[k, :m, None], flat, out=f)
            np.subtract(1.0, f, out=f)
            np.add(f, aq_sq[k, :m, None], out=f)
            prods[:m] *= f
        return [prods[r].reshape(x.shape) for r in rank]

    def h_ratio(x, den0):
        h1, hm1, hrq, hmrq, ha, hb, hc, hd = h_products(x)
        return h1 * hm1 * hrq * hmrq / (den0 * ha * hb * hc * hd)

    def weight(x):
        # tabulated omega(x); carries the (negative for q<1) kappa_q factor
        return h_ratio(x, 2.0 * math.pi * kq * (1.0 - x * x))

    def weight_density(x):
        """Positive density w(x)/(2 pi) with the measure folded in:
        integral of p_n p_m weight_density / sqrt(1-x^2) dx = delta d_n^2,
        at the nodes of the ndarray x."""
        return h_ratio(x, 2.0 * math.pi)

    return weight, weight_density


def _aw_forms(a, b, c, d, base: QBase):
    """What the Askey--Wilson polynomials share with the continuous
    q-Hermite ones, which are them at a = b = c = d = 0: the equation data,
    a_n and the closed forms lambda_n, tau_n', tau_n(0), d_n^2 and the
    weight, with the positive density as a display.  Returns (eq, a_n,
    ClosedForms fields, displays, (abcd, e1, e3)), with e1, e3 elementary
    symmetric sums of the parameters."""
    q = base.q
    abcd, e1 = a * b * c * d, a + b + c + d
    e3 = a * b * c + a * b * d + a * c * d + b * c * d
    # the nonzero pair products: their sum is e2, and (0; q)_inf = 1
    pairs = [p for p in (a * b, a * c, a * d, b * c, b * d, c * d) if p]
    rq = math.sqrt(q)
    eq = EquationData(
        sigma_pp=-4.0 * (q - 1) ** 2 * (1 + abcd) / rq,
        sigma_p0=(q - 1) ** 2 * (e1 + e3) / rq,
        sigma_00=(q - 1) ** 2 * (1 - sum(pairs) + abcd) / rq,
        tau_p=4.0 * (q - 1) * (1 - abcd),
        tau_0=2.0 * (1 - q) * (e1 - e3),
        lattice=Lattice(0.5, 0.5, 0.0, base),
    )

    def a_n(n):
        return 2.0**n * q_pochhammer(abcd * q ** (n - 1), base, n)

    def d_n_sq(n):
        num = q_pochhammer(abcd * q ** (n - 1), base, n) * q_pochhammer_inf(
            abcd * q ** (2 * n), base)
        return num / q_pochhammer_multi((base.pow(float(n + 1)), *(p * q**n for p in pairs)), base)

    weight, weight_density = _aw_weights(a, b, c, d, base)
    forms = {
        "lambda_n": lambda n: 4.0 * base.pow(float(-n + 1)) * (1 - q**n)
        * (1 - abcd * q ** (n - 1)),
        "tau_slope": lambda n: 4.0 * base.pow(float(-n)) * (q - 1) * (1 - abcd * q ** (2 * n)),
        "tau_intercept": lambda n: 2.0 * (q - 1) * (-e1 + e3 * q**n) * base.pow(-n / 2.0),
        "d_n_sq": d_n_sq,
        "weight": weight,
    }
    return eq, a_n, forms, {"weight_density": weight_density}, (abcd, e1, e3)


def _make_askey_wilson(base: QBase, a: float, b: float, c: float, d: float) -> dict:
    for nm, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        _require(abs(v) < 1.0, nm, f"need |{nm}| < 1 for real orthogonality, got {v}")
    _require(a != 0.0, "a", "series prefactor needs a != 0 "
                            "(use continuous_q_hermite for a=b=c=d=0)")
    q = base.q
    eq, a_n, forms, displays, (abcd, e1, e3) = _aw_forms(a, b, c, d, base)
    lat = eq.lattice

    def series(n, s):
        qs = lat.qs(s)
        pre = _cdiv(q_pochhammer_multi((a * b, a * c, a * d), base, n), _each_n(lambda k: a**k, n))
        upper = (_each_n(lambda k: abcd * q ** (k - 1), n), _cdiv(a, qs), a * qs)
        return pre, upper, (a * b, a * c, a * d), q

    def A_n(n):
        return (
            (1 - a * b * q**n)
            * (1 - a * c * q**n)
            * (1 - a * d * q**n)
            * (1 - abcd * q ** (n - 1))
            / (a * (1 - abcd * q ** (2 * n - 1)) * (1 - abcd * q ** (2 * n)))
        )

    def C_n(n):
        return (
            a
            * (1 - q**n)
            * (1 - b * c * q ** (n - 1))
            * (1 - b * d * q ** (n - 1))
            * (1 - c * d * q ** (n - 1))
            / ((1 - abcd * q ** (2 * n - 2)) * (1 - abcd * q ** (2 * n - 1)))
        )

    def D_coef(n):
        return -4.0 * base.pow(-n / 2.0 + 0.5) * (q - 1) * (1 - abcd * q ** (n - 1))

    def u_display(s, n):
        # as tabulated (suspected erratum, see notes)
        s = complex(s)
        qs = lat.qs(s)
        En = (-e1 + e3 * q**n) * base.pow(n / 2.0) / (2.0 * (1 - abcd * q ** (2 * n)))
        t = q_number(2.0 * s - 1.0, base)
        prod = (qs - a) * (qs - b) * (qs - c) * (qs - d)
        return D_coef(n) * (lat.x(s + n / 2.0) + En) + qs**-2 * math.sqrt(q) * prod / t

    closed = ClosedForms(
        **forms,
        beta_n=lambda n: (a + 1.0 / a - (A_n(n) + C_n(n))) / 2.0,
        gamma_n=lambda n: C_n(n) * A_n(n - 1) / 4.0,
        displays={
            **displays,
            "u": u_display,
            "h_mp": lambda n: D_coef(2 * n) * D_coef(2 * n + 2) * C_n(n + 1) * A_n(n) / 4.0,
        },
        notes={"u_display": "displayed u(s,n) disagrees with the general route "
                            "(the sigma/nabla-x term is off by a factor 2)"},
    )
    return dict(eq=eq, support=(-1.0, 1.0), closed=closed, a_n=a_n, series_fn=series,
                series_points=_series_points(3.8, 0.35))


def _make_continuous_q_hermite(base: QBase) -> dict:
    q = base.q
    kq = base.k_q
    # the Askey-Wilson forms at a=b=c=d=0, bit for bit; beta_n and gamma_n
    # are its own, as the Askey-Wilson ones divide by a (a removable a/a)
    eq, a_n, forms, displays, _ = _aw_forms(0.0, 0.0, 0.0, 0.0, base)
    lat = eq.lattice

    def series(n, s):
        # H_n(x|q) = e^{i n theta} 2phi0(q^{-n}, 0; -; q, q^n e^{-2 i theta})
        qs = lat.qs(s)
        z = _cdiv(_each_n(lambda k: base.pow(float(k)), n), qs**2)
        return qs**n, (0.0,), (), z

    def h_pm_display(n):
        # as tabulated (suspected erratum, see notes)
        return 4.0 * kq**2 * base.pow(float(-2 * n + 1)) * (1 - q**n)

    closed = ClosedForms(
        **forms,
        beta_n=lambda n: 0.0,
        gamma_n=lambda n: (1.0 - q**n) / 4.0,
        displays={
            **displays,
            "h_pm": h_pm_display,
            "ham_cminus": lambda s: 2.0 * base.pow(1.5) / q_number(2.0 * complex(s) - 1.0, base),
            "ham_cplus": lambda s: 2.0 * base.pow(1.5) / q_number(2.0 * complex(s) + 1.0, base),
        },
        notes={"h_pm_display": "displayed factorization constant differs from the "
                               "general route by a factor q^2"},
    )
    return dict(eq=eq, support=(-1.0, 1.0), closed=closed, a_n=a_n, series_fn=series,
                series_points=_series_points(2.2, 0.6))


# One row per family: name -> (builder, reference parameters, aliases).  The
# reference parameter names are the parameters the builder requires: it is
# called as build(base, **params) and returns the FamilySpec fields it sets.
_REGISTRY = {
    "asc1": (_make_asc1, {"a": -1.0}, ("al_salam_carlitz_1", "asc_i")),
    "asc2": (_make_asc2, {"a": -1.0}, ("al_salam_carlitz_2", "asc_ii")),
    "big_q_jacobi": (_make_big_q_jacobi, {"a": 0.5, "b": 0.5, "c": -0.5}, ()),
    "q_dual_hahn": (_make_q_dual_hahn, {"a": 0.0, "b": 5.0, "c": 0.25}, ()),
    "askey_wilson": (_make_askey_wilson, {"a": 0.3, "b": 0.3, "c": 0.3, "d": 0.3}, ("aw",)),
    "continuous_q_hermite": (_make_continuous_q_hermite, {}, ("q_hermite", "cqh")),
}
FAMILY_NAMES = tuple(_REGISTRY)
_ALIASES = {alias: name for name, row in _REGISTRY.items() for alias in row[2]}


def reference_params(name: str) -> dict:
    """The reference parameter sets used by the acceptance suites."""
    return dict(_REGISTRY[canonical_name(name)][1])


def canonical_name(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise FamilyError(
            f"unknown family {name!r}; known families: {', '.join(FAMILY_NAMES)}"
        )
    return key


def _finite(param: str, value) -> float:
    """value as a finite float, or FamilyError naming the parameter."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    _require(math.isfinite(out), param, f"must be a finite number, got {value!r}")
    return out


def make_family(name: str, params: dict, base: QBase) -> FamilySpec:
    """Construct a validated FamilySpec: its name is the registry key, its
    params the required parameters as finite floats, in reference order, and
    the family's builder gives the rest.  Constraint violations (a missing,
    unused, non-numeric or non-finite parameter among them) raise
    FamilyError naming the offending parameter."""
    _positive_q(base)
    key = canonical_name(name)
    build, reference, _ = _REGISTRY[key]
    required = tuple(reference)
    missing = [p for p in required if p not in params]
    if missing:
        raise FamilyError(f"parameter {missing[0]!r} invalid: missing (required: {required})")
    extra = [p for p in params if p not in required]
    if extra:
        raise FamilyError(f"parameter {extra[0]!r} invalid: not used by {key}")
    values = {p: _finite(p, params[p]) for p in required}
    return FamilySpec(name=key, params=values, base=base, **build(base, **values))


# -- module-level convenience wrappers --------------------------------------


def eval_series(fam: FamilySpec, n: int, point) -> complex:
    """P_n at a natural-coordinate point via the series route."""
    return fam.pn_series(n, fam.s_from_point(point))


def eval_ttrr(fam: FamilySpec, n: int, point) -> complex:
    """P_n at a natural-coordinate point via the recurrence route."""
    if n < 0:
        return complex(0.0)
    x = np.array([fam.lattice.x(fam.s_from_point(point))])
    return complex(fam.pn_stack(n, x)[n, 0])
