"""Concrete q-polynomial families: Al-Salam--Carlitz I and II, big q-Jacobi,
q-dual Hahn, Askey--Wilson and continuous q-Hermite.

Each family bundles its lattice, the Taylor data of its difference equation,
closed-form weight / norm / recurrence data, a basic-hypergeometric series
evaluator, support description and parameter validation.

Normalization
-------------
Every family has a canonical normalization: the one its series evaluator
produces.  Its leading coefficient a_n is stored explicitly (monic for
Al-Salam--Carlitz, big q-Jacobi; a_n = 2^n (abcd q^{n-1};q)_n for
Askey--Wilson; a_n = 2^n for continuous q-Hermite; a nontrivial closed form
for q-dual Hahn).  The tabulated three-term recurrence coefficients
(alpha_n = 1 style) refer to the *monic* normalization and are converted to
the canonical one through a_n.  `pn_monic` exposes monic values.

Validated vs tabulated data
---------------------------
The general machinery is the ground truth.  Tabulated closed forms that
disagree with it are kept as data, compared by the concordance suite, and
reported as suspected errata; the evaluators use the validated route:

* q-dual Hahn central recurrence coefficient beta_n: the tabulated form
  (with [b-a-n+1]_q) disagrees with the general route, which instead matches
  [b-a-n-1]_q; beta_n is computed generically.
* big q-Jacobi and q-dual Hahn squared norms: the tabulated displays are
  inconsistent with the recurrence data; norms come from the orthogonality
  sum / integral and the ratio d_n^2/d_{n-1}^2 = gamma_n/alpha_{n-1}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .hypergeometric_core import EquationData, lam_ratio, ttrr_coeffs_generic
from .lattice import Lattice, _cdiv
from .orthogonality import InnerProductSpec, discrete_inner, jackson_integral
from .qkernel import (
    QBase,
    SeriesSpec,
    basic_hypergeometric,
    q_factorial,
    q_number,
    q_pochhammer,
    q_pochhammer_inf,
    q_pochhammer_multi,
)

__all__ = [
    "FamilyError",
    "LatticeKind",
    "lattice_kind",
    "SupportSpec",
    "ClosedForms",
    "FamilySpec",
    "make_family",
    "family_names",
    "reference_params",
    "eval_series",
    "eval_ttrr",
    "weight_at",
    "norm_sq",
]


class FamilyError(ValueError):
    """Invalid family name or parameter set."""


def family_names():
    return FAMILY_NAMES


_CMATH_LOG = np.frompyfunc(cmath.log, 1, 1)


def _complex(x):
    """x as a Python complex, or an ndarray of x as a complex ndarray."""
    return np.asarray(x, dtype=complex) if isinstance(x, np.ndarray) else complex(x)


@dataclass(frozen=True)
class SupportSpec:
    """Where the orthogonality lives.

    kind: "discrete_grid"        -> s = a, a+1, ..., b-1, weights Delta x(s-1/2)
          "jackson_integral"     -> integral from z1 to z2 in the Jackson sense
          "continuous_interval"  -> x in (lo, hi) with the family's measure
          "none"                 -> no orthogonality shipped for this family
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    note: str = ""

    @property
    def grid_points(self):
        if self.kind != "discrete_grid":
            raise FamilyError(f"support kind {self.kind!r} has no discrete grid")
        length = round(self.hi - self.lo)
        if abs(self.hi - self.lo - length) > 1e-9 or length < 1:
            raise FamilyError("discrete grid must have integer length b-a >= 1")
        return [self.lo + k for k in range(length)]


@dataclass(frozen=True)
class ClosedForms:
    """Tabulated closed forms for one family (callables; None if not tabulated).

    alpha_n/beta_n/gamma_n are the monic-recurrence displays; d_n_sq is in the
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
    alpha_n: object = None  # defaults to 1 (monic display)
    d_n_sq: object = None
    weight: object = None
    displays: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


class LatticeKind:
    """The shape of x(s) = c1 q^s + c2 q^{-s} + c3, read off the coefficients
    by `lattice_kind`, and every decision that depends on it: how a point in
    the natural coordinate or a `--grid` value maps to s, the default check
    grid, the pointwise weight rho(s), the closed-form rho of the Pearson
    suite, and whether s is complex.  The base class is the quadratic kind
    (real s, weight tabulated in s)."""

    complex_s = False  # s = i theta / ln q: one-step Pearson ratios, branch checks
    grid_start = 0.3

    def s_from_point(self, fam, point) -> complex:
        return _complex(point)

    def s_from_grid_value(self, fam, value) -> complex:
        return complex(value)

    def default_grid(self, fam, count: int) -> list:
        """Nondegenerate default check grid."""
        return [self.grid_start + k for k in range(count)]

    def rho_at_s(self, fam, s) -> complex:
        """Pointwise weight, nonnegative on the real support (elementwise on
        an ndarray of s)."""
        return fam.weight(s)

    def pearson_rho(self, fam, s) -> complex:
        """Closed-form rho(s) whose ratios the Pearson table reproduces."""
        return self.rho_at_s(fam, s)


class _Exponential(LatticeKind):
    """c2 = 0: the natural coordinate is x = c1 q^s + c3, the weight a function of x."""

    grid_start = 0.25

    def s_from_point(self, fam, point) -> complex:
        lat = fam.lattice
        x = _complex(point)
        if np.any(x == lat.c3):
            raise FamilyError(f"x = {lat.c3:g} is not on the exponential lattice")
        if isinstance(x, np.ndarray):
            # cmath's log elementwise: numpy's complex log rounds differently
            # in the last place, which the x -> s -> x round trip of
            # `OrthonormalFamily.phi_point` carries into ill-conditioned Grams
            log = _CMATH_LOG(_cdiv(x - lat.c3, lat.c1)).astype(complex)
            return _cdiv(log, math.log(lat.base.q))
        return cmath.log((x - lat.c3) / lat.c1) / math.log(lat.base.q)

    def rho_at_s(self, fam, s) -> complex:
        return fam.weight(fam.lattice.x_values(s))


class _Trigonometric(LatticeKind):
    """c1 = c2, c3 = 0 with q^s = e^{i theta}: points and `--grid` values are
    theta, and rho is the density on x in [-1, 1]."""

    complex_s = True

    def s_from_point(self, fam, theta) -> complex:
        return complex(0.0, 1.0) * complex(theta) / math.log(fam.lattice.base.q)

    s_from_grid_value = s_from_point

    def theta_grid(self, fam, count: int, parts: int | None = None) -> list:
        """s at theta = (j + 1/2) pi / parts, j < count (parts defaults to count)."""
        parts = parts or count
        return [self.s_from_point(fam, (j + 0.5) * math.pi / parts) for j in range(count)]

    def default_grid(self, fam, count: int) -> list:
        return self.theta_grid(fam, count, count + 1)

    def rho_at_s(self, fam, s) -> complex:
        return fam.closed.displays["weight_density"](fam.lattice.x_values(s))

    def pearson_rho(self, fam, s) -> complex:
        return fam.weight(fam.lattice.x(s)) * fam.lattice.delta_x_mid(s)


QUADRATIC, EXPONENTIAL, TRIGONOMETRIC = LatticeKind(), _Exponential(), _Trigonometric()


def lattice_kind(lat: Lattice) -> LatticeKind:
    """Exponential if c2 = 0, trigonometric if c1 = c2 and c3 = 0, else quadratic."""
    c1, c2, c3 = complex(lat.c1), complex(lat.c2), complex(lat.c3)
    if c2 == 0:
        return EXPONENTIAL
    if c1 == c2 and c3 == 0:
        return TRIGONOMETRIC
    return QUADRATIC


@dataclass(frozen=True)
class FamilySpec:
    """A fully populated family: lattice + equation data + closed forms +
    series evaluator + support + validated recurrence/norm routes.

    Immutable after construction; evaluators are pure.  The private cache
    only memoizes idempotent derived values (norms, recurrence coefficients),
    so concurrent use is safe: a race at worst recomputes the same number.
    """

    name: str
    params: dict
    base: QBase  # user-facing base q (0 < q < 1)
    eq: EquationData  # canonical B(n); internal base may be 1/q (asc2)
    support: SupportSpec
    closed: ClosedForms
    a_n: object  # callable n -> canonical leading coefficient
    series_fn: object  # callable (n, s) -> canonical value at lattice coordinate s
    n_max: int | None = None  # highest n of the orthogonal family (None = infinite)
    # lattice coordinates where the series route is well conditioned up to
    # n = 10 (n_max for a finite family): the concordance series-vs-ttrr points
    series_points: tuple = ()
    beta_source: str = "closed"  # "closed" | "generic"
    norm_source: str = "closed"  # "closed" | "ratio" | "discrete_sum"
    perturb: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    # -- lattice and natural coordinate ------------------------------------
    @property
    def lattice(self) -> Lattice:
        return self.eq.lattice

    @cached_property
    def kind(self) -> LatticeKind:
        return lattice_kind(self.lattice)

    def s_from_point(self, point) -> complex:
        """Map the family's natural coordinate to the lattice coordinate s."""
        return self.kind.s_from_point(self, point)

    # -- polynomial evaluation --------------------------------------------
    def pn_series(self, n: int, s) -> complex:
        """Canonical-normalization value of P_n at lattice coordinate s via the
        basic-hypergeometric representation."""
        if n < 0:
            return complex(0.0)
        return self.series_fn(n, s)

    def pn_ttrr(self, n: int, s) -> complex:
        """Canonical value of P_n via the (stable) three-term recurrence, at
        one point or elementwise on an ndarray of s."""
        return self.pn_ttrr_x(n, self.lattice.x_values(s))

    def pn_ttrr_x(self, n: int, x) -> complex:
        """Recurrence route directly in the polynomial variable x (a number,
        or an array of x values evaluated elementwise): row n of the stacked
        recurrence."""
        if n < 0:
            return complex(0.0)
        return self._monic_stack(n, x)[n] * self.a_n(n)

    def pn_stack(self, N: int, x):
        """P_0..P_N (canonical) at x from one pass of the recurrence: a list
        of N+1 Python complex numbers at one x, an (N+1, *x.shape) ndarray
        for an ndarray of x."""
        rows = [p * self.a_n(k) for k, p in enumerate(self._monic_stack(N, x))]
        if isinstance(x, np.ndarray):
            return np.stack([np.broadcast_to(p, x.shape) for p in rows])
        return rows

    def _monic_stack(self, N: int, x) -> list:
        """Monic P_0..P_N at x by the three-term recurrence."""
        pm, pc = complex(0.0), complex(1.0)  # monic P_{-1}, P_0
        rows = [pc]
        for k in range(N):
            pm, pc = pc, (x - self.ttrr_beta(k)) * pc - self.ttrr_gamma_monic(k) * pm
            rows.append(pc)
        return rows

    def pn_monic(self, n: int, s) -> complex:
        """Monic-normalization value P_n / a_n."""
        return self.pn_ttrr(n, s) / self.a_n(n)

    # -- validated recurrence coefficients ---------------------------------
    def ttrr_beta(self, n: int) -> complex:
        """beta_n, the same in the monic and the canonical normalization."""
        key = ("beta", n)
        if key not in self._cache:
            if self.beta_source == "generic":
                val = ttrr_coeffs_generic(self.eq, n, 1.0)[1]
            else:
                val = complex(self.closed.beta_n(n))
            self._cache[key] = val
        return self._cache[key] + complex(self.perturb.get("beta", 0.0))

    def ttrr_gamma_monic(self, n: int) -> complex:
        if n == 0:
            return complex(0.0)
        return complex(self.closed.gamma_n(n)) + complex(self.perturb.get("gamma", 0.0))

    def ttrr_alpha(self, n: int) -> complex:
        """Canonical alpha_n = a_n / a_{n+1}."""
        return self.a_n(n) / self.a_n(n + 1)

    def ttrr_gamma(self, n: int) -> complex:
        """Canonical gamma_n = gamma_n^monic * a_n / a_{n-1}."""
        if n == 0:
            return complex(0.0)
        return self.ttrr_gamma_monic(n) * self.a_n(n) / self.a_n(n - 1)

    def lambda_closed(self, n) -> complex:
        return complex(self.closed.lambda_n(n))

    # -- norms --------------------------------------------------------------
    def norm_sq(self, n: int) -> complex:
        """Validated squared norm of canonical P_n (source per `norm_source`)."""
        if self.n_max is not None and n > self.n_max:
            raise FamilyError(
                f"{self.name}: norm undefined beyond the finite family (n_max={self.n_max})"
            )
        key = ("dsq", n)
        if key not in self._cache:
            self._cache[key] = self._compute_norm_sq(n)
        return self._cache[key]

    def d_n(self, n: int) -> complex:
        """Principal square root of norm_sq, cached so ratios stay consistent."""
        key = ("d", n)
        if key not in self._cache:
            self._cache[key] = cmath.sqrt(self.norm_sq(n))
        return self._cache[key]

    def _compute_norm_sq(self, n: int) -> complex:
        if self.norm_source == "closed":
            return complex(self.closed.d_n_sq(n))
        if self.norm_source == "ratio":
            # d_n^2 = d_0^2 prod_{k<=n} gamma_k/alpha_{k-1} (canonical)
            out = self._norm_anchor()
            for k in range(1, n + 1):
                out *= self.ttrr_gamma(k) / self.ttrr_alpha(k - 1)
            return out
        if self.norm_source == "discrete_sum":
            # one weight pass gives every norm of the finite family
            top = max(n, self.n_max or 0)
            spec = InnerProductSpec(self.lattice, tuple(self.support.grid_points))
            sums = discrete_inner(
                spec, lambda s: self.pn_stack(top, self.lattice.x_values(s)) ** 2, self.weight
            )
            for k in range(top + 1):
                self._cache[("dsq", k)] = complex(sums[k])
            return self._cache[("dsq", n)]
        raise FamilyError(f"unknown norm source {self.norm_source!r}")

    def _norm_anchor(self) -> complex:
        """d_0^2 of the ratio route: the Jackson integral of the weight over a
        Jackson support, else the closed d_0^2."""
        key = ("d0",)
        if key not in self._cache:
            sup = self.support
            if sup.kind == "jackson_integral":
                self._cache[key] = jackson_integral(self.weight, sup.lo, sup.hi, self.base)
            else:
                self._cache[key] = complex(self.closed.d_n_sq(0))
        return self._cache[key]

    # -- weight -------------------------------------------------------------
    def weight(self, point) -> complex:
        """Closed-form weight at a natural-coordinate point (dual Hahn: at s),
        or elementwise on an ndarray of points."""
        if self.closed.weight is None:
            raise FamilyError(
                f"{self.name}: no closed-form weight is tabulated; "
                "use the Pearson table instead"
            )
        w = self.closed.weight(point)
        return w if isinstance(point, np.ndarray) else complex(w)

    def with_perturbation(self, name: str, delta: float) -> "FamilySpec":
        """A copy with a named closed-form coefficient shifted by delta
        (negative-control runs)."""
        if name not in ("beta", "gamma"):
            raise FamilyError(f"unknown perturbation target {name!r}")
        newp = dict(self.perturb)
        newp[name] = newp.get(name, 0.0) + delta
        return replace(self, perturb=newp, _cache={})


# ==========================================================================
# family constructors
# ==========================================================================


def _positive_q(base: QBase):
    if not base.allows_infinite_products:
        raise FamilyError("families require 0 < q < 1 (base.q)")


def _B_from_leading(eq: EquationData, a_n):
    def B(n: int) -> complex:
        out = complex(a_n(n))
        for k in range(n):
            out /= -lam_ratio(eq, n + k)
        return out

    return B


def _require(cond: bool, param: str, message: str):
    if not cond:
        raise FamilyError(f"parameter {param!r} invalid: {message}")


def _series_points(start: float, step: float) -> tuple:
    return tuple(start + step * j for j in range(7))


def _make_asc1(params: dict, base: QBase) -> FamilySpec:
    a = float(params["a"])
    _require(a != 0.0, "a", "must be nonzero (weight support [a,1] degenerates)")
    q = base.q
    lat = Lattice(1.0, 0.0, 0.0, base)
    rq = math.sqrt(q)
    eq0 = EquationData(
        sigma_pp=1.0,
        sigma_p0=-(a + 1.0) / 2.0,
        sigma_00=a,
        tau_p=rq / (1.0 - q),
        tau_0=rq * (1.0 + a) / (q - 1.0),
        lattice=lat,
    )
    a_n = lambda n: complex(1.0)
    eq = replace(eq0, B=_B_from_leading(eq0, a_n))

    def series(n, s):
        x = lat.x(s)
        if x == 0:
            raise FamilyError("series evaluator needs x != 0 (it uses 1/x)")
        pre = (-a) ** n * q ** (n * (n - 1) / 2.0)
        spec = SeriesSpec(
            upper=(base.pow(float(-n)), 1.0 / x),
            lower=(0.0,),
            z=q * x / a,
            terminate_at=n,
        )
        return pre * basic_hypergeometric(spec, base)

    def weight(x):
        x = _complex(x)
        return q_pochhammer_inf(q * x, base) * q_pochhammer_inf(_cdiv(q * x, a), base)

    def d_n_sq(n):
        const = q_pochhammer_multi((q, a, q / a), base)
        return (
            (-a) ** n
            * (1.0 - q)
            * q_pochhammer(q, base, n)
            * const
            * q ** (n * (n - 1) / 2.0)
        )

    def u_display(s, n):
        return a * q / (1.0 - q) / lat.x(s)

    def h_mp_display(n):
        return a * q ** (1 - n) * (q ** (n + 1) - 1.0) / (q - 1.0) ** 2

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
        lambda_n=lambda n: q_number(float(n), base) * q ** (1 - n / 2.0) / (q - 1.0),
        beta_n=lambda n: (1.0 + a) * q**n,
        gamma_n=lambda n: a * q ** (n - 1) * (q**n - 1.0),
        tau_slope=lambda n: q ** (0.5 - n) / (1.0 - q),
        tau_intercept=lambda n: q ** ((1.0 - n) / 2.0) * (a + 1.0) / (q - 1.0),
        d_n_sq=d_n_sq,
        weight=weight,
        displays={"u": u_display, "h_mp": h_mp_display, "ham_i": ham_i_display,
                  "pearson_ratio": pearson_ratio},
        notes={
            "hamiltonian_i_display": "displayed identity-term of the three-point "
            "operator: its 1/x coefficient lacks the parameter factor a",
            "pearson_ratio": "oracle 1/((1-qx)(1-qx/a))",
        },
    )
    return FamilySpec(
        name="asc1",
        params={"a": a},
        base=base,
        eq=eq,
        support=SupportSpec("jackson_integral", a, 1.0, "d_q x on [a, 1]"),
        closed=closed,
        a_n=a_n,
        series_fn=series,
        series_points=_series_points(-3.0, 0.9),
        norm_source="closed",
    )


def _make_asc2(params: dict, base: QBase) -> FamilySpec:
    a = float(params["a"])
    _require(a != 0.0, "a", "must be nonzero")
    q = base.q
    ibase = base.inverted()  # the family is the base-inverted ASC1
    iq = ibase.q
    lat = Lattice(1.0, 0.0, 0.0, ibase)
    rq = math.sqrt(iq)
    eq0 = EquationData(
        sigma_pp=1.0,
        sigma_p0=-(a + 1.0) / 2.0,
        sigma_00=a,
        tau_p=rq / (1.0 - iq),
        tau_0=rq * (1.0 + a) / (iq - 1.0),
        lattice=lat,
    )
    a_n = lambda n: complex(1.0)
    eq = replace(eq0, B=_B_from_leading(eq0, a_n))

    def series(n, s):
        # V_n^{(a)}(x; q) = U_n^{(a)}(x; 1/q), evaluated as the 2phi0 form in
        # the user's base q (terminating, so no q>1 products are needed)
        x = lat.x(s)
        pre = (-a) ** n * q ** (-n * (n - 1) / 2.0)
        spec = SeriesSpec(
            upper=(base.pow(float(-n)), x),
            lower=(),
            z=base.pow(float(n)) / a,
            terminate_at=n,
        )
        return pre * basic_hypergeometric(spec, base)

    def d_n_sq(n):
        # reduced norm: the n-independent (q~, a, q~/a; q~)_inf constant of the
        # base-inverted closed form diverges for q~ > 1 and is dropped
        # (only ratios enter the ladder identities); anchored at d_0^2 = 1.
        return (-a) ** n * q_pochhammer(iq, ibase, n) * iq ** (n * (n - 1) / 2.0)

    closed = ClosedForms(
        lambda_n=lambda n: q_number(float(n), ibase) * iq ** (1 - n / 2.0) / (iq - 1.0),
        beta_n=lambda n: (1.0 + a) * iq**n,
        gamma_n=lambda n: a * iq ** (n - 1) * (iq**n - 1.0),
        tau_slope=lambda n: iq ** (0.5 - n) / (1.0 - iq),
        tau_intercept=lambda n: iq ** ((1.0 - n) / 2.0) * (a + 1.0) / (iq - 1.0),
        d_n_sq=d_n_sq,
        weight=None,
        displays={
            "u": lambda s, n: a * iq / (1.0 - iq) / lat.x(s),
            "h_mp": lambda n: a * iq ** (1 - n) * (iq ** (n + 1) - 1.0) / (iq - 1.0) ** 2,
        },
    )
    return FamilySpec(
        name="asc2",
        params={"a": a},
        base=base,
        eq=eq,
        support=SupportSpec("none", note="no orthogonality relation tabulated"),
        closed=closed,
        a_n=a_n,
        series_fn=series,
        series_points=_series_points(-3.0, 0.9),
        norm_source="ratio",
    )


def _make_big_q_jacobi(params: dict, base: QBase) -> FamilySpec:
    a, b, c = (float(params[k]) for k in ("a", "b", "c"))
    q = base.q
    _require(0.0 < a * q < 1.0, "a", f"need 0 < a q < 1, got a q = {a * q}")
    _require(0.0 <= b * q < 1.0, "b", f"need 0 <= b q < 1, got b q = {b * q}")
    _require(c < 0.0, "c", f"need c < 0, got {c}")
    lat = Lattice(1.0, 0.0, 0.0, base)
    rq = math.sqrt(q)
    eq0 = EquationData(
        sigma_pp=(1.0 + a * b * q * q) / q,
        sigma_p0=-(a * b * q + a * c * q + a + c) / 2.0,
        sigma_00=a * c * q,
        tau_p=(1.0 - a * b * q * q) / ((1.0 - q) * rq),
        tau_0=rq * (a * (b * q - 1.0) + c * (a * q - 1.0)) / (1.0 - q),
        lattice=lat,
    )
    a_n = lambda n: complex(1.0)
    eq = replace(eq0, B=_B_from_leading(eq0, a_n))

    def series(n, s):
        x = lat.x(s)
        pre = (
            q_pochhammer(a * q, base, n)
            * q_pochhammer(c * q, base, n)
            / q_pochhammer(a * b * q ** (n + 1), base, n)
        )
        spec = SeriesSpec(
            upper=(base.pow(float(-n)), a * b * q ** (n + 1), x),
            lower=(a * q, c * q),
            z=q,
            terminate_at=n,
        )
        return pre * basic_hypergeometric(spec, base)

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

    def weight(x):
        x = _complex(x)
        return _cdiv(
            q_pochhammer_inf(_cdiv(x, a), base) * q_pochhammer_inf(_cdiv(x, c), base),
            q_pochhammer_inf(x, base) * q_pochhammer_inf(_cdiv(b * x, c), base),
        )

    def d_n_sq_tab(n):
        # as tabulated (suspected erratum: the (a b q^{n+1};q)_n factor is
        # repeated and the n-independent prefactor does not match the
        # orthogonality integral); kept for the concordance comparison only
        pre = (
            a
            * q
            * (1 - q)
            * q_pochhammer_multi((q, c / a, a * q / c, a * b * q * q), base)
            / q_pochhammer_multi((a * q, b * q, c * q, a * b * q / c), base)
        )
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
        return pre * num / den

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
        weight=weight,
        displays={"u": u_display, "h_mp": h_mp_display},
        notes={"d_0_sq_anchor": "tabulated norm prefactor disagrees with the direct "
                                "orthogonality integral of the weight"},
    )
    return FamilySpec(
        name="big_q_jacobi",
        params={"a": a, "b": b, "c": c},
        base=base,
        eq=eq,
        support=SupportSpec("jackson_integral", c * q, a * q, "d_q x on [cq, aq]"),
        closed=closed,
        a_n=a_n,
        series_fn=series,
        series_points=_series_points(-3.9, 0.25),
        norm_source="ratio",
    )


def _make_q_dual_hahn(params: dict, base: QBase) -> FamilySpec:
    a, b, c = (float(params[k]) for k in ("a", "b", "c"))
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

    eq0 = EquationData(
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

    eq = replace(eq0, B=_B_from_leading(eq0, a_n))
    n_max = round(nb) - 1

    def series(n, s):
        if n > n_max:
            raise FamilyError(
                f"q_dual_hahn series is undefined for n={n} > n_max={n_max}: "
                f"the lower parameter q^(a-b+1) truncates the family"
            )
        s = complex(s)
        pre = (-1.0) ** n * (
            q_pochhammer(q ** (a - b + 1), base, n)
            * q_pochhammer(q ** (a + c + 1), base, n)
        ) / (q ** (n / 2.0 * (3 * a - b + c + 1 + n)) * kq**n * q_pochhammer(q, base, n))
        spec = SeriesSpec(
            upper=(
                base.pow(float(-n)),
                cmath.exp((a - s) * math.log(q)),
                cmath.exp((a + s + 1.0) * math.log(q)),
            ),
            lower=(q ** (a - b + 1), q ** (a + c + 1)),
            z=q,
            terminate_at=n,
        )
        return pre * basic_hypergeometric(spec, base)

    def weight(s):
        s = _complex(s)
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
        den = q_pochhammer_inf(q, base) ** 2 * q_pochhammer_multi(
            (base.pow(s + a + 1.0), base.pow(s + c + 1.0)), base
        )
        return _cdiv(pre * num, den)

    def beta_display(n):
        # as tabulated; the general route matches [b-a-n-1]_q in place of
        # [b-a-n+1]_q (suspected erratum), so beta_source="generic" below
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
                * q_pochhammer_multi((q, base.pow(a + c + n + 1.0)), base)
            )
        )

    def u_display(s, n):
        s = complex(s)
        return (
            q ** (0.5 - n / 2.0) * lat.x(s + n / 2.0)
            - q ** (0.5 + n / 2.0)
            * (
                q ** ((c - b - n + 1) / 2.0) * qn(c + n / 2.0) * qn(b - n / 2.0)
                + q ** ((a + c - b + 1 - n / 2.0) / 2.0)
                * qn(a + n / 2.0 + 1.0)
                * qn(b - c - n - 1.0)
            )
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
        tau_intercept=lambda n: q ** ((c - b - n + 1) / 2.0)
        * qn(c + n / 2.0)
        * qn(b - n / 2.0)
        + q ** ((a + c - b + 1 - n / 2.0) / 2.0)
        * qn(a + n / 2.0 + 1.0)
        * qn(b - c - n - 1.0),
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
    return FamilySpec(
        name="q_dual_hahn",
        params={"a": a, "b": b, "c": c},
        base=base,
        eq=eq,
        support=SupportSpec("discrete_grid", a, b, "s = a..b-1, weights Delta x(s-1/2)"),
        closed=closed,
        a_n=a_n,
        series_fn=series,
        series_points=_series_points(0.3, 0.7),
        n_max=n_max,
        beta_source="generic",
        norm_source="discrete_sum",
    )


def _aw_equation_data(a, b, c, d, base: QBase) -> EquationData:
    q = base.q
    lat = Lattice(0.5, 0.5, 0.0, base)
    abcd = a * b * c * d
    e1 = a + b + c + d
    e2 = a * b + a * c + a * d + b * c + b * d + c * d
    e3 = a * b * c + a * b * d + a * c * d + b * c * d
    rq = math.sqrt(q)
    return EquationData(
        sigma_pp=-4.0 * (q - 1) ** 2 * (1 + abcd) / rq,
        sigma_p0=(q - 1) ** 2 * (e1 + e3) / rq,
        sigma_00=(q - 1) ** 2 * (1 - e2 + abcd) / rq,
        tau_p=4.0 * (q - 1) * (1 - abcd),
        tau_0=2.0 * (1 - q) * (e1 - e3),
        lattice=lat,
    )


def _aw_weights(a, b, c, d, base: QBase):
    """h(x, alpha), the tabulated weight omega(x) and the positive density of
    the Askey--Wilson measure (q-Hermite at a = b = c = d = 0)."""
    q = base.q
    kq = base.k_q
    rq = math.sqrt(q)

    def h_pair(x, alpha):
        # h(x, alpha) = prod_k (1 - 2 alpha x q^k + alpha^2 q^{2k})
        out = complex(1.0)
        aq = complex(alpha)
        while abs(aq) > 1e-17:
            out *= 1.0 - 2.0 * aq * x + aq * aq
            aq *= q
        return out

    def h_ratio(x, den0):
        # h(x,1) h(x,-1) h(x,sqrt q) h(x,-sqrt q) / (den0 h(x,a) h(x,b) h(x,c) h(x,d))
        num = h_pair(x, 1.0) * h_pair(x, -1.0) * h_pair(x, rq) * h_pair(x, -rq)
        return num / (den0 * h_pair(x, a) * h_pair(x, b) * h_pair(x, c) * h_pair(x, d))

    def weight(x):
        # tabulated omega(x); carries the (negative for q<1) kappa_q factor
        x = complex(x)
        return h_ratio(x, 2.0 * math.pi * kq * (1.0 - x * x))

    def weight_density(x):
        """Positive density w(x)/(2 pi) with the measure folded in:
        integral of p_n p_m weight_density / sqrt(1-x^2) dx = delta d_n^2.
        x may be an array of nodes."""
        return h_ratio(x, 2.0 * math.pi)

    return h_pair, weight, weight_density


def _make_askey_wilson(params: dict, base: QBase) -> FamilySpec:
    a, b, c, d = (float(params[k]) for k in ("a", "b", "c", "d"))
    for nm, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        _require(abs(v) < 1.0, nm, f"need |{nm}| < 1 for real orthogonality, got {v}")
    _require(a != 0.0, "a", "series prefactor needs a != 0 "
                            "(use continuous_q_hermite for a=b=c=d=0)")
    q = base.q
    eq0 = _aw_equation_data(a, b, c, d, base)
    lat = eq0.lattice
    abcd = a * b * c * d
    e1 = a + b + c + d
    e3 = a * b * c + a * b * d + a * c * d + b * c * d

    def a_n(n):
        return 2.0**n * q_pochhammer(abcd * q ** (n - 1), base, n)

    eq = replace(eq0, B=_B_from_leading(eq0, a_n))

    def series(n, s):
        qs = lat.qs(s)
        pre = (
            q_pochhammer_multi((a * b, a * c, a * d), base, n) / a**n
        )
        spec = SeriesSpec(
            upper=(base.pow(float(-n)), abcd * q ** (n - 1), a / qs, a * qs),
            lower=(a * b, a * c, a * d),
            z=q,
            terminate_at=n,
        )
        return pre * basic_hypergeometric(spec, base)

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

    h_pair, weight, weight_density = _aw_weights(a, b, c, d, base)

    def d_n_sq(n):
        num = q_pochhammer(abcd * q ** (n - 1), base, n) * q_pochhammer_inf(
            abcd * q ** (2 * n), base
        )
        den = q_pochhammer_multi(
            (
                base.pow(float(n + 1)),
                a * b * q**n,
                a * c * q**n,
                a * d * q**n,
                b * c * q**n,
                b * d * q**n,
                c * d * q**n,
            ),
            base,
        )
        return num / den

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
        lambda_n=lambda n: 4.0 * base.pow(float(-n + 1)) * (1 - q**n) * (1 - abcd * q ** (n - 1)),
        beta_n=lambda n: (a + 1.0 / a - (A_n(n) + C_n(n))) / 2.0,
        gamma_n=lambda n: C_n(n) * A_n(n - 1) / 4.0,
        tau_slope=lambda n: 4.0 * base.pow(float(-n)) * (q - 1) * (1 - abcd * q ** (2 * n)),
        tau_intercept=lambda n: 2.0 * (q - 1) * (-e1 + e3 * q**n) * base.pow(-n / 2.0),
        d_n_sq=d_n_sq,
        weight=weight,
        displays={
            "u": u_display,
            "h_mp": lambda n: D_coef(2 * n) * D_coef(2 * n + 2) * C_n(n + 1) * A_n(n) / 4.0,
            "weight_density": weight_density,
            "h_pair": h_pair,
        },
        notes={"u_display": "displayed u(s,n) disagrees with the general route "
                            "(the sigma/nabla-x term is off by a factor 2)"},
    )
    return FamilySpec(
        name="askey_wilson",
        params={"a": a, "b": b, "c": c, "d": d},
        base=base,
        eq=eq,
        support=SupportSpec("continuous_interval", -1.0, 1.0,
                            "weight * sqrt(1-x^2) * kappa_q dx on [-1, 1]"),
        closed=closed,
        a_n=a_n,
        series_fn=series,
        series_points=_series_points(3.8, 0.35),
        norm_source="closed",
    )


def _make_continuous_q_hermite(params: dict, base: QBase) -> FamilySpec:
    q = base.q
    kq = base.k_q
    # bit-for-bit the Askey-Wilson equation data at a=b=c=d=0
    eq0 = _aw_equation_data(0.0, 0.0, 0.0, 0.0, base)
    lat = eq0.lattice

    def a_n(n):
        return complex(2.0**n)

    eq = replace(eq0, B=_B_from_leading(eq0, a_n))

    def series(n, s):
        # H_n(x|q) = e^{i n theta} 2phi0(q^{-n}, 0; -; q, q^n e^{-2 i theta})
        qs = lat.qs(s)
        spec = SeriesSpec(
            upper=(base.pow(float(-n)), 0.0),
            lower=(),
            z=base.pow(float(n)) / qs**2,
            terminate_at=n,
        )
        return qs**n * basic_hypergeometric(spec, base)

    _, weight, weight_density = _aw_weights(0.0, 0.0, 0.0, 0.0, base)

    def h_pm_display(n):
        # as tabulated (suspected erratum, see notes)
        return 4.0 * kq**2 * base.pow(float(-2 * n + 1)) * (1 - q**n)

    closed = ClosedForms(
        lambda_n=lambda n: 4.0 * base.pow(float(-n + 1)) * (1 - q**n),
        beta_n=lambda n: 0.0,
        gamma_n=lambda n: (1.0 - q**n) / 4.0,
        tau_slope=lambda n: 4.0 * base.pow(float(-n)) * (q - 1),
        tau_intercept=lambda n: 0.0,
        d_n_sq=lambda n: 1.0 / q_pochhammer_inf(base.pow(float(n + 1)), base),
        weight=weight,
        displays={
            "h_pm": h_pm_display,
            "weight_density": weight_density,
            "ham_cminus": lambda s: 2.0 * base.pow(1.5) / q_number(2.0 * complex(s) - 1.0, base),
            "ham_cplus": lambda s: 2.0 * base.pow(1.5) / q_number(2.0 * complex(s) + 1.0, base),
        },
        notes={"h_pm_display": "displayed factorization constant differs from the "
                               "general route by a factor q^2"},
    )
    return FamilySpec(
        name="continuous_q_hermite",
        params={},
        base=base,
        eq=eq,
        support=SupportSpec("continuous_interval", -1.0, 1.0,
                            "weight * sqrt(1-x^2) * kappa_q dx on [-1, 1]"),
        closed=closed,
        a_n=a_n,
        series_fn=series,
        series_points=_series_points(2.2, 0.6),
        norm_source="closed",
    )


# One row per family: name -> (builder, reference parameters, aliases).  The
# reference parameter names are the parameters the builder requires.
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


def make_family(name: str, params: dict, base: QBase) -> FamilySpec:
    """Construct a validated FamilySpec; constraint violations raise
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
    return build(params, base)


# -- module-level convenience wrappers --------------------------------------


def eval_series(fam: FamilySpec, n: int, point) -> complex:
    """P_n at a natural-coordinate point via the series route."""
    return fam.pn_series(n, fam.s_from_point(point))


def eval_ttrr(fam: FamilySpec, n: int, point) -> complex:
    """P_n at a natural-coordinate point via the recurrence route."""
    return fam.pn_ttrr(n, fam.s_from_point(point))


def weight_at(fam: FamilySpec, point) -> complex:
    return fam.weight(point)


def norm_sq(fam: FamilySpec, n: int) -> complex:
    return fam.norm_sq(n)
