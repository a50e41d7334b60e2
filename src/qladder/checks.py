"""Named identity suites over one family: orchestration between the ladder /
core checks and the CLI, including the closed-form-vs-general concordance
suite that emits suspected-erratum records.

Every suite returns a CheckReport; suite names are the `--suite` vocabulary.
"""

from __future__ import annotations

import time

import numpy as np

from .hypergeometric_core import (
    check_poly_lowering,
    check_poly_raising,
    lambda_n,
    pearson_weight,
    rel_residual,
    rodrigues_eval,
    tau_k_coeffs,
    ttrr_coeffs_generic,
)
from .lattice import GridFunction, kfold_forward_diff
from .ladder import (
    _RAISE_FP,
    OrthonormalFamily,
    StencilGrid,
    check_adjoint,
    check_bootstrap,
    check_branch_continuity,
    check_eigen,
    check_factorization,
    check_h_remark,
    check_h_s_independence,
    check_lowering,
    check_raising,
    check_selfadjoint,
    check_ttrr_phi,
    check_uv_shift,
    h_minusplus,
    h_plusminus,
)
from .orthogonality import QUADRATURE_RULE, gram_matrix, jackson_integral
from .qkernel import QKernelError, q_factorial, q_number
from .report import CaseRecord, CheckReport

__all__ = [
    "SUITE_NAMES",
    "default_grid",
    "run_suite",
    "run_suites",
    "concordance_suite",
    "difference_calculus_suite",
    "rodrigues_suite",
    "pearson_suite",
    "orthonormality_suite",
    "poly_ladder_suite",
]

SUITE_NAMES = (
    "eigen",
    "ttrr_phi",
    "raising",
    "lowering",
    "uv_shift",
    "h_remark",
    "h_s_independence",
    "factorization",
    "bootstrap",
    "adjoint",
    "selfadjoint",
    "poly_ladder",
    "pearson",
    "rodrigues",
    "orthonormality",
    "concordance",
    "difference_calculus",
    "branch_continuity",
)

# empirical double-precision headroom per suite (relative residuals)
_DEFAULT_TOL = {
    "eigen": 1e-9,
    "ttrr_phi": 1e-9,
    "raising": 1e-9,
    "lowering": 1e-9,
    "uv_shift": 1e-10,
    "h_remark": 1e-12,
    "h_s_independence": 1e-10,
    "factorization": 1e-9,
    "bootstrap": 1e-8,
    "adjoint": 1e-8,
    "selfadjoint": 1e-8,
    "poly_ladder": 1e-10,
    "pearson": 1e-10,
    "rodrigues": 1e-9,
    "orthonormality": 1e-8,
    "concordance": 1e-9,
    "difference_calculus": 1e-10,
    "branch_continuity": 0.2,
}


def default_grid(fam, count: int = 5):
    """Nondegenerate default check grid of the family's lattice kind."""
    return fam.kind.default_grid(fam, count)


def concordance_suite(fam, n_hi: int = 8, tolerance: float = 1e-9) -> CheckReport:
    """Closed tabulated data vs the general machinery: eigenvalues, tau_n data,
    recurrence coefficients, norm ratios and anchors, and the secondary
    displayed expressions (u, h, Hamiltonian terms).  Mismatches become
    suspected-erratum records in meta['errata']; the suite passes when every
    compared quantity either matches or is recorded."""
    rep = CheckReport(
        suite="concordance",
        identity="tabulated closed forms vs the general difference-equation machinery",
        family=fam.name,
        tolerance=tolerance,
    )
    eq = fam.eq
    errata: list = []
    grid = default_grid(fam)
    notes = fam.closed.notes

    def compare(quantity, label, got, expect, tol=tolerance, detail=""):
        got = complex(got)
        expect = complex(expect)
        err = abs(got - expect)
        rel = err / max(abs(got), abs(expect), 1e-12)
        # a mismatch is recorded as a suspected erratum; the record, not
        # silence, is the pass condition, so every case carries residual 0
        rep.cases.append(CaseRecord(0, label, 0.0, quantity))
        if not (err <= 1e-12 or rel <= tol):
            errata.append({
                "family": rep.family, "quantity": quantity, "case": label, "rel_dev": rel,
                "detail": notes.get(quantity, detail)
                or f"tabulated {got:.9g} vs general {expect:.9g}",
            })

    for n in range(0, 11):
        compare("lambda_n", f"n={n}", fam.lambda_closed(n), lambda_n(eq, n))
    for n in range(0, n_hi + 1):
        tk = tau_k_coeffs(eq, float(n))
        compare("tau_n_slope", f"n={n}", fam.closed.tau_slope(n), tk.slope)
        compare("tau_n_intercept", f"n={n}", fam.closed.tau_intercept(n), tk.intercept)

    # beta display vs the generic route (monic normalization)
    for n in range(0, n_hi + 1):
        compare("beta_n", f"n={n}", fam.closed.beta_n(n), ttrr_coeffs_generic(eq, n, 1.0)[1])

    # tabulated d_n^2 ratio vs gamma_n/alpha_{n-1} (canonical normalization)
    if fam.closed.d_n_sq is not None:
        for n in range(1, n_hi + 1):
            try:
                tab_ratio = complex(fam.closed.d_n_sq(n)) / complex(fam.closed.d_n_sq(n - 1))
            except Exception:
                break
            compare("d_n_sq_ratio", f"n={n}", tab_ratio, fam.ttrr_gamma(n) / fam.ttrr_alpha(n - 1),
                    detail="tabulated squared-norm ratio is inconsistent with the "
                    "recurrence coefficients gamma_n/alpha_{n-1}")

    # where the validated norm comes from the orthogonality measure (Jackson
    # integral or discrete sum), the tabulated anchor d_0^2 is compared to it
    if fam.norm_source != "closed" and fam.support.kind != "none":
        compare("d_0_sq_anchor", "n=0", fam.closed.d_n_sq(0), fam.norm_sq(0), 1e-8)

    # recurrence route vs series route; the points are chosen where the
    # alternating series is well conditioned (terms of size q^{-n(n-1)/2}
    # must not dwarf the value), which for the exponential lattices means
    # |x| above the support scale and for the trigonometric one x off the
    # orthogonality interval -- the polynomial identity holds everywhere
    ncap = min(10, fam.n_max) if fam.n_max is not None else 10
    for n in range(0, ncap + 1):
        for s in fam.series_points:
            compare("series_vs_ttrr", f"n={n},s={complex(s):.4g}", fam.pn_series(n, s),
                    fam.pn_ttrr(n, s), max(tolerance, 1e-10))

    _compare_displays(fam, grid[:3], compare)
    rep.meta["errata"] = errata
    return rep


@_RAISE_FP
def _compare_displays(fam, grid, compare):
    """The concordance cases of the secondary displays (u, h, the identity
    term of H and the squared E-+ coefficients), against the coefficients of
    H, L+ and L- on a StencilGrid at the points of `grid`."""
    displays = fam.closed.displays
    g = StencilGrid(fam, grid, 1)
    labels = [f"{complex(s):.4g}" for s in grid]
    if "u" in displays:
        for n in range(1, 4):
            for s, label, u in zip(grid, labels, g.u(n)[:, 0].tolist()):
                compare("u_display", f"n={n},s={label}", displays["u"](s, n), u)
    if "h_mp" in displays:
        for n in range(1, 5):
            compare("h_mp_display", f"n={n}", displays["h_mp"](n), h_minusplus(fam, n))
    if "h_pm" in displays:
        for n in range(1, 5):
            compare("h_pm_display", f"n={n}", displays["h_pm"](n), h_plusminus(fam, n))
    if "ham_i" in displays:
        for n in range(1, 3):
            for s, label, h in zip(grid, labels, g.h_diag(n).tolist()):
                compare("hamiltonian_i_display", f"n={n},s={label}", displays["ham_i"](s, n), h)
    if "ham_cminus" in displays:
        # squared comparison of displayed E-+ coefficients (branch-free)
        for s, label, em, ep in zip(grid, labels, g.e_minus[:, 0].tolist(),
                                    g.e_plus[:, 0].tolist()):
            compare("hamiltonian_cminus_sq", f"s={label}",
                    complex(displays["ham_cminus"](s)) ** 2, em ** 2)
            compare("hamiltonian_cplus_sq", f"s={label}",
                    complex(displays["ham_cplus"](s)) ** 2, ep ** 2)


def difference_calculus_suite(fam, n_hi: int = 6, tolerance: float = 1e-10) -> CheckReport:
    """Difference-calculus identities on the family's lattice: the exact
    (n-1)-fold form of x^n, the leading-term statement for k-fold
    differences (checked through divided differences), and the shift
    identity x_k(s+1) = x_{k+2}(s)."""
    rep = CheckReport(
        suite="difference_calculus",
        identity="Delta^{(n-1)} x^n = [n]_q! x_{n-1}(s) + c3 [n-1]_q! (n - [n]_q); "
        "Delta^{(k)} x^n has leading term [n]_q!/[n-k]_q! x_k^{n-k}",
        family=fam.name,
        tolerance=tolerance,
    )
    lat = fam.lattice
    base = fam.eq.base
    pts = default_grid(fam, 3)
    for n in range(1, n_hi + 1):
        f = GridFunction(lat, lambda s, n=n: lat.x(s) ** n)
        for s in pts:
            got = kfold_forward_diff(f, n - 1, s)
            want = q_factorial(n, base) * lat.x_shifted(n - 1, s) + complex(
                lat.c3
            ) * q_factorial(n - 1, base) * (n - q_number(float(n), base))
            rep.cases.append(
                CaseRecord(n, f"{complex(s):.4g}", rel_residual(got - want, (got, want)),
                           "exact (n-1)-fold form")
            )
        # degree drop: one extra fold annihilates x^n
        for s in pts[:1]:
            got = kfold_forward_diff(f, n + 1, s)
            scale = abs(q_factorial(n, base)) + abs(lat.x(s)) ** n
            rep.cases.append(
                CaseRecord(n, f"{complex(s):.4g}", abs(got) / scale, "degree drop to zero")
            )
    # Lemma leading term via divided differences in x_k
    for n in range(2, n_hi + 1):
        for k in range(1, n):
            s0 = complex(pts[0])
            nodes = [s0 + 0.35 * j for j in range(n - k + 1)]
            f = GridFunction(lat, lambda s, n=n: lat.x(s) ** n)
            lead = q_factorial(n, base) / q_factorial(n - k, base)
            gvals = [
                kfold_forward_diff(f, k, s) - lead * lat.x_shifted(k, s) ** (n - k)
                for s in nodes
            ]
            xvals = [lat.x_shifted(k, s) for s in nodes]
            resid = _divided_difference(xvals, gvals)
            scale = abs(_divided_difference(xvals, [lead * xv ** (n - k) for xv in xvals]))
            rep.cases.append(
                CaseRecord(n, f"k={k}", abs(resid) / max(scale, 1e-12), "leading-term lemma")
            )
    # shift identity (exact)
    for k in (0.0, 1.0, 0.5, 2.5):
        for s in pts:
            a = lat.x_shifted(k, complex(s) + 1.0)
            b = lat.x_shifted(k + 2.0, s)
            rep.cases.append(
                CaseRecord(0, f"k={k},s={complex(s):.4g}",
                           rel_residual(a - b, (a, b)), "x_k(s+1) = x_{k+2}(s)")
            )
    return rep


def _divided_difference(xs, ys):
    coeffs = list(ys)
    for level in range(1, len(xs)):
        for j in range(len(xs) - level):
            coeffs[j] = (coeffs[j + 1] - coeffs[j]) / (xs[j + level] - xs[j])
    return coeffs[0]


def rodrigues_suite(fam, n_hi: int = 5, tolerance: float = 1e-9) -> CheckReport:
    """Rodrigues evaluation equals the recurrence route times an
    s-independent constant (fit at one point, checked at four others).
    With the family's normalization rule B_n, the constant is 1."""
    rep = CheckReport(
        suite="rodrigues",
        identity="B_n/rho(s) nabla^{(n)} rho_n(s) equals P_n up to an s-independent constant",
        family=fam.name,
        tolerance=tolerance,
    )
    grid = default_grid(fam)
    anchor = complex(grid[0])
    table = pearson_weight(fam.eq, anchor, -n_hi - 1, len(grid) + n_hi + 1)
    for n in range(0, n_hi + 1):
        pairs = []
        for k, s in enumerate(grid):
            rod = rodrigues_eval(fam.eq, table, n, anchor + k)
            ref = fam.pn_ttrr(n, anchor + k)
            pairs.append((rod, ref))
        fit = None
        for rod, ref in pairs:
            if abs(ref) > 1e-12:
                fit = rod / ref
                break
        if fit is None:
            raise QKernelError("all reference values vanish; cannot fit constant")
        for (rod, ref), s in zip(pairs, grid):
            scale = max(abs(rod), abs(fit * ref), 1e-12)
            rep.cases.append(
                CaseRecord(n, f"{complex(s):.4g}", abs(rod - fit * ref) / scale)
            )
        rep.meta.setdefault("fitted_constants", {})[str(n)] = [fit.real, fit.imag]
    return rep


def pearson_suite(fam, tolerance: float = 1e-10) -> CheckReport:
    """Pearson-table weight ratios against the tabulated closed-form weight.

    On the quadratic trigonometric lattice the lattice weight is
    omega(x(s)) * Delta x(s-1/2); on exponential lattices it is omega(x(s));
    on the dual-Hahn lattice the tabulated rho(s) is used directly."""
    rep = CheckReport(
        suite="pearson",
        identity="rho(s+1)/rho(s) = Theta(s)/sigma(s+1) reproduces the closed-form weight",
        family=fam.name,
        tolerance=tolerance,
    )
    if fam.closed.weight is None:
        rep.meta["status"] = "skipped"
        rep.meta["reason"] = "no closed-form weight tabulated"
        return rep
    grid = default_grid(fam)
    closed_rho = fam.kind.pearson_rho
    if fam.kind.complex_s:
        # one-step ratios at each theta anchor: integer chains walk x off the
        # unit circle where |x| ~ q^{-k} destroys the Taylor-form conditioning
        pairs = [(complex(s), pearson_weight(fam.eq, s, 0, 1)) for s in grid]
    else:
        anchor = complex(grid[0])
        table = pearson_weight(fam.eq, anchor, 0, len(grid))
        pairs = [(anchor + k, table) for k in range(len(grid))]
    for s, table in pairs:
        got = table.rho(s + 1.0) / table.rho(s)
        want = closed_rho(fam, s + 1.0) / closed_rho(fam, s)
        rep.cases.append(CaseRecord(0, f"{complex(s):.4g}", rel_residual(got - want, (got, want))))
    # oracle form of the same ratio, where the family tabulates one
    oracle = fam.closed.displays.get("pearson_ratio")
    if oracle is not None:
        for s, table in pairs:
            got = table.rho(s + 1.0) / table.rho(s)
            want = oracle(s)
            rep.cases.append(
                CaseRecord(0, f"{complex(s):.4g}", rel_residual(got - want, (got, want)),
                           fam.closed.notes.get("pearson_ratio", "oracle"))
            )
    return rep


def orthonormality_suite(fam, tolerance: float | None = None) -> CheckReport:
    """Gram matrix of phi_0..phi_N on the family's support; for the Jackson
    support the norm-convention ratio (integral)/(tabulated d_n^2) is
    reported and must be n-independent."""
    kind = fam.support.kind
    tol = tolerance if tolerance is not None else (1e-6 if kind == "continuous_interval" else 1e-8)
    rep = CheckReport(
        suite="orthonormality",
        identity="Gram matrix of phi_0..phi_N equals the identity",
        family=fam.name,
        tolerance=tol,
    )
    if kind == "none":
        rep.meta["status"] = "skipped"
        rep.meta["reason"] = "no orthogonality relation tabulated for this family"
        return rep
    of = OrthonormalFamily(fam)
    N = 4 if kind == "discrete_grid" else 3
    if fam.n_max is not None:
        N = min(N, fam.n_max)
    G = gram_matrix(of, N)
    for n in range(N + 1):
        for m in range(n, N + 1):
            target = 1.0 if n == m else 0.0
            rep.cases.append(CaseRecord(n, f"m={m}", abs(G[n, m] - target)))
    rep.meta["N"] = N
    if kind == "jackson_integral" and fam.norm_source == "closed":
        # the tabulated d_n^2 is the validated norm: its ratio to the
        # Jackson integral must not depend on n
        ratios = jackson_integral(
            lambda x: fam.pn_stack(N, x) ** 2 * fam.weight(x),
            fam.support.lo,
            fam.support.hi,
            fam.base,
        ) / np.array([complex(fam.closed.d_n_sq(n)) for n in range(N + 1)])
        spread = float(np.max(np.abs(ratios - ratios[0])) / abs(ratios[0]))
        rep.meta["norm_convention_ratio"] = [ratios[0].real, ratios[0].imag]
        rep.meta["norm_convention_spread"] = spread
        rep.cases.append(CaseRecord(0, "convention-ratio spread", spread,
                                    "(integral)/(tabulated d_n^2) constant over n"))
    if kind == "continuous_interval":
        rep.meta["quadrature"] = QUADRATURE_RULE
    return rep


def poly_ladder_suite(fam, n_hi: int = 6, tolerance: float = 1e-10) -> CheckReport:
    """The polynomial-level raising and lowering relations, canonical
    normalization.  Evaluation goes through the recurrence route (the
    well-conditioned evaluator; alternating-sign series terms of size
    q^{-n(n-1)/2} make the series route lose digits from n ~ 6); the
    series-vs-recurrence tie happens in the concordance suite."""
    rep = CheckReport(
        suite="poly_ladder",
        identity="sigma nabla P_n/nabla x = lambda_n/[n]_q tau_n/tau_n' P_n "
        "- alpha_n lambda_{2n}/[2n]_q P_{n+1};  Theta Delta P_n/Delta x = "
        "gamma_n lambda_{2n}/[2n]_q P_{n-1} + [...] P_n",
        family=fam.name,
        tolerance=tolerance,
    )
    grid = default_grid(fam)
    # P_0..P_{n_hi+1} once per (point, shift), each from one recurrence pass;
    # the relations evaluate P at s - 1, s and s + 1
    stacks = {}
    for s in grid:
        for t in (complex(s) - 1.0, complex(s), complex(s) + 1.0):
            stacks[t] = fam.pn_stack(n_hi + 1, fam.lattice.x_values(t))

    def pn(k, s):
        return stacks[s][k]

    for n in range(1, n_hi + 1):
        alpha = fam.ttrr_alpha(n)
        beta = fam.ttrr_beta(n)
        gamma = fam.ttrr_gamma(n)
        for s in grid:
            rep.cases.append(
                CaseRecord(n, f"{complex(s):.4g}",
                           check_poly_raising(fam.eq, pn, n, s, alpha), "raising")
            )
            rep.cases.append(
                CaseRecord(n, f"{complex(s):.4g}",
                           check_poly_lowering(fam.eq, pn, n, s, beta, gamma), "lowering")
            )
    # n = 0 lowering consistency with P_{-1} = 0
    for s in grid[:2]:
        rep.cases.append(
            CaseRecord(0, f"{complex(s):.4g}",
                       check_poly_lowering(fam.eq, pn, 0, s, fam.ttrr_beta(0), 0.0),
                       "lowering n=0")
        )
    return rep


def run_suite(fam, suite: str, ns=None, s_grid=None, tolerances=None) -> CheckReport:
    """Run one named suite with default sweeps unless overridden."""
    tolmap = dict(_DEFAULT_TOL)
    if tolerances:
        tolmap.update(tolerances)
    ns = list(ns) if ns is not None else list(range(1, 6))
    grid = list(s_grid) if s_grid is not None else default_grid(fam)
    tol = tolmap[suite]
    t0 = time.perf_counter()
    if suite == "eigen":
        rep = check_eigen(fam, ns, grid, tol)
    elif suite == "ttrr_phi":
        rep = check_ttrr_phi(fam, ns, grid, tol)
    elif suite == "raising":
        rep = check_raising(fam, ns, grid, tol)
    elif suite == "lowering":
        rep = check_lowering(fam, ns, grid, tol)
    elif suite == "uv_shift":
        rep = check_uv_shift(fam, list(range(0, max(ns) + 2)), grid, tol)
    elif suite == "h_remark":
        rep = check_h_remark(fam, list(range(1, max(ns) + 2)), tol)
    elif suite == "h_s_independence":
        rep = check_h_s_independence(fam, ns, grid, tol)
    elif suite == "factorization":
        rep = check_factorization(fam, ns, grid, tol)
    elif suite == "bootstrap":
        # the bootstrap recurses along one integer chain; anchor it at the
        # first grid point (theta grids are not integer-spaced in s)
        chain_grid = [complex(grid[0]) + k for k in range(len(grid))]
        rep = check_bootstrap(OrthonormalFamily(fam), min(max(ns), 4), chain_grid, tol)
    elif suite == "adjoint":
        rep = check_adjoint(OrthonormalFamily(fam), list(range(0, 5)), tol)
    elif suite == "selfadjoint":
        pairs = [(n, m) for n in range(5) for m in range(5)]
        rep = check_selfadjoint(OrthonormalFamily(fam), pairs, tol)
    elif suite == "poly_ladder":
        rep = poly_ladder_suite(fam, max(ns) + 1, tol)
    elif suite == "pearson":
        rep = pearson_suite(fam, tol)
    elif suite == "rodrigues":
        rep = rodrigues_suite(fam, 5, tol)
    elif suite == "orthonormality":
        rep = orthonormality_suite(fam, tolerances.get("orthonormality") if tolerances else None)
    elif suite == "concordance":
        rep = concordance_suite(fam, 8, tol)
    elif suite == "difference_calculus":
        rep = difference_calculus_suite(fam, 6, tol)
    elif suite == "branch_continuity":
        if fam.kind.complex_s:
            rep = check_branch_continuity(fam, fam.kind.theta_grid(fam, 200), tol)
        else:
            rep = CheckReport(suite=suite, identity="branch continuity along the theta grid",
                              family=fam.name, tolerance=tol,
                              meta={"status": "skipped", "reason": "real lattice coordinate"})
    else:
        raise QKernelError(f"unknown suite {suite!r}; known: {', '.join(SUITE_NAMES)}")
    rep.wall_ms = (time.perf_counter() - t0) * 1e3
    return rep


def run_suites(fam, suites, ns=None, s_grid=None, tolerances=None):
    if suites == "all" or suites == ["all"]:
        suites = list(SUITE_NAMES)
    return [run_suite(fam, s, ns=ns, s_grid=s_grid, tolerances=tolerances) for s in suites]
