"""Named identity suites over one family: orchestration between the ladder /
core checks and the CLI, including the closed-form-vs-general concordance
suite that emits suspected-erratum records.

Every suite is `suite(fam, ns, s_grid, tolerance=<its default>)`, made by
`report.suite` from a body that adds cases and meta, under an `@suite(name,
identity, tolerance)` line that holds its identity and default tolerance.
The body derives the n values and points it checks from the request
(ns, s_grid) by the one rule its docstring states (N = max(ns)), or says why
its sweep is fixed.
"""

from __future__ import annotations

import numpy as np

from .hypergeometric_core import RODRIGUES_MAX_ORDER, pearson_weight, rel_residual, rodrigues_values
from .lattice import LatticeTable
from .ladder import (
    StencilGrid,
    _by_offset,
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
from .orthogonality import QUADRATURE_RULE, gram_matrix
from .qkernel import QKernelError, _cdiv, q_factorial, q_number
from .report import CheckReport, Skipped, suite

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


def default_grid(fam, count: int = 5):
    """Nondegenerate default check grid of the family's lattice kind."""
    return fam.kind.default_grid(fam, count)


@suite("concordance", "tabulated closed forms vs the general difference-equation machinery",
       1e-9)
def concordance_suite(rep, fam, ns, s_grid):
    """Closed tabulated data vs the general machinery: eigenvalues, tau_n data,
    recurrence coefficients, norm ratios and anchors, and the secondary
    displayed expressions (u, h, Hamiltonian terms).  Mismatches become
    suspected-erratum records in meta['errata']; the suite passes when every
    compared quantity either matches or is recorded.  Sweep: fixed (n <= 8,
    the series at the family's series points, the displays on the default
    grid): the tables are compared at the entries the errata name."""
    t, n_hi = fam.coeffs, 8
    errata: list = []
    grid = default_grid(fam)
    notes = fam.closed.notes

    def compare(rows, tol=rep.tolerance, detail=""):
        """One case per row (quantity, label, got, expected), in row order: a
        mismatch is recorded as a suspected erratum; the record, not
        silence, is the pass condition, so every case carries residual 0."""
        rep.add(0, [label for _, label, _, _ in rows], [0.0] * len(rows),
                [quantity for quantity, _, _, _ in rows])
        for quantity, label, got, expect in rows:
            got, expect = complex(got), complex(expect)
            err = abs(got - expect)
            rel = err / max(abs(got), abs(expect), 1e-12)
            if not (err <= 1e-12 or rel <= tol):
                errata.append({
                    "family": rep.family, "quantity": quantity, "case": label, "rel_dev": rel,
                    "detail": notes.get(quantity, detail)
                    or f"tabulated {got:.9g} vs general {expect:.9g}",
                })

    compare([("lambda_n", f"n={n}", fam.closed.lambda_n(n), t.lambda_n(n)) for n in range(0, 11)])
    rows = []
    for n in range(0, n_hi + 1):
        slope, intercept = t.tau(n)
        rows += [("tau_n_slope", f"n={n}", fam.closed.tau_slope(n), slope),
                 ("tau_n_intercept", f"n={n}", fam.closed.tau_intercept(n), intercept)]
    compare(rows)

    # beta display vs the generic route (monic normalization)
    compare([("beta_n", f"n={n}", fam.closed.beta_n(n), t.beta_generic(n))
             for n in range(0, n_hi + 1)])

    # tabulated d_n^2 ratio vs gamma_n/alpha_{n-1} (canonical normalization)
    if fam.closed.d_n_sq is not None:
        rows = []
        for n in range(1, n_hi + 1):
            try:
                tab_ratio = t.d_n_sq(n) / t.d_n_sq(n - 1)
            except (ValueError, ArithmeticError):
                break
            rows.append(("d_n_sq_ratio", f"n={n}", tab_ratio, t.gamma(n) / t.alpha(n - 1)))
        compare(rows, detail="tabulated squared-norm ratio is inconsistent with the "
                "recurrence coefficients gamma_n/alpha_{n-1}")

    # where the validated norm takes its anchor from the orthogonality measure
    # (Jackson integral or discrete sum), the tabulated d_0^2 is compared to it
    if not fam.tabulated_norms:
        compare([("d_0_sq_anchor", "n=0", t.d_n_sq(0), fam.norm_sq(0))], 1e-8)

    # recurrence route vs series route; the points are chosen where the
    # alternating series is well conditioned (terms of size q^{-n(n-1)/2}
    # must not dwarf the value), which for the exponential lattices means
    # |x| above the support scale and for the trigonometric one x off the
    # orthogonality interval -- the polynomial identity holds everywhere.
    # One recurrence pass gives P_0..P_ncap at every point, one series pass
    # every (n, point).
    ncap = min(10, fam.n_max) if fam.n_max is not None else 10
    pts = np.array(fam.series_points, dtype=complex)
    stack = fam.pn_stack(ncap, fam.lattice.x_values(pts)).tolist()
    series = fam.pn_series(np.arange(ncap + 1)[:, None], pts).tolist()
    compare([("series_vs_ttrr", f"n={n},s={s:.4g}", got, want)
             for n in range(0, ncap + 1)
             for s, got, want in zip(pts.tolist(), series[n], stack[n])],
            max(rep.tolerance, 1e-10))

    _compare_displays(fam, grid, compare)
    rep.meta["errata"] = errata


def _compare_displays(fam, grid, compare):
    """The concordance cases of the secondary displays (u, h, the identity
    term of H and the squared E-+ coefficients) at the first three points
    of `grid`, against the coefficients of H, L+ and L- at offset 0 of the
    StencilGrid on `grid` (the one the ladder suites read on the default
    grid)."""
    displays = fam.closed.displays
    g = StencilGrid.shared(fam, grid)
    grid = grid[:3]
    labels = [f"{complex(s):.4g}" for s in grid]
    if "u" in displays:
        us = g.u(range(1, 4))[:, :3, 0].tolist()
        compare([("u_display", f"n={n},s={label}", displays["u"](s, n), u)
                 for n, row in zip(range(1, 4), us) for s, label, u in zip(grid, labels, row)])
    for key, general in (("h_mp", h_minusplus), ("h_pm", h_plusminus)):
        if key in displays:
            compare([(f"{key}_display", f"n={n}", displays[key](n), general(fam, n))
                     for n in range(1, 5)])
    if "ham_i" in displays:
        hs = g.h_diag(range(1, 3))[:, :3].tolist()
        compare([("hamiltonian_i_display", f"n={n},s={label}", displays["ham_i"](s, n), h)
                 for n, row in zip(range(1, 3), hs) for s, label, h in zip(grid, labels, row)])
    if "ham_cminus" in displays:
        # squared comparison of displayed E-+ coefficients (branch-free)
        rows = []
        g.require_steps()
        em, ep = g.plus_side(g.e)(0), g.minus_side(g.e)(0)
        for s, label, em, ep in zip(grid, labels, em[:3].tolist(), ep[:3].tolist()):
            rows += [("hamiltonian_cminus_sq", f"s={label}",
                      complex(displays["ham_cminus"](s)) ** 2, em ** 2),
                     ("hamiltonian_cplus_sq", f"s={label}",
                      complex(displays["ham_cplus"](s)) ** 2, ep ** 2)]
        compare(rows)


@suite("difference_calculus",
       "Delta^{(n-1)} x^n = [n]_q! x_{n-1}(s) + c3 [n-1]_q! (n - [n]_q); "
       "Delta^{(k)} x^n has leading term [n]_q!/[n-k]_q! x_k^{n-k}", 1e-10)
def difference_calculus_suite(rep, fam, ns, s_grid):
    """Difference-calculus identities on the family's lattice: the exact
    (n-1)-fold form of x^n, the leading-term statement for k-fold
    differences (checked through divided differences), and the shift
    identity x_k(s+1) = x_{k+2}(s).  Sweep: n <= N+1 on its own 3 default
    points (on the trigonometric lattice, s_grid[:3] would move the default run)."""
    lat, n_hi = fam.lattice, max(ns) + 1
    base = fam.eq.base
    fact = [q_factorial(n, base) for n in range(n_hi + 1)]
    pts = [complex(s) for s in default_grid(fam, 3)]
    s0 = pts[0]
    # rows: the grid, then the lemma's divided-difference nodes s0 + 0.35 j
    # (node 0 is s0); each row folds x^n as deep as its deepest case reads:
    # n - 1 on the grid, n + 1 (degree drop) at s0, k <= n_hi - j at node j
    rows = pts + [s0 + 0.35 * j for j in range(1, n_hi)]
    node = lambda j: len(pts) + j - 1 if j else 0
    depth = np.array([n_hi - 1] * len(pts) + [n_hi - j for j in range(1, n_hi)])
    depth[0] = n_hi + 1
    table = LatticeTable(lat, rows, 0, 2 * n_hi + 2)
    xh = table.x.tolist()  # x(s_r + h/2)
    powers = np.array([[[x ** n if j <= depth[r] else 0j for j, x in enumerate(xr[::2])]
                        for n in range(1, n_hi + 1)] for r, xr in enumerate(xh)])
    folds = [d.tolist() for d in table.forward(powers, depth[:, None])]
    fold = lambda k, r, n: folds[k][r][n - 1][0]  # Delta^{(k)} x^n at row r
    for n in range(1, n_hi + 1):
        for r, s in enumerate(pts):
            got = fold(n - 1, r, n)
            want = fact[n] * xh[r][n - 1] + complex(lat.c3) * fact[n - 1] * (
                n - q_number(float(n), base))
            rep.add(n, f"{s:.4g}", rel_residual(got - want, (got, want)), "exact (n-1)-fold form")
        # degree drop: one extra fold annihilates x^n
        got = fold(n + 1, 0, n)
        scale = abs(fact[n]) + abs(xh[0][0]) ** n
        rep.add(n, f"{s0:.4g}", abs(got) / scale, "degree drop to zero")
    # Lemma leading term via divided differences in x_k
    for n in range(2, n_hi + 1):
        for k in range(1, n):
            lead = fact[n] / fact[n - k]
            rs = [node(j) for j in range(n - k + 1)]
            xvals = [xh[r][k] for r in rs]
            gvals = [fold(k, r, n) - lead * xv ** (n - k) for r, xv in zip(rs, xvals)]
            resid = _divided_difference(xvals, gvals)
            scale = abs(_divided_difference(xvals, [lead * xv ** (n - k) for xv in xvals]))
            rep.add(n, f"k={k}", abs(resid) / max(scale, 1e-12), "leading-term lemma")
    # shift identity (exact), each side through its own argument
    shifts = [(k, s) for k in (0.0, 1.0, 0.5, 2.5) for s in pts]
    a = lat.x_values(np.array([s + 1.0 + k / 2.0 for k, s in shifts])).tolist()  # x_k(s+1)
    b = lat.x_values(np.array([s + (k + 2.0) / 2.0 for k, s in shifts])).tolist()  # x_{k+2}(s)
    rep.add(0, [f"k={k},s={s:.4g}" for k, s in shifts],
            [rel_residual(av - bv, (av, bv)) for av, bv in zip(a, b)], "x_k(s+1) = x_{k+2}(s)")


def _divided_difference(xs, ys):
    coeffs = list(ys)
    for level in range(1, len(xs)):
        for j in range(len(xs) - level):
            coeffs[j] = (coeffs[j + 1] - coeffs[j]) / (xs[j + level] - xs[j])
    return coeffs[0]


@suite("rodrigues",
       "B_n/rho(s) nabla^{(n)} rho_n(s) equals P_n up to an s-independent constant", 1e-9)
def rodrigues_suite(rep, fam, ns, s_grid):
    """Rodrigues evaluation equals the recurrence route times an
    s-independent constant (fit at one point, checked at the others;
    skipped on a one-point grid).  With the family's normalization rule B_n,
    the constant is 1.  Sweep: n = 0..min(N, RODRIGUES_MAX_ORDER) on the
    chain s_grid[0] + k, k < len(s_grid)."""
    if len(s_grid) < 2:
        raise Skipped("one grid point: the constant fit there leaves no point to check")
    n_hi, s0 = min(max(ns), RODRIGUES_MAX_ORDER), complex(s_grid[0])
    rods, x = rodrigues_values(fam.eq, s0, len(s_grid), n_hi, fam.coeffs.B)
    refs = fam.pn_stack(n_hi, x)
    for n in range(0, n_hi + 1):
        pairs = list(zip(rods[n].tolist(), refs[n].tolist()))
        fit = next((rod / ref for rod, ref in pairs if abs(ref) > 1e-12), None)
        if fit is None:
            raise QKernelError("all reference values vanish; cannot fit constant")
        rep.add(n, [f"{s0 + k:.4g}" for k in range(len(pairs))],
                [abs(rod - fit * ref) / max(abs(rod), abs(fit * ref), 1e-12)
                 for rod, ref in pairs])
        rep.meta.setdefault("fitted_constants", {})[str(n)] = [fit.real, fit.imag]


@suite("pearson",
       "rho(s+1)/rho(s) = Theta(s)/sigma(s+1) reproduces the closed-form weight", 1e-10)
def pearson_suite(rep, fam, ns, s_grid):
    """Pearson-table weight ratios against the tabulated closed-form weight.

    On the quadratic trigonometric lattice the lattice weight is
    omega(x(s)) * Delta x(s-1/2); on exponential lattices it is omega(x(s));
    on the dual-Hahn lattice the tabulated rho(s) is used directly.  Sweep:
    s_grid; on a real lattice the chain s_grid[0] + k, k < len(s_grid)."""
    if fam.closed.weight is None:
        raise Skipped("no closed-form weight tabulated")
    # (s, rho(s+1)/rho(s)) from the Pearson weight, one ratio per grid point
    if fam.kind.complex_s:
        # one-step ratios at each theta anchor: integer chains walk x off the
        # unit circle where |x| ~ q^{-k} destroys the Taylor-form conditioning
        ratios = [(s, rho[1] / rho[0])
                  for s, rho in ((complex(s), pearson_weight(fam.eq, s, 0, 1)) for s in s_grid)]
    else:
        anchor = complex(s_grid[0])
        rho = pearson_weight(fam.eq, anchor, 0, len(s_grid))
        ratios = [(anchor + k, rho[k + 1] / rho[k]) for k in range(len(s_grid))]
    s = np.array([s for s, _ in ratios], dtype=complex)  # closed rho at s, s + 1: one call
    rho = fam.kind.pearson_rho(fam, np.concatenate([s, s + 1.0]))
    wants = _cdiv(rho[len(s):], rho[:len(s)]).tolist()
    labels = [f"{complex(s):.4g}" for s, _ in ratios]
    rep.add(0, labels, [rel_residual(got - want, (got, want))
                        for (_, got), want in zip(ratios, wants)])
    # oracle form of the same ratio, where the family tabulates one
    oracle = fam.closed.displays.get("pearson_ratio")
    if oracle is not None:
        wants = [oracle(s) for s, _ in ratios]
        rep.add(0, labels, [rel_residual(got - want, (got, want))
                            for (_, got), want in zip(ratios, wants)],
                fam.closed.notes.get("pearson_ratio", "oracle"))


@suite("orthonormality", "Gram matrix of phi_0..phi_N equals the identity", None)
def orthonormality_suite(rep, fam, ns, s_grid):
    """Gram matrix of phi_0..phi_N on the family's measure; on the Jackson
    integral the norm-convention ratio (integral)/(tabulated d_n^2) is
    reported and must be n-independent.  The lattice kind gives the default
    tolerance, 1e-6 on the continuous interval, 1e-8 otherwise, and the sweep:
    fixed, N = 3 (4 on a discrete grid) capped at n_max, in meta['N']: at
    small q the Gram loses digits with N, which it cannot yet tell from a fail."""
    if rep.tolerance is None:
        rep.tolerance = fam.kind.gram_tolerance
    if fam.support is None:
        raise Skipped("no orthogonality relation tabulated for this family")
    N = fam.kind.gram_order if fam.n_max is None else min(fam.kind.gram_order, fam.n_max)
    G, history = gram_matrix(fam, N)
    pairs = [(n, m) for n in range(N + 1) for m in range(n, N + 1)]
    rep.add([n for n, _ in pairs], [f"m={m}" for _, m in pairs],
            [abs(G[n, m] - (1.0 if n == m else 0.0)) for n, m in pairs])
    rep.meta["N"] = N
    if fam.kind.norm_convention and fam.tabulated_norms:
        # the tabulated d_n^2 is the validated norm: its ratio to the
        # Jackson integral (the diagonal of the Gram's) must not depend on n
        ratios = np.diag(fam.p_gram(N)[0]) / fam.coeffs.d_n_sq(np.arange(N + 1))
        spread = float(np.max(np.abs(ratios - ratios[0])) / abs(ratios[0]))
        rep.meta["norm_convention_ratio"] = [ratios[0].real, ratios[0].imag]
        rep.meta["norm_convention_spread"] = spread
        rep.add(0, "convention-ratio spread", spread,
                "(integral)/(tabulated d_n^2) constant over n")
    if history:
        rep.meta["quadrature"] = QUADRATURE_RULE


@suite("poly_ladder",
       "sigma nabla P_n/nabla x = lambda_n/[n]_q tau_n/tau_n' P_n "
       "- alpha_n lambda_{2n}/[2n]_q P_{n+1};  Theta Delta P_n/Delta x = "
       "gamma_n lambda_{2n}/[2n]_q P_{n-1} + [...] P_n", 1e-10)
def poly_ladder_suite(rep, fam, ns, s_grid):
    """The polynomial-level raising and lowering relations, canonical
    normalization, at every point of s_grid at once.  The
    coefficients sigma/nabla x, Theta/Delta x, A(s,n), x and Delta x(s-1/2)
    come from the shared StencilGrid on s_grid, and P_0..P_{n_hi+1} on its
    offsets -1, 0, 1 from its recurrence pass (the well-conditioned evaluator;
    alternating-sign series terms of size q^{-n(n-1)/2} make the series
    route lose digits from n ~ 6); the series-vs-recurrence tie happens in
    the concordance suite.  Sweep: n = 0..N+1 on s_grid (n = 0 at two points)."""
    t, n_hi = fam.coeffs, max(ns) + 1
    g = StencilGrid.shared(fam, s_grid)
    P = _by_offset(g.p(range(n_hi + 2)))  # P(j)[k] = P_k(s + j)
    n = np.arange(n_hi + 1)
    son, tod = g.plus_side(g.son)(0), g.minus_side(g.tod)(0)
    x, dxm = _by_offset(g.x)(0), _by_offset(g.dxm)(0)
    A, L = _by_offset(g.A(n))(0), t.lam_ratio(2 * n)[:, None]
    # raising, n >= 1: sigma nabla P_n/nabla x - (A P_n - alpha_n lambda_2n/[2n]_q P_{n+1})
    lhs = son * (P(0)[n[1:]] - P(-1)[n[1:]])
    t1 = A[1:] * P(0)[n[1:]]
    t2 = (t.alpha(n[1:])[:, None] * L[1:]) * P(0)[n[1:] + 1]
    up = rel_residual(lhs - (t1 - t2), (lhs, t1, t2)).tolist()
    # lowering, n >= 0: Theta Delta P_n/Delta x - (gamma_n lambda_2n/[2n]_q P_{n-1}
    # + [...] P_n), P_{-1} = 0
    lhs = tod * (P(1)[n] - P(0)[n])
    low = np.where(n[:, None] >= 1, (t.gamma(n)[:, None] * L) * P(0)[np.maximum(n - 1, 0)], 0.0)
    mid = (A - t.lambda_n(n)[:, None] * dxm - L * (x - t.beta(n)[:, None])) * P(0)[n]
    down = rel_residual(lhs - (low + mid), (lhs, low, mid)).tolist()
    labels = [f"{complex(s):.4g}" for s in s_grid]
    for k in range(1, n_hi + 1):
        rep.add(k, [label for label in labels for _ in range(2)],
                [r for pair in zip(up[k - 1], down[k]) for r in pair],
                ["raising", "lowering"] * len(labels))
    # n = 0 lowering consistency with P_{-1} = 0
    rep.add(0, labels[:2], down[0][:2], "lowering n=0")


# The suites in `--suite all` order.  Suite `name` is the function
# `check_<name>` (from ladder) or `<name>_suite` (this module), looked up in
# this module's globals at call time, so rebinding one (a tracer, a test)
# reaches the dispatch.
SUITE_NAMES = _SUITES = (
    "eigen", "ttrr_phi", "raising", "lowering", "uv_shift", "h_remark", "h_s_independence",
    "factorization", "bootstrap", "adjoint", "selfadjoint", "poly_ladder", "pearson",
    "rodrigues", "orthonormality", "concordance", "difference_calculus", "branch_continuity",
)


def run_suite(fam, suite: str, ns=None, s_grid=None, tolerances=None) -> CheckReport:
    """Run one named suite on the request (ns, s_grid), by default n = 1..5
    on `default_grid(fam)`, at its default tolerance unless `tolerances`
    overrides it.  A request that checks nothing (no n, no point) or an n
    that is not an int >= 0 raises QKernelError naming the field."""
    if suite not in _SUITES:
        raise QKernelError(f"unknown suite {suite!r}; known: {', '.join(SUITE_NAMES)}")
    tol = {"tolerance": tolerances[suite]} if tolerances and suite in tolerances else {}
    ns = list(ns) if ns is not None else list(range(1, 6))
    grid = list(s_grid) if s_grid is not None else default_grid(fam)
    if not ns or not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                         and n >= 0 for n in ns):
        raise QKernelError(f"field 'ns': need one or more ints n >= 0, got {ns!r}")
    if not grid:
        raise QKernelError("field 's_grid': need one or more points, got none")
    run = globals().get(f"check_{suite}") or globals()[f"{suite}_suite"]
    return run(fam, ns, grid, **tol)


def run_suites(fam, suites, ns=None, s_grid=None, tolerances=None):
    if suites == "all" or suites == ["all"]:
        suites = list(SUITE_NAMES)
    return [run_suite(fam, s, ns=ns, s_grid=s_grid, tolerances=tolerances) for s in suites]
