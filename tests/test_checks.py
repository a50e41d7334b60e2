"""The suite table and the report header: names, order, identities, default
tolerances, timing, skips and errors, dispatch, and the sweep each suite
derives from a request."""

import inspect
import math
import pathlib
import re

import numpy as np
import pytest

from qladder import checks
from qladder.checks import SUITE_NAMES, default_grid, run_suite, run_suites
from qladder.families import (FAMILY_NAMES, FamilySpec, LatticeKind, make_family,
                              reference_params)
from qladder.ladder import check_adjoint, check_eigen, check_selfadjoint
from qladder.lattice import DegenerateStepError, Lattice
from qladder.qkernel import QBase, QKernelError
from qladder.report import CaseRecord, CheckReport

from pointwise import report_to_dict

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# each suite's default tolerance and identity, as the suite reports them at
# the reference q-dual Hahn config (discrete support: orthonormality takes
# 1e-8; a real lattice: branch_continuity reports its skip at 0.2)
DEFAULT_TOLERANCE = {
    "eigen": (1e-9, "H(s,n) phi_n(s) = 0 (symmetric-form difference equation)"),
    "ttrr_phi": (1e-9, "alpha_n d_{n+1}/d_n phi_{n+1} + gamma_n d_{n-1}/d_n phi_{n-1}"
                       " + (beta_n - x) phi_n = 0"),
    "raising": (1e-9, "L+(s,n) phi_n = alpha_n lambda_{2n}/[2n]_q d_{n+1}/d_n phi_{n+1}"),
    "lowering": (1e-9, "L-(s,n) phi_n = gamma_n lambda_{2n}/[2n]_q d_{n-1}/d_n phi_{n-1}"),
    "uv_shift": (1e-10, "u(s+1,n) = v(s,n+1)"),
    "h_remark": (1e-12, "h+-(n+1) = h-+(n)"),
    "h_s_independence": (1e-10, "s-independence of the bracket expansions of h-+ and h+-"),
    "factorization": (1e-9, "u(s+1,n) H(s,n) = L-(s,n+1) L+(s,n) - h(n) I  and  "
                            "u(s,n) H(s,n+1) = L+(s,n) L-(s,n+1) - h(n) I"),
    "bootstrap": (1e-8, "phi_0 from L-(s,0) phi_0 = 0, then phi_{n+1} from L+(s,n)"),
    "adjoint": (1e-8, "sum phi_{n+1} [2n]_q/lambda_{2n} (L+ phi_n) dx = "
                      "sum ([2n+2]_q/lambda_{2n+2} L- phi_{n+1}) phi_n dx = alpha_n d_{n+1}/d_n"),
    "selfadjoint": (1e-8, "sum phi_m (H(.,n) phi_n) = sum phi_n (H(.,n) phi_m)"
                          " (eigenvalue operator -H/Delta x(s-1/2) self-adjoint)"),
    "poly_ladder": (1e-10, "sigma nabla P_n/nabla x = lambda_n/[n]_q tau_n/tau_n' P_n "
                           "- alpha_n lambda_{2n}/[2n]_q P_{n+1};  Theta Delta P_n/Delta x = "
                           "gamma_n lambda_{2n}/[2n]_q P_{n-1} + [...] P_n"),
    "pearson": (1e-10, "rho(s+1)/rho(s) = Theta(s)/sigma(s+1) reproduces the closed-form weight"),
    "rodrigues": (1e-9, "B_n/rho(s) nabla^{(n)} rho_n(s) equals P_n up to an s-independent "
                        "constant"),
    "orthonormality": (1e-8, "Gram matrix of phi_0..phi_N equals the identity"),
    "concordance": (1e-9, "tabulated closed forms vs the general difference-equation machinery"),
    "difference_calculus": (1e-10, "Delta^{(n-1)} x^n = [n]_q! x_{n-1}(s) + c3 [n-1]_q! "
                                   "(n - [n]_q); Delta^{(k)} x^n has leading term "
                                   "[n]_q!/[n-k]_q! x_k^{n-k}"),
    "branch_continuity": (0.2, "sqrt(Theta sigma) operator coefficients vary continuously "
                               "along the grid"),
}


def test_suite_names_are_the_table_rows_in_all_order():
    assert SUITE_NAMES == tuple(checks._SUITES)
    assert SUITE_NAMES == tuple(DEFAULT_TOLERANCE)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_report_names_its_suite_at_the_default_tolerance(families, suite):
    rep = run_suite(families["q_dual_hahn"], suite)
    assert (rep.suite, rep.tolerance, rep.identity) == (suite, *DEFAULT_TOLERANCE[suite])


def test_tolerance_override_reaches_only_its_suite(families):
    fam = families["q_dual_hahn"]
    tolerances = {"orthonormality": 1e-3, "branch_continuity": 0.5}
    for suite in ("orthonormality", "branch_continuity", "eigen"):
        rep = run_suite(fam, suite, tolerances=tolerances)
        assert rep.tolerance == tolerances.get(suite, DEFAULT_TOLERANCE[suite][0])


def test_defaults_on_the_trigonometric_lattice(families):
    # orthonormality's default picks 1e-6 on the continuous support, and
    # branch_continuity runs (not skips) at 0.2
    fam = families["askey_wilson"]
    assert run_suite(fam, "orthonormality").tolerance == 1e-6
    rep = run_suite(fam, "branch_continuity")
    assert (rep.tolerance, "status" in rep.meta, len(rep.cases)) == (0.2, False, 199)


@pytest.mark.parametrize("check", [check_adjoint, check_selfadjoint])
@pytest.mark.parametrize("name, label", [("asc1", "jackson_integral"),
                                         ("askey_wilson", "continuous_interval"),
                                         ("asc2", "none")])
def test_a_direct_call_times_its_suite_and_reports_a_skip(families, check, name, label):
    # only the quadratic kind's measure is a grid sum; the skip names the
    # measure by its label, "none" where the family ships no bounds
    fam = families["q_dual_hahn"]
    assert check_eigen(fam, [1, 2], default_grid(fam)).wall_ms > 0
    rep = check(families[name], [1, 2], default_grid(families[name]))
    assert rep.wall_ms > 0 and rep.cases == ()
    assert rep.meta == {"status": "skipped",
                        "reason": f"support kind '{label}' has no discrete sum"}


@pytest.mark.parametrize("name, params, tolerance, N", [
    ("q_dual_hahn", None, 1e-8, 4),  # n_max = 4
    ("q_dual_hahn", {"a": 0.0, "b": 7.0, "c": 0.25}, 1e-8, 4),  # n_max = 6: the kind's 4
    ("q_dual_hahn", {"a": 0.0, "b": 3.0, "c": 0.25}, 1e-8, 2),  # capped at n_max = 2
    ("asc1", None, 1e-8, 3),
    ("big_q_jacobi", None, 1e-8, 3),
    ("askey_wilson", None, 1e-6, 3),
    ("continuous_q_hermite", None, 1e-6, 3),
    ("asc2", None, 1e-8, None),  # no bounds: skipped at the exponential kind's default
])
def test_orthonormality_defaults_are_the_lattice_kinds(name, params, tolerance, N):
    fam = make_family(name, params or reference_params(name), QBase(0.5))
    rep = run_suite(fam, "orthonormality")
    assert (rep.tolerance, rep.meta.get("N")) == (tolerance, N)
    assert ("quadrature" in rep.meta) == (tolerance == 1e-6)
    assert ("norm_convention_ratio" in rep.meta) == (name == "asc1")
    assert rep.meta.get("status") == ("skipped" if N is None else None)


def test_a_direct_call_names_its_suite_in_an_arithmetic_error():
    # dual Hahn with c = 0: nabla x(0) = 0 at the grid point s = 0
    fam = make_family("q_dual_hahn", {"a": -0.3, "b": 2.7, "c": 0.0}, QBase(0.25))
    degenerate = r"^eigen: grid point 0\+0j is degenerate \(nabla x vanishes\)"
    with pytest.raises(DegenerateStepError, match=degenerate):
        check_eigen(fam, [1, 2], [0.0, 1.0, 2.0])
    # run_suite adds no second name
    with pytest.raises(DegenerateStepError, match=degenerate):
        run_suite(fam, "eigen", ns=[1, 2], s_grid=[0.0, 1.0, 2.0])


def test_a_suite_takes_its_body_parameters_and_the_tolerance():
    # every suite is (fam, ns, s_grid, tolerance=<its default>); orthonormality's
    # default is None, which picks the default of the family's support
    empty, kind = inspect.Parameter.empty, inspect.Parameter.POSITIONAL_OR_KEYWORD
    for suite in SUITE_NAMES:
        default = None if suite == "orthonormality" else DEFAULT_TOLERANCE[suite][0]
        fn = getattr(checks, f"check_{suite}", None) or getattr(checks, f"{suite}_suite")
        params = inspect.signature(fn).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == [
            ("fam", kind, empty), ("ns", kind, empty), ("s_grid", kind, empty),
            ("tolerance", kind, default)], suite
    fam = make_family("q_dual_hahn", reference_params("q_dual_hahn"), QBase(0.5))
    assert check_selfadjoint(fam, [2], default_grid(fam), 1e-3).tolerance == 1e-3


def test_unknown_suite_raises_naming_the_known_suites(families):
    with pytest.raises(QKernelError, match="unknown suite 'nosuch'; known: eigen, ttrr_phi"):
        run_suite(families["asc1"], "nosuch")


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_request_that_checks_nothing_is_refused_naming_the_field(families, suite):
    # an empty ns passed six suites on 0 cases and raised a bare ValueError
    # in six others; an empty s_grid passed eight and raised IndexError in one
    fam = families["asc1"]
    for ns in ([], [-1], [1, 2.0], [True], ["1"]):
        with pytest.raises(QKernelError, match=r"^field 'ns': need one or more ints n >= 0"):
            run_suite(fam, suite, ns=ns)
    with pytest.raises(QKernelError, match=r"^field 's_grid': need one or more points"):
        run_suites(fam, [suite], s_grid=[])


def test_rows_read_the_suite_functions_at_call_time(families, monkeypatch):
    calls = []
    monkeypatch.setattr(checks, "rodrigues_suite",
                        lambda fam, ns, s_grid, **tol: calls.append(tol) or checks.CheckReport(
                            suite="rodrigues", identity="stub", family=fam.name,
                            tolerance=tol.get("tolerance", 1.0)))
    assert run_suite(families["asc1"], "rodrigues").identity == "stub"
    run_suite(families["asc1"], "rodrigues", tolerances={"rodrigues": 1e-3})
    assert calls == [{}, {"tolerance": 1e-3}]


# the request of the sweep contract: n = 2, 3 on 3 points that are no
# default grid and, on a real lattice, not integer-spaced
REQUEST_NS = [2, 3]
REQUEST_VALUES = (0.4, 1.5, 2.6)  # s, or theta on the trigonometric lattice


def _sweep_rule(suite, fam, grid):
    """(n values, points) the suite's docstring rule derives from the
    request, N = 3; no points where the case labels carry none."""
    N = max(REQUEST_NS)
    chain = [complex(grid[0]) + k for k in range(len(grid))]
    rules = {
        "uv_shift": (range(0, N + 2), grid),
        "h_remark": (range(1, N + 2), ()),
        "bootstrap": (range(0, min(N, 4) + 1), chain),
        "adjoint": (range(0, N), ()),
        "selfadjoint": (range(0, N), ()),
        "poly_ladder": (range(0, N + 2), grid),
        "pearson": ([0], grid if fam.kind.complex_s else chain),
        "rodrigues": (range(0, N + 1), chain),
        "difference_calculus": (range(0, N + 2), default_grid(fam, 3)),
    }
    ns, points = rules.get(suite, (REQUEST_NS, grid))
    return set(ns), [complex(p) for p in points]


def _labelled_points(rep):
    points = []
    for c in rep.cases:
        try:
            points.append(complex(c.s))
        except ValueError:  # "m=2", "sum1", "k=1", "-": no point
            pass
    return points


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_suite_checks_the_sweep_its_docstring_derives(families, suite):
    ran = []
    for name in ("q_dual_hahn", "askey_wilson"):
        fam = families[name]
        grid = [fam.kind.s_from_grid_value(fam, v) for v in REQUEST_VALUES]
        rep = run_suite(fam, suite, ns=REQUEST_NS, s_grid=grid)
        if rep.meta.get("status") == "skipped":
            assert rep.cases == ()
            continue
        ran.append(name)
        cases = {(c.n, c.s) for c in rep.cases}
        if suite in ("concordance", "orthonormality", "branch_continuity"):
            # a fixed sweep: the request changes nothing
            assert cases == {(c.n, c.s) for c in run_suite(fam, suite).cases}, name
            continue
        ns, points = _sweep_rule(suite, fam, grid)
        assert {n for n, _ in cases} == ns, name
        got = set(_labelled_points(rep))
        assert len(got) == len(points), (name, got, points)
        for p in points:
            assert any(abs(g - p) <= 1e-3 * max(1.0, abs(p)) for g in got), (name, p, got)
    assert ran


def test_rodrigues_labels_the_chain_points_it_evaluates(families):
    # the Rodrigues differences run on the chain grid[0] + k; on the
    # trigonometric lattice those are not the grid's points
    fam = families["askey_wilson"]
    grid = default_grid(fam)
    rep = run_suite(fam, "rodrigues")
    want = [f"{complex(grid[0]) + k:.4g}" for k in range(len(grid))]
    assert [c.s for c in rep.cases if c.n == 0] == want
    assert {c.s for c in rep.cases} == set(want)


def test_readme_suite_list_is_the_table():
    text = README.read_text(encoding="utf-8")
    listed = text[text.index("\nSuites: "):]
    listed = listed[:listed.index("or `all`")]
    assert tuple(re.findall(r"`(\w+)`", listed)) == SUITE_NAMES


def test_max_residual_follows_the_case_list():
    rep = CheckReport("eigen", "identity", "asc1", tolerance=1e-11)
    assert rep.max_residual == 0.0 and rep.passed
    rep.add(1, "0.5", 2e-12)
    assert rep.max_residual == 2e-12 and rep.passed
    rep.add([2, 3], ["0.5", "1.5"], np.array([5e-11, 1e-13]))
    assert rep.max_residual == 5e-11 and not rep.passed
    assert rep.cases == (CaseRecord(1, "0.5", 2e-12), CaseRecord(2, "0.5", 5e-11),
                         CaseRecord(3, "1.5", 1e-13))


def test_max_residual_reads_the_residual_column_on_every_call():
    # no cached maximum: a residual changed in place from 1e-13 to 1.0 reads
    # 1.0 and fails the report
    rep = CheckReport("eigen", "identity", "asc1", tolerance=1e-11)
    rep.add(1, "0.5", 1e-13)
    assert rep.max_residual == 1e-13 and rep.passed
    rep._case_columns[2][0] = 1.0
    assert rep.max_residual == 1.0 and not rep.passed


def test_the_case_view_is_read_only():
    rep = CheckReport("eigen", "identity", "asc1", tolerance=1e-11)
    rep.add(1, "0.5", 1e-13)
    with pytest.raises(TypeError):
        rep.cases[0] = CaseRecord(1, "0.5", 1.0)
    with pytest.raises(AttributeError):
        rep.cases.append(CaseRecord(2, "0.5", 1.0))
    with pytest.raises(AttributeError):
        rep.cases = [CaseRecord(1, "0.5", 1.0)]
    assert rep.max_residual == 1e-13 and len(rep.cases) == 1


def test_add_pairs_every_value_with_one_case():
    rep = CheckReport("eigen", "identity", "asc1")
    with pytest.raises(ValueError, match="2 values for 3 cases"):
        rep.add([1, 2], "0.5", [0.0, 0.0, 0.0])
    rep.add(range(2), ("a", "b"), np.zeros((1, 2)), ["x", ""])
    assert rep.cases == (CaseRecord(0, "a", 0.0, "x"), CaseRecord(1, "b", 0.0))


def test_a_nan_case_makes_the_maximum_nan_and_the_report_fail():
    # Python's max keeps 1e-16 against a NaN that is not the first case
    rep = CheckReport("eigen", "identity", "asc1", tolerance=1e-11)
    rep.add([1, 2], ["0.5", "1.5"], [1e-16, math.nan])
    assert math.isnan(rep.max_residual) and not rep.passed
    assert report_to_dict(rep)["verdict"] == "fail"


def test_a_case_record_is_an_immutable_named_tuple():
    case = CaseRecord(2, "0.5", 1e-12)
    assert case._fields == ("n", "s", "residual", "note") and case.note == ""
    with pytest.raises(AttributeError):
        case.residual = 0.0


@pytest.mark.parametrize("suite", ["rodrigues", "bootstrap"])
def test_a_constant_fit_at_the_only_grid_point_is_skipped(suite):
    # each suite fits its constant at the first point and checks the others,
    # so on one point every case would read 0 whatever the family
    fam = make_family("big_q_jacobi", {"a": 0.5, "b": 0.5, "c": -0.5}, QBase(0.5))
    rep = run_suite(fam, suite, s_grid=[0.25])
    assert rep.cases == () and rep.meta == {
        "status": "skipped",
        "reason": "one grid point: the constant fit there leaves no point to check"}
    assert run_suite(fam, suite, s_grid=[0.25, 1.25]).cases


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_concordance_makes_one_series_call(name, monkeypatch):
    # the series route of every (n, point) of series_vs_ttrr in one pass
    fam = make_family(name, reference_params(name), QBase(0.5))
    calls, pn_series = [], FamilySpec.pn_series

    def counted(self, n, s):
        calls.append((np.shape(n), np.shape(s)))
        return pn_series(self, n, s)

    monkeypatch.setattr(FamilySpec, "pn_series", counted)
    rep = run_suite(fam, "concordance")
    top = min(10, fam.n_max) if fam.n_max is not None else 10
    assert calls == [((top + 1, 1), (len(fam.series_points),))]
    series = [c for c in rep.cases if c.note == "series_vs_ttrr"]
    assert len(series) == (top + 1) * len(fam.series_points)


def test_rho_at_s_reads_nan_where_the_weight_refuses_and_propagates_a_fault(monkeypatch):
    # only a refused point (ValueError, ArithmeticError) reads NaN, point by
    # point; a TypeError is a fault of the program and propagates
    fam = make_family("q_dual_hahn", reference_params("q_dual_hahn"), QBase(0.5))

    def pole_at_two(self, family, s):
        if np.any(s == 2.0):
            raise ValueError("a pole at s = 2")
        return np.ones(len(s), dtype=complex)

    monkeypatch.setattr(type(fam.kind), "rho_at_s", pole_at_two)
    rho = fam.rho_at_s(np.array([1.0, 2.0, 3.0], dtype=complex))
    assert rho[[0, 2]].tolist() == [1, 1] and np.isnan(rho[1])

    def broken(self, family, s):
        raise TypeError("rho is broken")

    monkeypatch.setattr(type(fam.kind), "rho_at_s", broken)
    with pytest.raises(TypeError, match="rho is broken"):
        fam.rho_at_s(np.array([1.0, 2.0, 3.0], dtype=complex))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_the_bootstrap_reads_no_weight(name, monkeypatch):
    # its direct phi_n are the chain weights times P_n: with every pointwise
    # weight refused (once the norms the climb divides by are known) the
    # report is the same
    def cases(fam):
        rep = run_suite(fam, "bootstrap")
        return rep.passed, rep.max_residual, [tuple(c) for c in rep.cases]

    want = cases(make_family(name, reference_params(name), QBase(0.5)))
    fam = make_family(name, reference_params(name), QBase(0.5))
    for n in range(6):
        try:
            fam.d_n(n)
        except (ValueError, ArithmeticError):
            pass

    def refused(*args):
        raise AssertionError("the weight was read")

    for kind in (LatticeKind, *LatticeKind.__subclasses__()):
        monkeypatch.setattr(kind, "rho_at_s", refused)
    monkeypatch.setattr(FamilySpec, "weight", refused)
    assert cases(fam) == want


@pytest.mark.parametrize("name", ["asc1", "q_dual_hahn", "askey_wilson"])
def test_pearson_reads_the_closed_rho_in_one_call(name, monkeypatch):
    # every s of the 5-point default grid and every s + 1, in one array
    fam = make_family(name, reference_params(name), QBase(0.5))
    kind, calls = type(fam.kind), []
    pearson_rho = kind.pearson_rho

    def counted(self, family, s):
        calls.append(np.shape(s))
        return pearson_rho(self, family, s)

    monkeypatch.setattr(kind, "pearson_rho", counted)
    assert run_suite(fam, "pearson").passed
    assert calls == [(10,)]


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_no_suite_passes_an_array_to_lattice_x(name, monkeypatch):
    # arrays of points go through Lattice.x_values; Lattice.x takes one point
    fam = make_family(name, reference_params(name), QBase(0.5))
    x, arrays = Lattice.x, []

    def guarded(self, s):
        if isinstance(s, np.ndarray):
            arrays.append(s.shape)
        return x(self, s)

    monkeypatch.setattr(Lattice, "x", guarded)
    run_suites(fam, "all")
    assert arrays == []
