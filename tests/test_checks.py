"""The suite table and the report header: names, order, identities, default
tolerances, timing, skips and errors, and dispatch."""

import inspect
import pathlib
import re

import pytest

from qladder import checks
from qladder.checks import SUITE_NAMES, default_grid, run_suite
from qladder.families import make_family, reference_params
from qladder.ladder import check_adjoint, check_eigen, check_selfadjoint
from qladder.lattice import DegenerateStepError
from qladder.qkernel import QBase, QKernelError

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# each suite's default tolerance and identity, as the suite reports them at
# the reference q-dual Hahn config (discrete support: orthonormality takes
# 1e-8; a real lattice: branch_continuity reports its skip at 0.2, under the
# skip's own identity)
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
    "branch_continuity": (0.2, "branch continuity along the theta grid"),
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


def test_a_direct_call_times_its_suite_and_reports_a_skip(families):
    fam = families["q_dual_hahn"]
    assert check_eigen(fam, [1, 2], default_grid(fam)).wall_ms > 0
    rep = check_adjoint(families["asc1"], [0, 1])
    assert rep.wall_ms > 0 and rep.cases == []
    assert rep.meta == {"status": "skipped",
                        "reason": "support kind 'jackson_integral' has no discrete sum"}


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
    def params(fn):
        return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]

    empty = inspect.Parameter.empty
    assert params(check_eigen) == [("fam", empty), ("ns", empty), ("s_grid", empty),
                                   ("tolerance", 1e-9)]
    assert params(check_selfadjoint) == [("fam", empty), ("pairs", empty),
                                         ("tolerance", 1e-8), ("drop_last", 0)]
    assert params(checks.orthonormality_suite) == [("fam", empty), ("tolerance", None)]
    assert check_selfadjoint(make_family("q_dual_hahn", reference_params("q_dual_hahn"),
                                         QBase(0.5)), [(0, 1)], 1e-3, 1).tolerance == 1e-3


def test_unknown_suite_raises_naming_the_known_suites(families):
    with pytest.raises(QKernelError, match="unknown suite 'nosuch'; known: eigen, ttrr_phi"):
        run_suite(families["asc1"], "nosuch")


def test_rows_read_the_suite_functions_at_call_time(families, monkeypatch):
    calls = []
    monkeypatch.setattr(checks, "rodrigues_suite",
                        lambda fam, **tol: calls.append(tol) or checks.CheckReport(
                            suite="rodrigues", identity="stub", family=fam.name,
                            tolerance=tol.get("tolerance", 1.0)))
    assert run_suite(families["asc1"], "rodrigues").identity == "stub"
    run_suite(families["asc1"], "rodrigues", tolerances={"rodrigues": 1e-3})
    assert calls == [{}, {"tolerance": 1e-3}]


def test_readme_suite_list_is_the_table():
    text = README.read_text(encoding="utf-8")
    listed = text[text.index("\nSuites: "):]
    listed = listed[:listed.index("or `all`")]
    assert tuple(re.findall(r"`(\w+)`", listed)) == SUITE_NAMES


def test_max_residual_follows_the_case_list():
    from qladder.report import CaseRecord, CheckReport

    rep = CheckReport("eigen", "identity", "asc1", tolerance=1e-11)
    assert rep.max_residual == 0.0 and rep.passed
    rep.cases.append(CaseRecord(1, "0.5", 2e-12))
    assert rep.max_residual == 2e-12 and rep.passed
    rep.cases.append(CaseRecord(2, "0.5", 5e-11))
    assert rep.max_residual == 5e-11 and not rep.passed
    rep.cases = [CaseRecord(1, "0.5", 1e-13)]
    assert rep.max_residual == 1e-13 and rep.passed
