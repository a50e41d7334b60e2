"""The suite table: names, order, default tolerances and dispatch."""

import pathlib
import re

import pytest

from qladder import checks
from qladder.checks import SUITE_NAMES, run_suite
from qladder.qkernel import QKernelError

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# each suite's default tolerance, as the suite reports it at the reference
# q-dual Hahn config (discrete support: orthonormality takes 1e-8; a real
# lattice: branch_continuity reports its skip at 0.2)
DEFAULT_TOLERANCE = {
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


def test_suite_names_are_the_table_rows_in_all_order():
    assert SUITE_NAMES == tuple(checks._SUITES)
    assert SUITE_NAMES == tuple(DEFAULT_TOLERANCE)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_report_names_its_suite_at_the_default_tolerance(families, suite):
    rep = run_suite(families["q_dual_hahn"], suite)
    assert rep.suite == suite
    assert rep.tolerance == DEFAULT_TOLERANCE[suite]


def test_tolerance_override_reaches_only_its_suite(families):
    fam = families["q_dual_hahn"]
    tolerances = {"orthonormality": 1e-3, "branch_continuity": 0.5}
    for suite in ("orthonormality", "branch_continuity", "eigen"):
        rep = run_suite(fam, suite, tolerances=tolerances)
        assert rep.tolerance == tolerances.get(suite, DEFAULT_TOLERANCE[suite])


def test_defaults_on_the_trigonometric_lattice(families):
    # orthonormality's default picks 1e-6 on the continuous support, and
    # branch_continuity runs (not skips) at 0.2
    fam = families["askey_wilson"]
    assert run_suite(fam, "orthonormality").tolerance == 1e-6
    rep = run_suite(fam, "branch_continuity")
    assert (rep.tolerance, "status" in rep.meta, len(rep.cases)) == (0.2, False, 199)


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
