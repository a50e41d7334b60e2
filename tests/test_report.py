"""`report.dumps_reports` writes the v1 JSON straight from a report's case
columns; `pointwise.report_to_dict` with `json.dumps` is its reference, and
the two agree byte for byte, on every suite's reports and on synthetic
reports at the edges of what JSON writes, or both refuse a value.
`report.suite` runs a body under its one floating-point policy and names
itself on a library refusal."""

import json
import math
import types

import numpy as np
import pytest

from qladder.checks import SUITE_NAMES, run_suite
from qladder.families import make_family, reference_params
from qladder.qkernel import NonConvergedError, QBase, QKernelError
from qladder.report import SCHEMA_ID, CheckReport, dumps_reports, suite

from conftest import FAMILY_NAMES
from pointwise import report_to_dict


def reference(reports) -> str:
    return json.dumps({"schema": SCHEMA_ID, "reports": [report_to_dict(r) for r in reports]})


def assert_same_or_both_refuse(reports):
    try:
        want = reference(reports)
    except (TypeError, ValueError) as e:
        with pytest.raises(type(e)):
            dumps_reports(reports)
    else:
        assert dumps_reports(reports) == want


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_suite_encodes_as_the_reference(name, q):
    # a suite that raises at this config (continuous q-Hermite rodrigues at
    # q = 0.2) has no report to encode
    fam = make_family(name, reference_params(name), QBase(q))
    reports = []
    for suite in SUITE_NAMES:
        try:
            reports.append(run_suite(fam, suite))
        except (QKernelError, ArithmeticError):
            pass
    assert len(reports) >= len(SUITE_NAMES) - 1
    assert sum(len(r.cases) for r in reports) > 300
    assert dumps_reports(reports) == reference(reports)
    for rep in reports:
        assert dumps_reports([rep]) == reference([rep]), rep.suite


def _report(**kwargs):
    return CheckReport("eigen", "H phi = 0", "asc1", tolerance=1e-9, wall_ms=1.23456, **kwargs)


@pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308,
                                      np.float64(1e-13), np.float64(math.nan), 1e300, 0])
def test_a_residual_encodes_as_json_writes_it(residual):
    rep = _report()
    rep.add([1, 2], ["0.5", "1.5"], [1e-16, residual])
    rep.add(3, "2.5", residual, "alone")
    assert dumps_reports([rep]) == reference([rep])


def test_special_residuals_in_one_array():
    rep = _report()
    rep.add(1, ["a", "b", "c", "d"], np.array([[math.inf, -0.0], [5e-324, math.nan]]))
    text = dumps_reports([rep])
    assert text == reference([rep])
    assert '"max_residual": NaN, "verdict": "fail"' in text
    assert '"residual": Infinity' in text and '"residual": -0.0' in text


def test_a_skipped_report_without_cases_and_no_reports():
    rep = _report(meta={"status": "skipped", "reason": "no discrete sum"})
    assert dumps_reports([rep]) == reference([rep])
    assert '"cases": [], "meta": {"status": "skipped"' in dumps_reports([rep])
    assert dumps_reports([]) == reference([]) == '{"schema": "qladder-report/1", "reports": []}'


def test_notes_mixed_with_empty_notes():
    rep = _report()
    rep.add([0, 1, 1, 2], "s", [0.0, 1e-12, 2e-12, 3e-12], ["first", "", "third", ""])
    rep.add(4, "t", 1e-15)
    assert dumps_reports([rep, _report()]) == reference([rep, _report()])
    assert dumps_reports([rep]).count('"note"') == 2


def test_quotes_backslashes_and_non_ascii_in_labels_notes_and_meta():
    rep = CheckReport("eigen", 'say "\\n" \u03c3\u2207x', "asc1", tolerance=1e-9,
                      meta={"errata": [{"detail": 'tab\t"q"\\ \u00e9 \U0001d70e'}],
                            "\u03bb": [1.5, -0.0], "fitted": {"0": [math.inf, math.nan]}})
    rep.add([1, 2], ['s="0.5"', "\\1.5\u00b7"], [1e-13, 2e-13], ['\u03c3 "q" \\', "a, b"])
    text = dumps_reports([rep])
    assert text == reference([rep])
    assert text.isascii()


@pytest.mark.parametrize("n", [True, False, np.int64(3), np.bool_(True), "a, b", None, 2.5])
def test_an_n_of_another_type_encodes_as_json_would_or_both_refuse(n):
    rep = _report()
    rep.add(n, "0.5", 1e-13)
    rep.add([n, 1], ["0.5", "1.5"], [1e-13, 1e-14])
    assert_same_or_both_refuse([rep])


@pytest.mark.parametrize("residual", [np.float32(1e-3), 1 + 2j])
def test_a_residual_json_refuses_is_refused_by_both(residual):
    rep = _report()
    rep.add(1, "0.5", residual)
    assert_same_or_both_refuse([rep])


@pytest.mark.parametrize("fault, message", [
    (lambda: np.ones(2) / np.zeros(2), "divide by zero"),
    (lambda: np.zeros(2) / np.zeros(2), "invalid value"),
    (lambda: np.full(2, 1e300) * 1e300, "overflow"),
], ids=["divide", "invalid", "over"])
def test_a_suite_raises_a_floating_point_fault_naming_itself(fault, message):
    # numpy's default would warn and give the body an inf or NaN residual
    @suite("throwaway", "1 = 1", 1e-9)
    def check(rep, fam, ns, s_grid):
        rep.add(0, "-", float(np.max(np.abs(fault()))))

    before = np.geterr()
    with pytest.raises(FloatingPointError, match=f"^throwaway: {message}"):
        check(types.SimpleNamespace(name="asc1"), [1], [0.5])
    assert np.geterr() == before


@pytest.mark.parametrize("error", [QKernelError, NonConvergedError])
def test_a_suite_names_itself_on_a_q_kernel_refusal(error):
    # a refusal that is not an ArithmeticError (a vanishing root or weight, a
    # series that does not settle) is raised again, of its class, named too
    @suite("throwaway", "1 = 1", 1e-9)
    def check(rep, fam, ns, s_grid):
        raise error("weight undetermined")

    with pytest.raises(error, match="^throwaway: weight undetermined$") as caught:
        check(types.SimpleNamespace(name="asc1"), [1], [0.5])
    assert type(caught.value) is error
    assert type(caught.value.__cause__) is error
    assert str(caught.value.__cause__) == "weight undetermined"
