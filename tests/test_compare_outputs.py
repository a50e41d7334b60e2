"""tools/compare_outputs.py: what it masks and how it reports a moved run."""

import json
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import compare_outputs as co  # noqa: E402


def _record(out, status=0, stderr=""):
    return {"argv": ["check"], "status": status, "stdout": "", "stderr": stderr,
            "out": co._mask(out)}


def _report(residual, verdict="pass", wall_ms=1.5):
    return json.dumps({"schema": "s", "reports": [
        {"suite": "pearson", "max_residual": residual, "verdict": verdict, "wall_ms": wall_ms,
         "cases": [{"n": 0, "s": "0.3", "residual": residual}]}]})


def test_wall_ms_is_masked_in_json_and_in_the_check_csv():
    assert co._mask(_report(1e-16, wall_ms=1.5)) == co._mask(_report(1e-16, wall_ms=72.25))
    json.loads(co._mask(_report(1e-16)))  # still JSON
    csv_a = ("suite,identity,family,max_residual,tolerance,verdict,wall_ms\n"
             "pearson,x,f,1,2,pass,3.5\n")
    assert co._mask(csv_a) == co._mask(csv_a.replace("3.5", "9.0"))
    assert co._mask(csv_a) != co._mask(csv_a.replace("pass", "fail"))


def test_a_moved_residual_and_a_flipped_verdict_are_reported():
    same = co.compare_run(_record(_report(1e-16)), _record(_report(1e-16, wall_ms=9.0)))
    assert same == ([], [])
    parts, moves = co.compare_run(_record(_report(1e-16)), _record(_report(3e-16)))
    assert parts == ["out"]
    assert {tag for tag, _, _ in moves} == {"pearson.max_residual", "pearson.cases.residual"}
    assert all(math.isclose(dist, 2e-16) for _, dist, _ in moves)
    parts, moves = co.compare_run(_record(_report(1e-16)),
                                  _record(_report(1.0, "fail"), status=1))
    assert parts == ["status", "out"]
    assert ("exit status 0 -> 1", math.inf, math.inf) in moves
    assert ("pearson.verdict (shape or text)", math.inf, math.inf) in moves


def test_the_run_set_checks_single_suites_on_requested_grids():
    """Beside `--suite all` on default grids, every stencil suite runs alone
    on three grids at each reference config, and on five grids near the
    zeros of q-dual Hahn's chain, so a refusal that moves in one suite shows;
    pearson and all run at a pole of q-dual Hahn's weight, where both refuse;
    rodrigues runs where q-dual Hahn's weight refuses, and bootstrap on a
    chain from its symmetry point; bootstrap runs alone at the two asc1
    draws where rounding decides it."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    runs = co.run_set()
    assert len(runs) == len({tuple(r) for r in runs}) == 861
    assert all(r[-2:] == ["--out", "OUT"] for r in runs)
    single = [r for r in runs if r[0] == "check" and "--format" not in r and "--perturb" not in r]
    assert len(single) == 6 * 11 * 3 + 2 * 11 * 5 + 2 + 2 + len(co.BOOTSTRAP_EDGE)
    pole = [r for r in single if co.QDH_POLE_GRID in r]
    assert [r[r.index("--suite") + 1] for r in pole] == ["pearson", "all"]
    qdh_edge = [(r[1:3], r[r.index("--suite") + 1], r[-3]) for r in single
                if r[-4] == "--grid" and r[-3] in ("6:8:3", "4:8:5")]
    assert qdh_edge == [(["--family", "q_dual_hahn"], "rodrigues", "6:8:3"),
                        (["--family", "q_dual_hahn"], "bootstrap", "4:8:5")]
    edge = [r for r in single if "a=0.7" in r]
    assert {r[r.index("--grid") + 1] for r in edge} == set(co.QDH_GRIDS)
    assert {r[r.index("--suite") + 1] for r in edge} == set(co.SUITES)
    bootstrap = [r for r in single if "asc1" in r and "--grid" not in r
                 and r[r.index("--q") + 1] != "0.5"]
    assert [r[r.index("--suite") + 1] for r in bootstrap] == ["bootstrap"] * 2
