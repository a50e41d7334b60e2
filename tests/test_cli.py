import json
import subprocess
import sys

import pytest

from qladder.cli import main
from qladder.families import reference_params
from qladder.report import SCHEMA_ID

REF_ARGS = {
    "asc1": ["--param", "a=-1"],
    "asc2": ["--param", "a=-1"],
    "big_q_jacobi": ["--param", "a=0.5", "--param", "b=0.5", "--param", "c=-0.5"],
    "q_dual_hahn": ["--param", "a=0", "--param", "b=5", "--param", "c=0.25"],
    "askey_wilson": ["--param", "a=0.3", "--param", "b=0.3", "--param", "c=0.3",
                     "--param", "d=0.3"],
    "continuous_q_hermite": [],
}


def run_cli(args):
    return main(list(args))


def test_list_families(capsys):
    assert run_cli(["list-families"]) == 0
    out = capsys.readouterr().out
    for name in REF_ARGS:
        assert name in out


def test_eval_row_count_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["eval", "--family", "asc1", "--param", "a=-1", "--q", "0.5",
            "--n-min", "0", "--n-max", "2", "--format", "csv"]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 5  # header + 3 orders x 5 grid points
    assert lines[0].startswith("family,n,")


def test_eval_json_schema(tmp_path):
    out = tmp_path / "e.json"
    assert run_cli(["eval", "--family", "continuous_q_hermite", "--q", "0.5",
                    "--n-min", "0", "--n-max", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == SCHEMA_ID
    assert len(data["rows"]) == 10


def test_unknown_family_exits_2(capsys):
    assert run_cli(["check", "--family", "nope", "--q", "0.5", "--suite", "eigen"]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_constraint_violation_exits_2_naming_parameter(capsys):
    rc = run_cli(["check", "--family", "q_dual_hahn", "--param", "a=7", "--param",
                  "b=5", "--param", "c=0.25", "--q", "0.5", "--suite", "eigen"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'a'" in err and "a < b-1" in err


def test_degenerate_grid_rejected(capsys):
    rc = run_cli(["check", "--family", "q_dual_hahn", "--param", "a=0", "--param",
                  "b=5", "--param", "c=0.25", "--q", "0.5", "--suite", "eigen",
                  "--grid", "0:4:5"])
    assert rc == 2
    assert "degenerate" in capsys.readouterr().err


# q-dual Hahn with a = 0.7, grid s = 1, 2, 3: chains through s = 1 reach the
# lattice symmetry point s = 0, where nabla x(0) = 0
SYMMETRY_CHAIN = ["check", "--family", "q_dual_hahn", "--param", "a=0.7", "--param", "b=3.7",
                  "--param", "c=0", "--q", "0.5", "--grid", "1:3:3"]


def test_factorization_next_to_symmetry_point(tmp_path):
    # the stencils never read E^-(0), so neither does the grid
    assert run_cli(SYMMETRY_CHAIN + ["--suite", "factorization",
                                     "--out", str(tmp_path / "f.json")]) == 0


def test_arithmetic_error_exits_2(tmp_path, capsys):
    # the bootstrap climb applies L+ at s = 0, dividing by nabla x(0) = 0
    assert run_cli(SYMMETRY_CHAIN + ["--suite", "bootstrap",
                                     "--out", str(tmp_path / "b.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bootstrap_chain_starting_at_symmetry_point(tmp_path):
    # the chain s = 0..8 starts at the symmetry point; L+ acts from s = 1 on
    for a in (0.0, 0.7):
        assert run_cli(["check", "--family", "q_dual_hahn", "--param", f"a={a}", "--param",
                        f"b={a + 5}", "--param", "c=0.25", "--q", "0.5", "--grid", "4:8:5",
                        "--suite", "bootstrap", "--out", str(tmp_path / "b.json")]) == 0


def test_check_all_reference_configs_pass(tmp_path, capsys):
    for name, extra in REF_ARGS.items():
        out = tmp_path / f"{name}.json"
        rc = run_cli(["check", "--family", name, "--q", "0.5", *extra,
                      "--suite", "all", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0, name
        data = json.loads(out.read_text())
        assert data["schema"] == SCHEMA_ID
        suites = {r["suite"] for r in data["reports"]}
        assert "factorization" in suites and "concordance" in suites
        for r in data["reports"]:
            assert r["verdict"] == "pass", (name, r["suite"])
            assert r["identity"]
            for case in r["cases"]:
                assert "n" in case and "s" in case and "residual" in case


def test_check_all_finite_dual_hahn_reports_every_suite(tmp_path, capsys):
    # b - a = 3 gives n_max = 2, below the fixed orders of the selfadjoint
    # pairs (n, m < 5) and of the discrete Gram (N = 4)
    out = tmp_path / "dh.json"
    rc = run_cli(["check", "--family", "q_dual_hahn", "--param", "a=0.5", "--param", "b=3.5",
                  "--param", "c=0.3", "--suite", "all", "--out", str(out)])
    capsys.readouterr()
    assert rc in (0, 1)
    reports = {r["suite"]: r for r in json.loads(out.read_text())["reports"]}
    assert len(reports) == 18
    assert reports["orthonormality"]["meta"]["N"] == 2
    notes = [c.get("note", "") for c in reports["selfadjoint"]["cases"]]
    assert notes.count("out-of-range: phi_k beyond finite family") == 16


def test_skipped_suite_reported_as_skip_not_pass(tmp_path, capsys):
    # asc2 tabulates no weight and no orthogonality; a skip is not a pass
    rc = run_cli(["check", "--family", "asc2", "--q", "0.5", *REF_ARGS["asc2"],
                  "--suite", "pearson", "--suite", "orthonormality", "--suite", "eigen",
                  "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 0
    assert err[0] == "[skip] asc2 pearson: no closed-form weight tabulated"
    assert err[1] == ("[skip] asc2 orthonormality: "
                      "no orthogonality relation tabulated for this family")
    assert err[2].startswith("[pass] asc2 eigen: max residual ")
    # the JSON verdict keeps its qladder-report/1 meaning
    data = json.loads((tmp_path / "s.json").read_text())
    assert [r["verdict"] for r in data["reports"]] == ["pass", "pass", "pass"]
    assert data["reports"][0]["meta"]["status"] == "skipped"


def test_check_single_suite_uv_shift(tmp_path):
    out = tmp_path / "uv.json"
    rc = run_cli(["check", "--family", "big_q_jacobi", "--q", "0.5",
                  *REF_ARGS["big_q_jacobi"], "--suite", "uv_shift", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["reports"]) == 1
    rep = data["reports"][0]
    assert rep["suite"] == "uv_shift"
    assert all(c["residual"] < 1e-10 for c in rep["cases"])


def test_perturbation_negative_control(tmp_path, capsys):
    rc = run_cli(["check", "--family", "q_dual_hahn", "--q", "0.5",
                  *REF_ARGS["q_dual_hahn"], "--suite", "factorization",
                  "--perturb", "beta", "1e-3", "--out", str(tmp_path / "p.json")])
    capsys.readouterr()
    assert rc == 1
    data = json.loads((tmp_path / "p.json").read_text())
    assert data["reports"][0]["verdict"] == "fail"
    assert data["reports"][0]["max_residual"] > 1e-5


def test_tolerance_override_flips_verdict(tmp_path, capsys):
    argv = ["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
            "--suite", "eigen", "--out", str(tmp_path / "t.json")]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert run_cli(argv + ["--tol", "eigen=1e-20"]) == 1
    capsys.readouterr()


def test_config_file_key_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reference dual Hahn\n"
        "family=q_dual_hahn\n"
        "q=0.5\n"
        "param.a=0\nparam.b=5\nparam.c=0.25\n"
        "suite=eigen\nsuite=uv_shift\n"
        "format=json\n"
        f"out={tmp_path / 'cfg_out.json'}\n"
    )
    assert run_cli(["check", "--config", str(cfg)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "cfg_out.json").read_text())
    assert [r["suite"] for r in data["reports"]] == ["eigen", "uv_shift"]


def test_config_file_json(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": "asc1",
        "q": 0.5,
        "params": {"a": -1.0},
        "suites": ["h_remark"],
    }))
    assert run_cli(["check", "--config", str(cfg)]) == 0
    capsys.readouterr()


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family=asc1\nwat\n")
    assert run_cli(["check", "--config", str(cfg)]) == 2
    assert "bad.cfg:2" in capsys.readouterr().err


def test_gram_command(tmp_path):
    out = tmp_path / "g.json"
    rc = run_cli(["gram", "--family", "q_dual_hahn", "--q", "0.5",
                  *REF_ARGS["q_dual_hahn"], "--n-max", "4", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["N"] == 4
    assert data["max_offdiag"] < 1e-8
    assert data["max_diag_deviation"] < 1e-8
    assert len(data["matrix"]) == 5


def test_gram_n_zero(tmp_path):
    out = tmp_path / "g0.json"
    rc = run_cli(["gram", "--family", "q_dual_hahn", "--q", "0.5",
                  *REF_ARGS["q_dual_hahn"], "--n-min", "0", "--n-max", "0",
                  "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["matrix"]) == 1
    assert abs(data["matrix"][0][0][0] - 1.0) < 1e-9


def test_grid_parse_errors_exit_2(capsys):
    rc = run_cli(["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
                  "--suite", "eigen", "--grid", "0.25:4.25"])
    assert rc == 2
    assert "start:stop:count" in capsys.readouterr().err
    rc = run_cli(["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
                  "--suite", "eigen", "--grid", "0.25:x:5"])
    assert rc == 2
    rc = run_cli(["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
                  "--suite", "nosuchsuite"])
    assert rc == 2
    assert "unknown suite" in capsys.readouterr().err


def test_single_point_grid(tmp_path, capsys):
    rc = run_cli(["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
                  "--suite", "eigen", "--grid", "0.7:0.7:1",
                  "--out", str(tmp_path / "one.json")])
    capsys.readouterr()
    assert rc == 0
    data = json.loads((tmp_path / "one.json").read_text())
    assert len(data["reports"][0]["cases"]) == 5  # n = 1..5 at one point


def test_theta_grid_for_trigonometric_lattice(tmp_path, capsys):
    # --grid is interpreted in theta for the trigonometric lattice
    rc = run_cli(["check", "--family", "askey_wilson", "--q", "0.5",
                  *REF_ARGS["askey_wilson"], "--suite", "eigen",
                  "--grid", "0.3:2.8:5", "--out", str(tmp_path / "aw.json")])
    capsys.readouterr()
    assert rc == 0
    data = json.loads((tmp_path / "aw.json").read_text())
    assert data["reports"][0]["max_residual"] < 1e-9


def test_reports_emitted_in_config_order(tmp_path, capsys):
    rc = run_cli(["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
                  "--suite", "h_remark", "--suite", "eigen", "--suite", "uv_shift",
                  "--out", str(tmp_path / "o.json")])
    capsys.readouterr()
    assert rc == 0
    data = json.loads((tmp_path / "o.json").read_text())
    assert [r["suite"] for r in data["reports"]] == ["h_remark", "eigen", "uv_shift"]


def test_check_csv_format(tmp_path):
    out = tmp_path / "c.csv"
    rc = run_cli(["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
                  "--suite", "eigen", "--suite", "h_remark", "--format", "csv",
                  "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "suite,identity,family,max_residual,tolerance,verdict,wall_ms"
    assert len(lines) == 3
    assert lines[1].startswith("eigen,") and ",pass," in lines[1]


def test_gram_aw_includes_doubling_metadata(tmp_path):
    out = tmp_path / "gaw.json"
    rc = run_cli(["gram", "--family", "askey_wilson", "--q", "0.5",
                  *REF_ARGS["askey_wilson"], "--n-min", "0", "--n-max", "3",
                  "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["max_offdiag"] < 1e-6
    hist = data["quadrature"]["node_history"]
    assert len(hist) >= 2 and hist[1][0] == 2 * hist[0][0]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qladder.cli", "list-families"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "askey_wilson" in proc.stdout
