import gc
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from qladder import cli, families, ladder
from qladder.cli import main
from qladder.families import make_family, reference_params
from qladder.orthogonality import continuous_inner_aw_converged
from qladder.qkernel import QBase, QKernelError
from qladder.report import SCHEMA_ID

import pointwise

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


@pytest.mark.parametrize("command", [["check", "--suite", "all"], ["gram", "--n-max", "4"],
                                     ["eval"], ["check", "--perturb", "beta", "1e-3"]],
                         ids=["check", "gram", "eval", "check-perturbed"])
def test_a_command_frees_its_family_without_the_cyclic_collector(tmp_path, monkeypatch,
                                                                 command):
    # a family's per-n table and stencil grids take its data, not the family,
    # so reference counting frees the family (and a perturbed family's base),
    # its table and its grids when the command returns
    made = []
    for cls in (families.FamilySpec, families.CoefficientTable, ladder.StencilGrid):
        def tracked(self, *args, init=cls.__init__, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", tracked)
    gc.collect()
    gc.disable()
    try:
        for name, args in REF_ARGS.items():
            run_cli([*command, "--family", name, "--q", "0.5", *args,
                     "--out", str(tmp_path / "out")])
        alive = [type(ref()).__name__ for ref in made if ref() is not None]
    finally:
        gc.enable()
    assert len(made) > len(REF_ARGS) and not alive, (len(made), alive)


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


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", list(REF_ARGS))
def test_eval_columns_equal_pointwise_reference(tmp_path, name, q):
    # x, sigma, tau and Theta of every row, bit for bit, against their
    # point-by-point definitions; P (one recurrence pass over the grid), rho
    # (on one-element arrays) and phi against the scalar reference, bit for
    # bit on a real lattice (numpy's complex products round differently)
    out = tmp_path / "e.json"
    assert run_cli(["eval", "--family", name, *REF_ARGS[name], "--q", str(q),
                    "--n-min", "0", "--n-max", "2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 15
    fam = make_family(name, reference_params(name), QBase(q))
    eq = fam.eq
    for row in rows:
        s, n = complex(*row["s"]), row["n"]
        for col, want in (("x", eq.lattice.x(s)), ("sigma", pointwise.sigma_eval(eq, s)),
                          ("tau", pointwise.tau_eval(eq, s)),
                          ("Theta", pointwise.theta_eval(eq, s))):
            assert row[col] == [want.real, want.imag], (col, s)
        want = {"P": pointwise.pn(fam, n, s)}
        if pointwise.phi_ok(fam, s):
            want.update(rho=pointwise.rho_at(fam, s), phi=pointwise.phi(fam, n, s))
        for col, w in want.items():
            got = complex(*row[col])
            assert got == w or fam.kind.complex_s and abs(got - w) <= 1e-15 * abs(w), (col, s)


@pytest.mark.parametrize("name", ["asc1", "big_q_jacobi", "q_dual_hahn"])
def test_eval_phi_is_the_family_phi(tmp_path, name):
    # eval's phi column is FamilySpec.phi, bit for bit, at every point of the
    # default grid; it is null where FamilySpec.phi refuses the point (big
    # q-Jacobi's first point, x = 0.84, lies off its support and rho < 0 there)
    out = tmp_path / "e.json"
    assert run_cli(["eval", "--family", name, *REF_ARGS[name], "--q", "0.5",
                    "--n-min", "0", "--n-max", "3", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    fam = make_family(name, reference_params(name), QBase(0.5))
    assert len(rows) == 20 and sum(row["phi"] is not None for row in rows) >= 16
    for row in rows:
        s = np.array([complex(*row["s"])])
        if row["phi"] is None:
            with pytest.raises(QKernelError, match="not a nonnegative real"):
                fam.phi(row["n"], s)
        else:
            want = fam.phi(row["n"], s)[0]
            assert row["phi"] == [want.real, want.imag], (row["n"], row["s"])


def test_eval_keeps_its_table_at_a_weight_pole(tmp_path):
    # q-dual Hahn's weight divides by (q^{s+a+1};q)_inf, which vanishes at
    # s = -a - 1 = -1.2: that point reads rho and phi null, not NaN, and the
    # other points keep the values of a grid without the pole (whose s
    # differs in the last bit)
    qdh = ["--family", "q_dual_hahn", "--param", "a=0.2", "--param", "b=5.2",
           "--param", "c=0.3", "--q", "0.5", "--n-max", "2"]
    out, ref = tmp_path / "pole.json", tmp_path / "ref.json"
    assert run_cli(["eval", *qdh, "--grid=-1.2:0.8:3", "--out", str(out)]) == 0
    assert run_cli(["eval", *qdh, "--grid=-0.2:0.8:2", "--out", str(ref)]) == 0
    rows = json.loads(out.read_text())["rows"]
    pole = [r for r in rows if r["s"] == [-1.2, 0.0]]
    assert len(pole) == 2 and all(r["rho"] is None and r["phi"] is None for r in pole)
    rest = [r for r in rows if r["s"] != [-1.2, 0.0]]
    drop_s = lambda rs: [{k: v for k, v in r.items() if k != "s"} for r in rs]
    assert drop_s(rest) == drop_s(json.loads(ref.read_text())["rows"])
    assert all(r["rho"] is not None and r["phi"] is not None for r in rest)


def test_unknown_family_exits_2(capsys):
    assert run_cli(["check", "--family", "nope", "--q", "0.5", "--suite", "eigen"]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_constraint_violation_exits_2_naming_parameter(capsys):
    rc = run_cli(["check", "--family", "q_dual_hahn", "--param", "a=7", "--param",
                  "b=5", "--param", "c=0.25", "--q", "0.5", "--suite", "eigen"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'a'" in err and "a < b-1" in err


@pytest.mark.parametrize("grid, point, step", [
    ("0:4:5", "0+0j", "nabla x"),
    ("-1:1:3", "-1+0j", "Delta x"),
    ("-0.5:0.5:2", "-0.5+0j", "Delta x(s-1/2)"),
])
def test_degenerate_grid_rejected(capsys, grid, point, step):
    # the q-dual Hahn reference lattice is symmetric about s = -1/2: the first
    # point with a vanishing step is named, with the first step that vanishes
    rc = run_cli(["check", "--family", "q_dual_hahn", *REF_ARGS["q_dual_hahn"], "--q", "0.5",
                  "--suite", "eigen", f"--grid={grid}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: grid point {point} is degenerate ({step} vanishes); "
                            "choose a grid excluding lattice symmetry points\n")


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


def test_arithmetic_error_names_the_suite(tmp_path, capsys):
    assert run_cli(SYMMETRY_CHAIN + ["--suite", "bootstrap",
                                     "--out", str(tmp_path / "b.json")]) == 2
    assert "bootstrap" in capsys.readouterr().err.splitlines()[-1]


def test_rodrigues_next_to_a_sigma_zero_of_q_hermite(tmp_path):
    # sigma comes within one last bit of the Pearson guard here: x from
    # numpy's exp instead of the scalar formula reports sigma = 0 in the span
    assert run_cli(["check", "--family", "continuous_q_hermite", "--q", "0.1745347148715276",
                    "--suite", "rodrigues", "--out", str(tmp_path / "r.json")]) == 0


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


@pytest.mark.parametrize("target", ["beta", "gamma"])
@pytest.mark.parametrize("name", list(REF_ARGS))
def test_poly_ladder_negative_control(tmp_path, capsys, name, target):
    out = tmp_path / "p.json"
    rc = run_cli(["check", "--family", name, "--q", "0.5", *REF_ARGS[name],
                  "--suite", "poly_ladder", "--perturb", target, "1e-3", "--out", str(out)])
    capsys.readouterr()
    assert rc == 1
    rep = json.loads(out.read_text())["reports"][0]
    assert rep["verdict"] == "fail"
    assert rep["max_residual"] > 1e-5


@pytest.mark.parametrize("suite", ["uv_shift", "h_remark", "bootstrap", "poly_ladder",
                                   "eigen", "all"])
def test_check_with_empty_n_range_exits_2(capsys, suite):
    # validate accepts n_max = 0 (eval and gram use n = 0); every suite of
    # check starts at n = 1, so the range is empty and check refuses it
    rc = run_cli(["check", "--family", "asc1", "--param", "a=-1", "--q", "0.5",
                  "--n-min", "0", "--n-max", "0", "--suite", suite])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--n-max" in err[0]


def test_tolerance_override_flips_verdict(tmp_path, capsys):
    argv = ["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
            "--suite", "eigen", "--out", str(tmp_path / "t.json")]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert run_cli(argv + ["--tol", "eigen=1e-20"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("source", ["flag", "key=value", "json"])
def test_misspelt_tolerance_override_exits_2_naming_it(tmp_path, capsys, source):
    out = tmp_path / "t.json"
    argv = ["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
            "--suite", "eigen", "--out", str(out)]
    if source == "flag":
        argv += ["--tol", "eigne=1e-20"]
    elif source == "key=value":
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol.eigne=1e-20\n")
        argv += ["--config", str(cfg)]
    else:
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps({"tolerances": {"eigne": 1e-20}}))
        argv += ["--config", str(cfg)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'eigne'" in err[0]
    assert not out.exists()


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


@pytest.mark.parametrize("fields", [{"params": {"a": "x"}}, {"n_max": "x"}])
def test_config_json_non_numeric_value_exits_2(tmp_path, capsys, fields):
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"family": "asc1", "q": 0.5, "params": {"a": -1.0},
                               "suites": ["eigen"], **fields}))
    assert run_cli(["check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: field ") and "'x'" in err


@pytest.mark.parametrize("argv, field", [
    (["check", "--suite", "eigen", "--tol", "eigen=nan"], "tol.eigen"),
    (["check", "--suite", "eigen", "--tol", "eigen=inf"], "tol.eigen"),
    (["check", "--suite", "eigen", "--param", "a=nan"], "param.a"),
    (["check", "--suite", "eigen", "--perturb", "beta", "nan"], "perturb"),
    (["gram", "--param", "a=inf"], "param.a"),
    (["eval", "--grid", "nan:1:2"], "grid"),
    (["eval", "--grid", "0.3:-inf:2"], "grid"),
    (["eval", "--q", "nan"], "q"),
])
def test_a_non_finite_flag_exits_2_naming_its_field(tmp_path, capsys, argv, field):
    out = tmp_path / "o.txt"
    argv = [argv[0], "--family", "asc1", "--param", "a=-1", *argv[1:], "--out", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"field '{field}'" in err[0]
    assert "not a finite number" in err[0] and not out.exists()


@pytest.mark.parametrize("line, fields, field", [
    ("q=inf", {"q": math.inf}, "q"),
    ("param.a=-inf", {"params": {"a": -math.inf}}, "param.a"),
    ("tol.eigen=nan", {"tolerances": {"eigen": math.nan}}, "tol.eigen"),
    ("grid=0.3:nan:3", {"grid": [0.3, math.nan, 3]}, "grid"),
    ("perturb=gamma:inf", {"perturb": ["gamma", math.inf]}, "perturb"),
])
@pytest.mark.parametrize("source", ["key=value", "json"])
def test_a_non_finite_config_value_exits_2_naming_its_field(tmp_path, capsys, line, fields,
                                                            field, source):
    if source == "key=value":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family=asc1\nq=0.5\nparam.a=-1\nsuite=eigen\n{line}\n")
    else:  # json.dumps spells nan and inf NaN and Infinity, which json.loads reads
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "asc1", "q": 0.5, "params": {"a": -1.0},
                                   "suites": ["eigen"], **fields}))
    out = tmp_path / "o.json"
    assert run_cli(["check", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}") and f"field '{field}'" in err[0]
    assert "not a finite number" in err[0] and not out.exists()


@pytest.mark.parametrize("grid, message", [([0.3, 2.5], "start:stop:count"),
                                           ([0.3, 2.5, 0], "count must be >= 1")])
def test_config_json_bad_grid_exits_2(tmp_path, capsys, grid, message):
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"family": "asc1", "q": 0.5, "params": {"a": -1.0},
                               "suites": ["eigen"], "grid": grid}))
    assert run_cli(["check", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["suite", "n_mx"])
def test_config_json_unknown_key_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps({"family": "asc1", "q": 0.5, "params": {"a": -1.0},
                               key: "eigen" if key == "suite" else 3}))
    assert run_cli(["check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown key {key!r}\n"


def test_config_unknown_key_names_its_location_once(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("family=asc1\nparam.a=-1\nn_mx=3\n")
    assert run_cli(["check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: unknown key 'n_mx'\n"


def _run_config(argv):
    return cli._config_from_args(cli._parser().parse_args(argv))


def test_flags_override_the_file_and_named_suites_replace(tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text("family=asc1\nq=0.3\nparam.a=-1\nsuite=eigen\nsuite=raising\n"
                   "tol.eigen=1e-7\n")
    base = ["check", "--config", str(cfg)]
    from_file = _run_config(base)
    assert (from_file.q, from_file.suites, from_file.tolerances) == (
        0.3, ["eigen", "raising"], {"eigen": 1e-7})
    flagged = _run_config(base + ["--q", "0.5", "--param", "a=-2", "--suite", "lowering",
                                  "--tol", "eigen=1e-5"])
    assert (flagged.q, flagged.params, flagged.suites, flagged.tolerances) == (
        0.5, {"a": -2.0}, ["lowering"], {"eigen": 1e-5})


def test_example_configs_equal_the_flags():
    examples = pathlib.Path(__file__).resolve().parent.parent / "examples"
    flags = _run_config(["check", "--family", "q_dual_hahn", *REF_ARGS["q_dual_hahn"],
                         "--q", "0.5", "--suite", "all", "--format", "json"])
    for name in ("q_dual_hahn_reference.cfg", "q_dual_hahn_reference.json"):
        assert _run_config(["check", "--config", str(examples / name)]) == flags, name


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


@pytest.mark.parametrize("name, label", [
    ("asc1", "jackson_integral"), ("big_q_jacobi", "jackson_integral"),
    ("q_dual_hahn", "discrete_grid"), ("askey_wilson", "continuous_interval"),
    ("continuous_q_hermite", "continuous_interval"), ("asc2", "none"),
])
def test_gram_names_the_measure_of_its_lattice_kind(tmp_path, capsys, name, label):
    # the support label is the lattice kind's; a quadrature block comes with
    # the continuous rule's history; asc2 ships no bounds, so no inner product
    out = tmp_path / "g.json"
    rc = run_cli(["gram", "--family", name, *REF_ARGS[name], "--n-max", "3", "--out", str(out)])
    if label == "none":
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "error: no inner product available for support kind 'none'\n")
        return
    data = json.loads(out.read_text())
    assert rc == 0 and data["support"] == label
    assert ("quadrature" in data) == (label == "continuous_interval")


def test_gram_n_zero(tmp_path):
    out = tmp_path / "g0.json"
    rc = run_cli(["gram", "--family", "q_dual_hahn", "--q", "0.5",
                  *REF_ARGS["q_dual_hahn"], "--n-max", "0", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["matrix"]) == 1
    assert abs(data["matrix"][0][0][0] - 1.0) < 1e-9


def test_gram_reads_only_n_max(tmp_path, capsys):
    # gram never reads n_min, so the default n_min = 1 does not reject --n-max 0
    out = tmp_path / "g0.json"
    assert run_cli(["gram", "--family", "asc1", *REF_ARGS["asc1"], "--n-max", "0",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["N"] == 0 and len(data["matrix"]) == 1
    assert abs(data["matrix"][0][0][0] - 1.0) < 1e-8
    assert run_cli(["gram", "--family", "asc1", *REF_ARGS["asc1"], "--n-max", "-1"]) == 2
    assert "gram needs --n-max >= 0, got -1" in capsys.readouterr().err


def test_gram_refuses_asc1_where_its_measure_vanishes(capsys):
    assert run_cli(["gram", "--family", "asc1", "--param", "a=0.5", "--q", "0.5",
                    "--n-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: parameter 'a' invalid")


def test_gram_maxima_carry_a_nan_entry(monkeypatch, capsys):
    G = np.eye(3, dtype=complex)
    for nan_at, key in (((0, 1), "max_offdiag"), ((2, 2), "max_diag_deviation")):
        bad = G.copy()
        bad[nan_at] = complex("nan")
        monkeypatch.setattr(cli, "gram_matrix", lambda fam, N, bad=bad: (bad, []))
        assert run_cli(["gram", "--family", "asc1", *REF_ARGS["asc1"], "--n-max", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        other = ({"max_offdiag", "max_diag_deviation"} - {key}).pop()
        assert np.isnan(data[key]) and data[other] == 0.0


def test_commands_refuse_the_flags_they_do_not_read(tmp_path, capsys):
    qdh = ["--family", "q_dual_hahn", *REF_ARGS["q_dual_hahn"], "--n-max", "1"]
    for argv in (["gram", *qdh, "--format", "csv"], ["gram", *qdh, "--grid", "0:1:3"],
                 ["gram", *qdh, "--tol", "eigen=1e-3"], ["gram", *qdh, "--n-min", "0"],
                 ["eval", *qdh, "--tol", "eigen=1e-3"]):
        assert run_cli(argv) == 2, argv
        assert capsys.readouterr().err.count("error:") == 1
    # gram writes JSON only, whichever source names csv
    cfg = tmp_path / "g.cfg"
    cfg.write_text("format=csv\n")
    assert run_cli(["gram", *qdh, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: gram writes JSON only, got format 'csv'\n"
    # keys a command does not read stay accepted in a config file shared by
    # the commands (suite=all, grid, n_min, tolerances)
    cfg.write_text("suite=all\ngrid=0:1:3\nn_min=0\ntol.eigen=1e-3\nformat=json\n")
    assert run_cli(["gram", *qdh, "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 1
    shared = pathlib.Path(__file__).resolve().parent.parent / "examples"
    assert run_cli(["gram", "--config", str(shared / "q_dual_hahn_reference.cfg"),
                    "--n-max", "4"]) == 0


def test_gram_refuses_a_discrete_sum_through_a_weight_pole(capsys):
    # a >= -1/2 is admissible, but the weight has a pole at s = a = -1/2
    assert run_cli(["gram", "--family", "q_dual_hahn", "--param", "a=-0.5", "--param",
                    "b=4.5", "--param", "c=0.3", "--q", "0.5", "--n-max", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: discrete sum term is not finite at node s = -0.5+0j\n"


@pytest.mark.parametrize("name, q, params, bound", [
    ("asc1", 0.10693629904792491, {"a": -2.265421624643717}, 1e-8),
    ("big_q_jacobi", 0.2609449383151756,
     {"a": 0.0028222212121253865, "b": 3.718021655364905, "c": -2.131197126520494}, 2e-3),
])
def test_jackson_gram_evaluates_p_n_at_the_node_itself(tmp_path, name, q, params, bound):
    # P_n at the Jackson node x, not at x -> s -> x, and every entry settled
    # against |d_n d_m|: the parent read 4.4e-8 (asc1) and 5.3e-3 (big q-Jacobi)
    out = tmp_path / "g.json"
    argv = ["gram", "--family", name, "--q", repr(q), "--n-max", "6", "--out", str(out)]
    for k, v in params.items():
        argv += ["--param", f"{k}={v!r}"]
    assert run_cli(argv) == 0
    data = json.loads(out.read_text())
    assert max(data["max_offdiag"], data["max_diag_deviation"]) < bound


def test_eval_reads_the_weight_once_for_the_grid(tmp_path, monkeypatch):
    fam = make_family("asc1", reference_params("asc1"), QBase(0.5))
    kind = type(fam.kind)
    rho_at_s, calls = kind.rho_at_s, []

    def counted(self, family, s):
        calls.append(s)
        return rho_at_s(self, family, s)

    monkeypatch.setattr(kind, "rho_at_s", counted)
    out = tmp_path / "e.json"
    assert run_cli(["eval", "--family", "asc1", *REF_ARGS["asc1"], "--q", "0.5",
                    "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 25  # n = 1..5 at the 5 points of the default grid
    assert len(calls) == 1 and all(row["phi"] is not None for row in rows)
    assert calls[0].tolist() == [0.25, 1.25, 2.25, 3.25, 4.25]


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


QDH_REF = ["--family", "q_dual_hahn", *REF_ARGS["q_dual_hahn"]]
ASC1_REF = ["--family", "asc1", *REF_ARGS["asc1"]]


@pytest.mark.parametrize("spelt, twin", [
    (["eval", *QDH_REF, "--grid", "-1.5:-0.5:2"], ["eval", *QDH_REF, "--grid=-1.5:-0.5:2"]),
    (["check", *ASC1_REF, "--q", "0.5", "--suite", "all", "--grid", "-2.5:-0.5:3"],
     ["check", *ASC1_REF, "--q", "0.5", "--suite", "all", "--grid=-2.5:-0.5:3"]),
    (["check", *ASC1_REF, "--suite", "eigen", "--perturb", "beta", "-1e-3"],
     ["check", *ASC1_REF, "--suite", "eigen", "--perturb", "beta", "-0.001"]),
], ids=["grid-refused", "grid", "perturb"])
def test_a_flag_value_may_start_with_a_minus_sign(tmp_path, capsys, spelt, twin):
    # a grid -1.5:-0.5:2 or a delta -1e-3 is the flag's value, not a flag
    seen = []
    for argv in (spelt, twin):
        out = tmp_path / "out"
        rc = run_cli([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        text = out.read_text() if out.exists() else ""
        seen.append((rc, captured.out, captured.err,
                     re.sub(r'"wall_ms": [-+0-9.eE]+', "", text)))
        out.unlink(missing_ok=True)
    assert seen[0] == seen[1]
    assert "expected" not in seen[0][2]


@pytest.mark.parametrize("grid", ["-3.25:-1.25:3", "6:8:3"])
def test_a_weight_pole_refuses_the_pearson_suite(tmp_path, capsys, grid):
    # the closed q-dual Hahn weight is 0/0 at these points: no residual, no NaN verdict
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(["check", *QDH_REF, "--q", "0.5", f"--grid={grid}", "--suite", "pearson",
                      "--out", str(tmp_path / "p.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: pearson: ")
    assert "RuntimeWarning" not in err
    assert not caught


def test_suite_all_takes_no_other_suite_name(capsys):
    rc = run_cli(["check", "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
                  "--suite", "eigen", "--suite", "all"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: suite 'all' runs every suite and takes no other suite "
                            "name; got eigen, all\n")


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


def test_gram_aw_includes_doubling_metadata(tmp_path, monkeypatch):
    # node_history is the Gram's own doubling loop: its [N, N] entry equals a
    # loop of its own on <P_N, P_N> with scale |d_N^2|.  The levels nest: the
    # density is called once on the 2M + 1 nodes of the first two levels, then
    # once on the M new midpoints per further level, and no node twice
    calls = []
    aw_weights = families._aw_weights

    def counted_aw_weights(*args):
        weight, density = aw_weights(*args)

        def counted(x):
            calls.append(np.array(x))
            return density(x)

        return weight, counted

    monkeypatch.setattr(families, "_aw_weights", counted_aw_weights)
    out = tmp_path / "gaw.json"
    for name in ("askey_wilson", "continuous_q_hermite"):
        fam = make_family(name, reference_params(name), QBase(0.5))
        for N in range(2, 7):
            calls.clear()
            rc = run_cli(["gram", "--family", name, "--q", "0.5", *REF_ARGS[name],
                          "--n-max", str(N), "--out", str(out)])
            assert rc == 0
            data = json.loads(out.read_text())
            assert data["max_offdiag"] < 1e-6
            hist = data["quadrature"]["node_history"]
            panels = [p for p, _ in hist]
            assert len(panels) >= 2 and panels == [panels[0] * 2**k for k in range(len(panels))]
            assert [x.size for x in calls] == [2 * panels[0] + 1] + [p // 2 for p in panels[2:]]
            x = np.sort(np.concatenate(calls))
            finest = np.sort(np.cos(np.arange(panels[-1] + 1) * (np.pi / panels[-1])))
            assert np.abs(x - finest).max() <= 1e-15, (name, N)  # each node once
            _, want = continuous_inner_aw_converged(
                lambda x: fam.pn_stack(N, x)[N] * fam.pn_stack(N, x)[N],
                fam.closed.displays["weight_density"], scale=abs(fam.norm_sq(N)),
            )
            assert hist == [[nodes, [v.real, v.imag]] for nodes, v in want], (name, N)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qladder.cli", "list-families"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "askey_wilson" in proc.stdout


def test_check_json_is_compact_and_equals_the_report_dicts(tmp_path, monkeypatch):
    reports = []
    run_suites = cli.run_suites

    def capturing(*args, **kwargs):
        reports.extend(run_suites(*args, **kwargs))
        return reports

    monkeypatch.setattr(cli, "run_suites", capturing)
    out = tmp_path / "c.json"
    assert run_cli(["check", "--family", "q_dual_hahn", "--q", "0.5", *REF_ARGS["q_dual_hahn"],
                    "--suite", "all", "--out", str(out)]) == 0
    text = out.read_text()
    assert "\n" not in text.strip()
    assert json.loads(text) == {"schema": SCHEMA_ID,
                                "reports": [pointwise.report_to_dict(r) for r in reports]}
    for cmd in ("eval", "gram"):
        out = tmp_path / f"{cmd}.json"
        assert run_cli([cmd, "--family", "asc1", "--q", "0.5", *REF_ARGS["asc1"],
                        "--n-max", "2", "--out", str(out)]) == 0
        assert "\n" not in out.read_text().strip()


def test_parser_built_once_configs_independent(monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "cmd_check", lambda cfg: configs.append(cfg) or 0)
    base = ["check", "--family", "asc1", "--q", "0.5"]
    assert run_cli(base + ["--param", "a=-1", "--suite", "eigen", "--tol", "eigen=1e-3"]) == 0
    parser = cli._parser()
    assert run_cli(base + ["--param", "a=-2", "--suite", "raising", "--suite", "lowering",
                           "--tol", "raising=1e-4"]) == 0
    assert cli._parser() is parser
    first, second = configs
    assert (first.params, first.suites, first.tolerances) == (
        {"a": -1.0}, ["eigen"], {"eigen": 1e-3})
    assert (second.params, second.suites, second.tolerances) == (
        {"a": -2.0}, ["raising", "lowering"], {"raising": 1e-4})
