"""Tests of the benchmark itself: config generation, the known-truth checker
and the tracer.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import configs  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402
from qladder import cli  # noqa: E402
from qladder.families import make_family  # noqa: E402
from qladder.qkernel import QBase  # noqa: E402


@pytest.mark.parametrize("name", configs.WORKLOADS)
def test_same_seed_same_configs(name):
    a = [c.argv("out") for c in configs.generate(name, 7).configs]
    b = [c.argv("out") for c in configs.generate(name, 7).configs]
    c = [c.argv("out") for c in configs.generate(name, 8).configs]
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", configs.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_configs_validate_and_build(name, seed):
    gen = configs.generate(name, seed)
    assert [c.id for c in gen.configs] == list(range(len(gen.configs)))
    parser = cli.build_parser()
    for cfg in gen.configs:
        run_config = cli._config_from_args(parser.parse_args(cfg.argv("out.json")))
        assert isinstance(run_config, cli.RunConfig)  # built and validated by the CLI
        fam = make_family(cfg.family, cfg.params, QBase(cfg.q))
        if cfg.perturb:
            fam.with_perturbation(*cfg.perturb)


def test_check_sweep_has_references_and_controls():
    gen = configs.generate("check_sweep", 3)
    roles = [c.role for c in gen.configs]
    assert roles.count("reference") == 6
    assert roles.count("control") == 6
    assert all(c.perturb == ("beta", 1e-3) for c in gen.configs if c.role == "control")


def _report(suite, verdict, residual, status=None):
    meta = {"status": status} if status else {}
    return {"suite": suite, "verdict": verdict, "max_residual": residual, "cases": [],
            "meta": meta}


def _cfg(role, command="check"):
    return configs.Config(0, command, "asc1", {"a": -1.0}, 0.5, role)


def test_checker_flags_forged_reference_failure():
    payload = {"reports": [_report("eigen", "fail", 1e-3)] +
               [_report(f"s{i}", "pass", 1e-15) for i in range(configs.ALL_SUITE_COUNT - 1)]}
    ops = configs.judge(_cfg("reference"), 1, "", payload)
    bad = [op for op in ops if op.failure]
    assert len(ops) == configs.ALL_SUITE_COUNT
    assert [op.name for op in bad] == ["eigen"] and bad[0].truth


def test_checker_flags_passing_negative_control():
    reports = [_report(s, "fail", 1e-3) for s in configs.CONTROL_SUITES]
    reports[0] = _report(configs.CONTROL_SUITES[0], "pass", 1e-15)
    ops = configs.judge(_cfg("control"), 1, "", {"reports": reports})
    assert [op.name for op in ops if op.truth] == [configs.CONTROL_SUITES[0]]


def test_checker_flags_raised_suite_and_exit_2():
    for status in ("DegenerateStepError", 2):
        ops = configs.judge(_cfg("draw"), status, "boom", None)
        assert len(ops) == configs.ALL_SUITE_COUNT
        assert all(op.failure and "boom" in op.failure for op in ops)


def test_checker_counts_skipped_as_skipped_not_pass():
    payload = {"reports": [_report("adjoint", "pass", 0.0, status="skipped")]}
    ops = configs.judge(_cfg("reference"), 0, "", payload)
    assert [(op.verdict, op.failure) for op in ops[:1]] == [("skipped", "")]
    assert all(op.failure == "report missing" for op in ops[1:])
    assert configs.accuracy_digits(ops, [_cfg("reference")]) == []


def test_checker_flags_non_finite_residual_and_bad_reference_gram():
    ops = configs.judge(_cfg("draw"), 1, "", {"reports": [_report("eigen", "fail", math.nan)]})
    assert ops[0].failure == "non-finite residual"
    gram = {"matrix": [[[1.0, 0.0]]], "max_offdiag": 0.0, "max_diag_deviation": 1e-3,
            "support": "jackson_integral"}
    op, = configs.judge(_cfg("reference", "gram"), 0, "", gram)
    assert op.truth
    op, = configs.judge(_cfg("draw", "gram"), 0, "", gram)
    assert not op.failure


def test_tail_has_ten_samples_beyond():
    value, pct, n = workload.tail(list(range(40)))
    assert (value, pct, n) == (29, 75.0, 40)
    assert sum(1 for v in range(40) if v > value) == workload.TAIL_BEYOND


def _snapshot():
    import numpy.polynomial.legendre as legendre

    import qladder

    owners = [qladder, legendre] + [sys.modules[f"qladder.{m}"] for m in tracing.LAYERS]
    owners += [obj for mod in owners[2:] for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__ == mod.__name__]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_wraps_binding_sites_and_restores_everything(tmp_path):
    from qladder import checks, ladder
    from qladder.lattice import Lattice

    before = _snapshot()
    original = ladder.check_eigen
    original_x = Lattice.x
    tr = tracing.Tracer()
    cfg = configs.Config(0, "check", "q_dual_hahn", {"a": 0.0, "b": 5.0, "c": 0.25}, 0.5,
                         "reference")
    with tr:
        assert checks.check_eigen is not original  # imported binding site
        assert Lattice.x is not original_x
        status, _, _, _ = workload.execute(cfg, str(tmp_path / "o.json"), tr)
    assert status == 0
    assert _snapshot() == before
    assert checks.check_eigen is original and Lattice.x is original_x
    assert tr.calls("ladder.check_eigen") == 1
    assert tr.calls("lattice.Lattice.x") > 0
    assert tr.counters["orthogonality.discrete_nodes"] > 0
    assert set(tr.suite_seconds()) == set(checks.SUITE_NAMES)
    assert [s[1] for s in tr.spans].count("config") == 1
    layers = tr.layer_totals()
    assert layers["ladder"][0] > 0 and layers["cli"][1] > 0


def test_traced_and_untraced_results_agree(tmp_path):
    cl = configs.generate("gram_sweep", 1).configs[:3]
    _, plain_status, _, _ = workload.run_pass(cl, str(tmp_path), None)
    _, plain = workload.judge_pass(cl, plain_status, str(tmp_path))
    with tracing.Tracer() as tr:
        _, traced_status, _, _ = workload.run_pass(cl, str(tmp_path), None, tr)
    _, traced = workload.judge_pass(cl, traced_status, str(tmp_path))
    assert workload.result_digest(plain_status, plain) == \
        workload.result_digest(traced_status, traced)
    assert tr.counters["orthogonality.gram_entries"] > 0
    assert not hasattr(cli.main, "__wrapped__")


def test_meter_takes_probe_ticks_out_of_wall_time():
    import signal
    import time

    old = signal.getsignal(signal.SIGALRM)
    with speed.Meter() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 2 + 0.2 / speed.TICK_S - 2  # before, ticks, after
    assert 0.2 - sum(meter.samples[1:-1]) - 0.01 <= meter.wall <= 0.2 + 0.01
    mean = sum(meter.samples) / len(meter.samples)
    assert meter.scaled == pytest.approx(meter.wall * speed.REFERENCE_S / mean)
