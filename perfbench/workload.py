"""Closed-loop execution of one benchmark workload through ``qladder.cli.main``.

One client, one process, no worker threads: each config starts only after the
previous one returned.  The config list of a workload is fixed by the seed.
The timed phase runs the whole list once, and again while another whole pass
is expected to end within the requested seconds, so every run measures the
same configs in equal shares.  Correctness is judged on the first pass;
per-config times are the median of that config's executions.

Every execution runs inside a speed.Meter, which samples the machine's speed
before, during and after it; the timing metrics use wall time scaled to the
probe's reference speed, so that a shared host's speed changes do not show
as changes of qladder.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import time

from qladder import cli
from qladder.checks import SUITE_NAMES, run_suites
from qladder.families import FAMILY_NAMES, make_family, reference_params
from qladder.qkernel import QBase

import configs as cfgs
import speed
from tracer import Tracer

# run_suites(fam, "all") at the reference configs, as tabulated in ROADMAP.md
ROADMAP_BASELINE_MS = {
    "asc1": 163, "asc2": 107, "big_q_jacobi": 162, "q_dual_hahn": 212,
    "askey_wilson": 1811, "continuous_q_hermite": 1131,
}
TAIL_BEYOND = 10


def execute(cfg: cfgs.Config, out_path: str, tracer: Tracer | None = None):
    """Run one config through the CLI; returns (status, wall seconds, scaled
    seconds, message).

    status is the exit code, or the exception's class name if main raised;
    scaled seconds are the wall seconds at the speed probe's reference speed;
    message is the error the CLI printed, or the exception text."""
    sink = io.StringIO()
    if tracer is not None:
        tracer.begin_config(cfg.id, cfg.label())
    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
        with speed.Meter() as meter:
            try:
                status = cli.main(cfg.argv(out_path))
            except Exception as exc:  # the benchmark counts it as a failed operation
                status = type(exc).__name__
                sink.write(f"error: {exc}\n")
    if tracer is not None:
        tracer.end_config()
    errors = [line for line in sink.getvalue().splitlines() if line.startswith("error:")]
    return status, meter.wall, meter.scaled, errors[-1][len("error: "):] if errors else ""


def read_payload(status, path: str):
    if status not in (0, 1) or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(configs, outdir: str, seconds: float | None, tracer: Tracer | None = None):
    """Closed loop over `configs`: one whole pass, then (if `seconds` is
    given) further whole passes while the last pass's duration still fits
    before `seconds`.  Returns (times, statuses, completed, wall_s) with
    times[i] the list of (wall, scaled) seconds of config i."""
    times = [[] for _ in configs]
    statuses = [None] * len(configs)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for cfg in configs:
            status, dt, scaled, message = execute(
                cfg, os.path.join(outdir, f"cfg{cfg.id}.json"), tracer)
            if statuses[cfg.id] is None:
                statuses[cfg.id] = (status, message)
            times[cfg.id].append((dt, scaled))
        now = time.perf_counter()
        if seconds is None or (now - start) + (now - pass_start) > seconds:
            break
    return times, statuses, sum(map(len, times)), time.perf_counter() - start


def judge_pass(configs, statuses, outdir: str):
    """(ops, payloads) of the first pass."""
    ops, payloads = [], []
    for cfg in configs:
        status, message = statuses[cfg.id]
        payload = read_payload(status, os.path.join(outdir, f"cfg{cfg.id}.json"))
        payloads.append(payload)
        ops += cfgs.judge(cfg, status, message, payload)
    return ops, payloads


def result_digest(statuses, payloads) -> list:
    """Everything the traced and the untraced pass must agree on."""
    out = []
    for status, p in zip(statuses, payloads):
        if p is None:
            out.append((status,))
        elif "reports" in p:
            out.append((status, [(r["suite"], r["verdict"], r["max_residual"],
                                  [c["residual"] for c in r["cases"]]) for r in p["reports"]]))
        else:
            out.append((status, p["matrix"], p["max_offdiag"], p["max_diag_deviation"]))
    return out


def tail(values) -> tuple:
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def baseline_crosscheck() -> list:
    """run_suites(fam, "all") wall time of each reference config, in ms."""
    rows = []
    for name in FAMILY_NAMES:
        fam = make_family(name, reference_params(name), QBase(cfgs.REFERENCE_Q))
        t0 = time.perf_counter()
        run_suites(fam, "all")
        rows.append((name, (time.perf_counter() - t0) * 1e3, ROADMAP_BASELINE_MS[name]))
    return rows


def end_to_end(configs, times, ops) -> tuple:
    """(metrics, details) of an untraced run; metrics map name -> (value, unit).
    times[i] lists the (wall, scaled) seconds of each execution of config i."""
    per_config_ms = [statistics.median(s for _, s in t) * 1e3 for t in times]
    wall_ms = [statistics.median(w for w, _ in t) * 1e3 for t in times]
    tail_ms, tail_pct, n = tail(per_config_ms)
    done = sum(map(len, times))
    failed = sum(1 for op in ops if op.failure)
    digits = cfgs.accuracy_digits(ops, configs)
    return {
        "configs_per_s": (done / sum(s for t in times for _, s in t), "1/s"),
        "config_ms_p50": (statistics.median(per_config_ms), "ms"),
        "config_ms_tail": (tail_ms, "ms"),
        "ok_share": (1.0 - failed / len(ops), "ratio"),
        "accuracy_digits_p10": (statistics.quantiles(digits, n=10, method="inclusive")[0]
                                if len(digits) > 1 else digits[0], "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"tail_percentile": tail_pct, "tail_samples": n, "tail_beyond": TAIL_BEYOND,
        "fail_share": failed / len(ops), "digits_samples": len(digits),
        "per_config_ms": per_config_ms, "wall": {
            "configs_per_s": done / sum(w for t in times for w, _ in t),
            "config_ms_p50": statistics.median(wall_ms), "config_ms_tail": tail(wall_ms)[0]}}


def per_layer(tr: Tracer, ops, payloads, overhead: float) -> dict:
    layers = tr.layer_totals()
    m = {}
    for layer, (calls, self_s) in layers.items():
        if layer not in ("report", "cli", "checks"):
            m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")
    m["qkernel.q_number.calls"] = (tr.calls("qkernel.q_number"), "count")
    m["qkernel.basic_hypergeometric.calls"] = (tr.calls("qkernel.basic_hypergeometric"), "count")
    m["qkernel.q_pochhammer_inf.calls"] = (tr.calls("qkernel.q_pochhammer_inf"), "count")
    m["lattice.x.calls"] = (tr.calls("lattice.Lattice.x"), "count")
    m["lattice.x.distinct_ratio"] = (tr.distinct_ratio("lattice.x")[0], "ratio")
    m["lattice.diff.calls"] = (tr.calls(
        "lattice.Lattice.delta_x", "lattice.Lattice.nabla_x", "lattice.Lattice.delta_x_mid",
        "lattice.forward_diff", "lattice.backward_diff", "lattice.kfold_forward_diff",
        "lattice.nfold_backward_chain"), "count")
    m["hypergeometric_core.sigma_theta.calls"] = (
        tr.calls("hypergeometric_core.sigma_eval", "hypergeometric_core.theta_eval"), "count")
    for group in ("sigma_theta", "tau_k_coeffs", "lam_ratio"):
        m[f"hypergeometric_core.{group}.distinct_ratio"] = (
            tr.distinct_ratio(f"hypergeometric_core.{group}")[0], "ratio")
    m["families.recurrence_steps"] = (tr.counters.get("families.recurrence_steps", 0), "count")
    m["families.pn.distinct_ratio"] = (tr.distinct_ratio("families.pn")[0], "ratio")
    m["families.series.calls"] = (tr.calls("families.FamilySpec.pn_series"), "count")
    m["families.make_family_s"] = (tr.total_s("families.make_family"), "s")
    m["ladder.stencil_applies"] = (
        tr.calls("ladder.ThreePointOperator.apply", "ladder._apply_scaled"), "count")
    m["ladder.weight_chain.calls"] = (tr.calls("ladder.weight_chain"), "count")
    m["ladder.u_v.calls"] = (tr.calls("ladder.u_fn", "ladder.v_fn"), "count")
    for name in ("gram_entries", "quadrature_passes", "quadrature_nodes", "density_evals",
                 "integrand_evals", "jackson_nodes", "discrete_nodes"):
        m[f"orthogonality.{name}"] = (tr.counters.get(f"orthogonality.{name}", 0), "count")
    m["orthogonality.node_gen_s"] = (tr.total_s("orthogonality.leggauss"), "s")
    suite_s = tr.suite_seconds()
    for suite in SUITE_NAMES:
        m[f"checks.suite_s.{suite}"] = (suite_s.get(suite, 0.0), "s")
    reports = [op for op in ops if op.verdict != "missing" and op.name != "gram"]
    m["checks.cases"] = (sum(len(r["cases"]) for p in payloads if p and "reports" in p
                             for r in p["reports"]), "count")
    m["checks.fail_verdicts"] = (sum(1 for op in reports if op.verdict == "fail"), "count")
    m["checks.skipped"] = (sum(1 for op in reports if op.verdict == "skipped"), "count")
    m["trace_overhead"] = (overhead, "ratio")
    return m


def distinct_bases(tr: Tracer) -> dict:
    """Call-count base of each distinct_ratio metric."""
    return {f"{group}.distinct_ratio": tr.distinct_ratio(group)[1] for group in tr.distinct}


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: str) -> dict:
    """Execute one workload; returns metrics, counts and details for printing."""
    gen = cfgs.generate(workload, seed)
    configs = gen.configs
    # untimed warm-up.  check_sweep runs every reference config through every
    # suite, which doubles as the ROADMAP baseline cross-check.
    if workload == "check_sweep":
        baseline = baseline_crosscheck()
    else:
        baseline = []
        execute(configs[0], os.path.join(outdir, "warmup.json"))
    out = {"configs": len(configs), "config_list": configs, "redraws": gen.redraws,
           "baseline": baseline,
           "roles": {r: sum(1 for c in configs if c.role == r)
                     for r in ("draw", "reference", "control")}}
    if not trace:
        times, statuses, done, wall = run_pass(configs, outdir, seconds)
        ops, _ = judge_pass(configs, statuses, outdir)
        out["metrics"], out["details"] = end_to_end(configs, times, ops)
        out.update(completed=done, wall_s=wall, ops=ops, consistent=True, statuses=statuses)
        return out
    times, statuses, done, wall_plain = run_pass(configs, outdir, None)
    ops, payloads = judge_pass(configs, statuses, outdir)
    plain = result_digest(statuses, payloads)
    for name in os.listdir(outdir):  # the traced pass must write its own outputs
        os.remove(os.path.join(outdir, name))
    tr = Tracer()
    with tr:
        t_times, t_statuses, _, wall_traced = run_pass(configs, outdir, None, tr)
    t_ops, t_payloads = judge_pass(configs, t_statuses, outdir)
    out["consistent"] = result_digest(t_statuses, t_payloads) == plain
    scaled = [sum(s for t in ts for _, s in t) for ts in (times, t_times)]
    out["metrics"] = per_layer(tr, t_ops, t_payloads, scaled[1] / scaled[0])
    out["details"] = {"untraced_s": wall_plain, "traced_s": wall_traced,
                      "distinct_bases": distinct_bases(tr)}
    out.update(completed=done, wall_s=wall_plain, ops=ops, tracer=tr)
    return out
