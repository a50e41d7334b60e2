"""qladder benchmark: one workload, one seed, closed loop with one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload check_sweep --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``check_sweep``: ``qladder check --suite all`` on the six reference
  configs, seeded draws of all six families and perturbed negative controls.
* ``gram_sweep``: ``qladder gram`` with N from 2 to 6 on the five families
  that have an orthogonality support.

With ``--trace 0`` the run reports the end-to-end metrics.  Their times are
wall times scaled to a fixed machine speed (see speed.py), so that a shared
host's speed changes do not read as changes of qladder; the unscaled wall
times are printed beside them.  With ``--trace 1``
it runs the config list once untraced and once with every qladder layer
wrapped (see tracer.py), checks that both give the same verdicts and
residuals, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run artefacts go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="qladder benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> list:
    """(scaled, wall) seconds of import + six make_family calls, each in a
    fresh interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((row["setup_s"], row["wall_s"]))
    return out


def provenance(args) -> dict:
    import numpy

    sources = sorted(glob.glob(os.path.join(SRC, "qladder", "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "src_qladder_lines": lines, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": openblas, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def write_out(name: str, data):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    print(f"wrote {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qladder", "__init__.py")):
        sys.stderr.write(f"error: no qladder sources under {SRC}; run from a checkout\n")
        return 2
    # before numpy loads: leggauss runs a LAPACK eigensolver that would
    # otherwise start BLAS threads
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import qladder

    if not os.path.abspath(qladder.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported qladder from {qladder.__file__}, not {SRC}\n")
        return 2
    import configs
    import workload

    if args.workload not in configs.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"known: {', '.join(configs.WORKLOADS)}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2

    print(json.dumps({"provenance": provenance(args)}))
    setup = [] if args.trace else measure_setup()
    rundir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        res = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for name, ms, roadmap in res["baseline"]:
        print(f"baseline run_suites({name}, 'all'): {ms:9.1f} ms   (ROADMAP table: {roadmap} ms)")
    print(f"configs: {res['configs']} {res['roles']}  parameter redraws: {res['redraws']}  "
          f"completed: {res['completed']} in {res['wall_s']:.2f} s")
    ops = res["ops"]
    failures = [op for op in ops if op.failure]
    truth = [op for op in failures if op.truth]
    by_config = {}
    for op in failures:
        by_config.setdefault((op.config, op.failure), []).append(op.name)
    labels = {c.id: c.label() for c in res["config_list"]}
    for (cid, why), names in by_config.items():
        print(f"failed: config {cid} ({labels[cid]}): {len(names)} op(s) "
              f"[{', '.join(sorted(set(names)))}]: {why}")
    metrics = dict(res["metrics"])
    notes = {}
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s for s, _ in setup), "s")
        d = res["details"]
        notes["setup_s"] = (f"median of {', '.join(f'{s:.4f}' for s, _ in setup)}  "
                            f"unscaled wall {statistics.median(w for _, w in setup):.4f}")
        notes["ok_share"] = f"fail_share {d['fail_share']:.6f} = {len(failures)}/{len(ops)} ops"
        notes["accuracy_digits_p10"] = f"of {d['digits_samples']} reports"
        notes["config_ms_tail"] = (f"p{d['tail_percentile']:.1f} of {d['tail_samples']} configs, "
                                   f"{d['tail_beyond']} beyond")
        for name, value in d["wall"].items():
            notes[name] = f"{notes.get(name, '')}  unscaled wall {value:.4f}".strip()
        rows = [{"id": c.id, "config": c.label(), "argv": c.argv("OUT"), "ms": ms,
                 "status": status} for c, ms, (status, _) in
                zip(res["config_list"], d["per_config_ms"], res["statuses"])]
        for row in sorted(rows, key=lambda r: -r["ms"])[:5]:
            print(f"slow config {row['id']} ({row['config']}): {row['ms']:.1f} ms")
        write_out(f"configs-{args.workload}-seed{args.seed}.json", rows)
    else:
        d = res["details"]
        print(f"trace: untraced {d['untraced_s']:.3f} s, traced {d['traced_s']:.3f} s wall, "
              f"verdicts and residuals equal: {res['consistent']}")
        notes.update({name: f"of {base} calls" for name, base in d["distinct_bases"].items()})
        tr = res["tracer"]
        write_out(f"trace-{args.workload}-seed{args.seed}.json",
                  {"stats": {n: {"layer": tr.layer_of[n], "calls": c, "total_s": t, "self_s": s}
                             for n, (c, t, s) in tr.stats.items()},
                   "counters": tr.counters, "spans": tr.spans})
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:45s} {value:16.6f} {unit:6s} {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": not truth and res["consistent"],
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
