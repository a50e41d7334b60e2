"""Compare what `qladder.cli.main` prints between two source trees.

    python tools/compare_outputs.py SRC_A SRC_B

SRC_A and SRC_B are directories that hold the `qladder` package (a
checkout's `src`).  One fixed set of command lines runs through `cli.main`
against each tree, each tree in its own Python process:

* the six reference configs at q = 0.2, 0.5 and 0.8, with `check --suite
  all` (json and csv), `eval` (json and csv) and `gram --n-max 3`, `4` and
  `6`;
* `check --suite all --perturb beta 1e-3` at the reference configs, q = 0.5;
* `check` of each suite that reads a stencil grid on the requested points
  (and bootstrap), one at a time and as `--suite all`, at the reference
  configs, q = 0.5, on the default grid, `--grid 0.4:2.6:4` and `--grid
  0.3:0.3:1`; and at q-dual Hahn's reference and at (a, b, c) = (0.7, 3.7,
  0), where Theta(s-1) sigma(s) vanishes at s = 0.7, on five grids near
  its zeros and its support boundary, so a refusal or a verdict that moves
  in one suite alone shows;
* `check --suite pearson` and `--suite all` at q-dual Hahn's reference,
  q = 0.5, on `--grid -3.25:-1.25:3`, where the closed weight is 0/0: each
  refuses (exit 2, "error: pearson: ..."), so a fault that turns into a
  NaN verdict again shows;
* `check --suite bootstrap` at two asc1 draws of check_sweep, a =
  0.8376083363309292 at q = 0.22101136604850918 and a = 1.648781045550221
  at q = 0.2346512797828426, whose residuals (1.8e-8 and 2.6e-9 with the
  pointwise direct phi_n, 9.7e-9 and 2.7e-8 with the chain's) sit at the
  bound 1e-8: the verdict there is decided by rounding, so a move of either
  shows;
* every config of the benchmark's check_sweep and gram_sweep at seeds 3, 7
  and 11 (`perfbench/configs.py`, imported read-only).

Each run writes its output to a file (`--out`).  A run is compared on its
exit status, its stdout, its stderr (a warning as its class and message)
and that file, with `wall_ms` masked.  The script prints the runs that
differ, and per (family, quantity) how many runs moved and the largest
absolute and relative move.  It exits 0 when no run differs, 1 otherwise.
Running a tree against itself is a determinism check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (3, 7, 11)
REFERENCE_Q = ("0.2", "0.5", "0.8")
GRAM_ORDERS = ("3", "4", "6")
SUITES = ("eigen", "ttrr_phi", "raising", "lowering", "uv_shift", "h_s_independence",
          "factorization", "poly_ladder", "concordance", "bootstrap", "all")
SUITE_GRIDS = (None, "0.4:2.6:4", "0.3:0.3:1")  # None: the family's default grid
QDH_EDGE = {"a": 0.7, "b": 3.7, "c": 0.0}
QDH_GRIDS = ("1.7:1.7:1", "1.7:2.7:2", "2:3:2", "1:3:3", "3.5:3.5:1")
QDH_POLE_GRID = "-3.25:-1.25:3"  # the closed q-dual Hahn weight is 0/0 here
BOOTSTRAP_EDGE = ((0.8376083363309292, 0.22101136604850918),
                  (1.648781045550221, 0.2346512797828426))  # asc1 (a, q)
_WALL_MS = re.compile(r'"wall_ms": [-+0-9.eE]+')


# -- the run set, built inside the worker against its own tree ---------------

def run_set() -> list:
    """The argument lists of the run set, each ending in `--out OUT`, in a fixed order."""
    import configs
    from qladder.families import FAMILY_NAMES, reference_params

    def family_args(name, params=None):
        out = ["--family", name]
        for k, v in (params or reference_params(name)).items():
            out += ["--param", f"{k}={v!r}"]
        return out

    def suite_runs(args, grids):
        return [["check", *args, "--q", "0.5", "--suite", suite]
                + (["--grid", grid] if grid else []) for grid in grids for suite in SUITES]

    runs = []
    for name in FAMILY_NAMES:
        for q in REFERENCE_Q:
            base = family_args(name) + ["--q", q]
            for fmt in ("json", "csv"):
                runs.append(["check", *base, "--suite", "all", "--format", fmt])
                runs.append(["eval", *base, "--format", fmt])
            runs += [["gram", *base, "--n-max", n] for n in GRAM_ORDERS]
        runs.append(["check", *family_args(name), "--q", "0.5", "--suite", "all",
                     "--perturb", "beta", "1e-3"])
        runs += suite_runs(family_args(name), SUITE_GRIDS)
    for params in (None, QDH_EDGE):
        runs += suite_runs(family_args("q_dual_hahn", params), QDH_GRIDS)
    runs += [["check", *family_args("q_dual_hahn"), "--q", "0.5", "--suite", suite,
              "--grid", QDH_POLE_GRID] for suite in ("pearson", "all")]
    runs += [["check", *family_args("asc1", {"a": a}), "--q", repr(q), "--suite", "bootstrap"]
             for a, q in BOOTSTRAP_EDGE]
    runs = [argv + ["--out", "OUT"] for argv in runs]
    for workload in configs.WORKLOADS:
        for seed in SEEDS:
            runs += [cfg.argv("OUT") for cfg in configs.generate(workload, seed).configs]
    seen, unique = set(), []
    for argv in runs:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            unique.append(argv)
    return unique


def run_tree(src: str, outdir: str):
    """Run the run set against the package in `src`; write each run's
    outputs to `outdir` and the index of runs to `outdir/index.json`.
    Runs in a process of its own per tree (see `main`)."""
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "perfbench")]
    from qladder import cli

    index = []
    for i, argv in enumerate(run_set()):
        out = os.path.join(outdir, f"{i:04d}.out")
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                status = cli.main([out if a == "OUT" else a for a in argv])
            except Exception as exc:
                status = type(exc).__name__
                sink_err.write(f"raised: {exc}\n")
        err = sink_err.getvalue() + "".join(
            f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
        text = ""
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(out)
        index.append({"argv": argv, "status": status, "stdout": sink_out.getvalue(),
                      "stderr": err, "out": _mask(text)})
    with open(os.path.join(outdir, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh)


def _mask(text: str) -> str:
    """`text` with every JSON `wall_ms` value and the check CSV's wall_ms column masked."""
    lines = text.split("\n")
    if lines and lines[0].startswith("suite,") and lines[0].endswith(",wall_ms"):
        lines = [line.rpartition(",")[0] + ",*" if line else line for line in lines]
    return _WALL_MS.sub('"wall_ms": null', "\n".join(lines))


# -- the comparison ------------------------------------------------------------

def _move(a, b):
    """(absolute, relative) distance of two numbers or [re, im] pairs."""
    za, zb = complex(*a) if isinstance(a, list) else a, complex(*b) if isinstance(b, list) else b
    dist = abs(za - zb)
    if math.isnan(dist):
        return math.inf, math.inf
    big = max(abs(za), abs(zb))
    return dist, dist / big if big else 0.0


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _leaves(a, b, tag, moves):
    """Append (quantity, abs, rel) for every leaf where the JSON values a and
    b differ; a [re, im] pair is one complex leaf."""
    if a == b:
        return
    pair = lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v))
    if (_number(a) and _number(b)) or (pair(a) and pair(b)):
        moves.append((tag, *_move(a, b)))
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            _leaves(a[k], b[k], f"{tag}.{k}" if tag else k, moves)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _leaves(x, y, tag, moves)
    else:
        moves.append((f"{tag} (shape or text)", math.inf, math.inf))


def _json_moves(a: dict, b: dict, moves):
    if "reports" in a and "reports" in b and len(a["reports"]) == len(b["reports"]):
        for ra, rb in zip(a["reports"], b["reports"]):
            _leaves(ra, rb, ra.get("suite", "?"), moves)
    else:
        _leaves(a, b, a.get("command", ""), moves)


def _csv_moves(a: str, b: str, moves):
    ra, rb = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if len(ra) != len(rb) or not ra or ra[0] != rb[0]:
        moves.append(("csv (shape)", math.inf, math.inf))
        return
    header = ra[0]
    for row_a, row_b in zip(ra[1:], rb[1:]):
        suite = row_a[0] if header[0] == "suite" else "eval"
        values = {}  # column (a complex one once, from its _re and _im cells) -> (a, b, moved)
        for col, x, y in zip(header, row_a, row_b):
            name, part = (col[:-3], col[-2:]) if col.endswith(("_re", "_im")) else (col, "re")
            try:
                vx, vy = float(x or "nan"), float(y or "nan")
            except ValueError:  # a text cell: suite, identity, family, verdict
                if x != y:
                    moves.append((f"{suite} csv.{name} (text)", math.inf, math.inf))
                continue
            va, vb, moved = values.setdefault(name, ([0.0, 0.0], [0.0, 0.0], []))
            va[part == "im"], vb[part == "im"] = vx, vy
            moved.append(x != y)
        for name, (va, vb, moved) in values.items():
            if any(moved):
                moves.append((f"{suite} csv.{name}", *_move(va, vb)))


def _stderr_moves(a: str, b: str, moves):
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        moves.append(("stderr (lines)", math.inf, math.inf))
        return
    for x, y in zip(la, lb):
        if x == y:
            continue
        # a check verdict line: "[pass] <family> <suite>: max residual <r> (tol <t>)"
        mx, my = (re.match(r"\[\w+\] \S+ (\w+): max residual (\S+) ", v) for v in (x, y))
        if mx and my and mx.group(1) == my.group(1):
            moves.append((f"{mx.group(1)} stderr line", *_move(float(mx.group(2)),
                                                                 float(my.group(2)))))
        else:
            moves.append(("stderr line", math.inf, math.inf))


def compare_run(a: dict, b: dict) -> tuple:
    """(the parts of two records of one run that differ, their moves)."""
    parts = [k for k in ("status", "stdout", "stderr", "out") if a[k] != b[k]]
    moves = []
    if "status" in parts:
        moves.append((f"exit status {a['status']} -> {b['status']}", math.inf, math.inf))
    if "stderr" in parts:
        _stderr_moves(a["stderr"], b["stderr"], moves)
    for key in ("stdout", "out"):
        if key in parts:
            x, y = a[key], b[key]
            try:
                _json_moves(json.loads(x), json.loads(y), moves)
            except ValueError:
                _csv_moves(x, y, moves)
    return parts, moves


def _family(argv) -> str:
    return argv[argv.index("--family") + 1] if "--family" in argv else "?"


def compare(index_a: list, index_b: list) -> int:
    """Print the differing runs and the largest moves; return how many runs differ."""
    by_a = {tuple(r["argv"]): r for r in index_a}
    by_b = {tuple(r["argv"]): r for r in index_b}
    only = [k for k in by_a if k not in by_b] + [k for k in by_b if k not in by_a]
    for k in only:
        print(f"only in {'A' if k in by_a else 'B'}: {' '.join(k)}")
    worst, differing = {}, 0
    for key in (k for k in by_a if k in by_b):
        parts, moves = compare_run(by_a[key], by_b[key])
        if not parts:
            continue
        differing += 1
        print(f"differs ({', '.join(parts)}): {' '.join(key)}")
        fam = _family(key)
        for tag, dist, rel in moves:
            count, d0, r0 = worst.get((fam, tag), (0, 0.0, 0.0))
            worst[(fam, tag)] = (count + 1, max(d0, dist), max(r0, rel))
    if worst:
        print(f"\n{'family':22s} {'quantity':44s} {'moves':>6s} {'max abs':>9s} {'max rel':>9s}")
        for (fam, tag), (count, dist, rel) in sorted(worst.items()):
            print(f"{fam:22s} {tag:44s} {count:6d} {dist:9.2e} {rel:9.2e}")
    print(f"\nruns: {len(by_a)} in A, {len(by_b)} in B; differing: {differing}; "
          f"in one tree only: {len(only)}")
    return differing + len(only)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_a")
    p.add_argument("src_b")
    args = p.parse_args(argv)
    # each tree in a fresh interpreter that sees only this directory, the
    # tree and perfbench/, and compiles nothing to disk
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.abspath(__file__)),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        indexes = []
        for tag, src in (("a", args.src_a), ("b", args.src_b)):
            outdir = os.path.join(tmp, tag)
            os.makedirs(outdir)
            subprocess.run([sys.executable, "-c", "import sys, compare_outputs; "
                            "compare_outputs.run_tree(*sys.argv[1:])", os.path.abspath(src),
                            outdir], check=True, env=env, cwd=outdir)
            with open(os.path.join(outdir, "index.json"), encoding="utf-8") as fh:
                indexes.append(json.load(fh))
    return 1 if compare(*indexes) else 0


if __name__ == "__main__":
    sys.exit(main())
