"""Seeded workload configs for the qladder benchmark and the known-truth checker.

A config is one `qladder` command line (check or gram) plus its role:

* ``reference``: the family's reference parameters at q = 0.5.  Every suite
  that is not skipped must pass, and a reference Gram matrix must equal I
  within the orthonormality tolerance.
* ``control``: a drawn config with ``--perturb beta 1e-3``.  The suites in
  ``CONTROL_SUITES`` must fail.
* ``draw``: seeded admissible parameters.  The verdict is data, not truth;
  the operation fails only if it raises, exits 2 or reports a non-finite
  residual.

Draws are stratified: each family's draws fall one per equal-width stratum
of the q range, with fixed gram orders and dual Hahn spans b - a per
stratum, so every seed has the same mix of expensive and cheap configs.
Parameters are drawn from a bounding box and redrawn while ``make_family``
rejects them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from qladder.families import FAMILY_NAMES, FamilyError, make_family, reference_params
from qladder.qkernel import QBase

WORKLOADS = ("check_sweep", "gram_sweep")

GRAM_FAMILIES = ("asc1", "big_q_jacobi", "q_dual_hahn", "askey_wilson", "continuous_q_hermite")
CONTROL_SUITES = ("eigen", "raising", "lowering", "factorization", "poly_ladder")
ALL_SUITE_COUNT = 18
# orthonormality_suite's default tolerance per support kind
GRAM_TOL = {"continuous_interval": 1e-6}
GRAM_TOL_DEFAULT = 1e-8
REFERENCE_Q = 0.5

# Draws per family in one config list.  Lists are sized so one pass takes
# about 35 s at the seed commit on a 2-core machine; each list is a fixed mix,
# so the order statistics p50 and tail fall at the same place every run.
CHECK_DRAWS = 6  # plus one perturbed copy of a draw per family
# Each family's control copies its draw from this q stratum: low q keeps the
# trigonometric controls cheap, and the lowest stratum is avoided because
# q-Hermite fails there at some q (a weight table hits sigma = 0).
CONTROL_STRATUM = 1
# The Jackson and discrete Grams cost milliseconds and the continuous ones
# seconds, so p50 falls among the former and the tail among the latter; the
# parameter-free q-Hermite family keeps the continuous cluster steady.
GRAM_DRAWS = {"asc1": 25, "big_q_jacobi": 25, "q_dual_hahn": 25,
              "askey_wilson": 6, "continuous_q_hermite": 12}
GRAM_ORDERS = (2, 3, 4, 5, 6)
SWEEP_Q = (0.1, 0.9)
# One Askey-Wilson Gram at N = 6 takes 5 s at q = 0.5 and 19 s at q = 0.85
# at the seed commit, longer than a run; gram_sweep therefore stops at 0.5.
GRAM_Q = (0.1, 0.5)

# Bounding boxes of the parameter draws; make_family validates each draw.
# Askey-Wilson admits |a|, |b|, |c|, |d| < 1, but as one of them nears 1 the
# density becomes singular at x = +-1 and the quadrature keeps doubling: at
# the seed commit one Gram at c = 0.99996, N = 6 ran for over 100 s, longer
# than a run may take.  The box stops at 0.9.
_BOX = {
    "asc1": {"a": (-3.0, 3.0)},
    "asc2": {"a": (-3.0, 3.0)},
    "big_q_jacobi": {"a": (0.0, 10.0), "b": (0.0, 10.0), "c": (-3.0, 0.0)},
    "askey_wilson": {k: (-0.9, 0.9) for k in "abcd"},
    "continuous_q_hermite": {},
}
_DUAL_HAHN_SPANS = range(2, 8)  # b - a, so n_max = b - a - 1 runs from 1 to 6


@dataclass
class Config:
    """One benchmark operation source: a check or gram command line."""

    id: int
    command: str  # "check" | "gram"
    family: str
    params: dict
    q: float
    role: str  # "draw" | "reference" | "control"
    n_max: int | None = None  # gram order N; check uses the default n range
    perturb: tuple | None = None

    def argv(self, out: str) -> list:
        argv = [self.command, "--family", self.family, "--q", repr(self.q)]
        for k, v in self.params.items():
            argv += ["--param", f"{k}={v!r}"]
        if self.command == "check":
            argv += ["--suite", "all"]
        if self.n_max is not None:
            argv += ["--n-max", str(self.n_max)]
        if self.perturb is not None:
            argv += ["--perturb", self.perturb[0], repr(self.perturb[1])]
        return argv + ["--format", "json", "--out", out]

    def expected_ops(self) -> int:
        return 1 if self.command == "gram" else ALL_SUITE_COUNT

    def label(self) -> str:
        tag = {"draw": "", "reference": " ref", "control": " ctl"}[self.role]
        return f"{self.command} {self.family} q={self.q:.3f}{tag}"


@dataclass
class Generated:
    configs: list
    redraws: int = 0  # parameter draws make_family rejected


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """`count` values in ascending equal strata of (lo, hi), one uniform draw each."""
    width = (hi - lo) / count
    return [lo + width * (j + rng.random()) for j in range(count)]


def _int_strata(rng: random.Random, count: int, values) -> list:
    """`count` entries of `values`, the j-th drawn from the j-th of `count`
    equal slices of the list, in descending order."""
    values = list(values)
    out = [values[int((j + rng.random()) * len(values) / count)] for j in range(count)]
    return out[::-1]


def _draw_params(rng: random.Random, family: str, q: float, span: int) -> tuple:
    """Admissible parameters for `family` at base q (dual Hahn: with b - a =
    span); returns (params, redraws)."""
    redraws = 0
    while True:
        if family == "q_dual_hahn":
            a = rng.uniform(-0.5, 2.0)
            params = {"a": a, "b": a + span, "c": rng.uniform(-3.0, 3.0)}
        else:
            params = {k: rng.uniform(*box) for k, box in _BOX[family].items()}
        try:
            make_family(family, params, QBase(q))
            return params, redraws
        except FamilyError:
            redraws += 1


def _draws(rng: random.Random, gen: Generated, counts: dict, q_range: tuple) -> list:
    """Seeded draws, interleaved round-robin over the families.  Draw j of a
    family takes its q from the j-th stratum of `q_range` (ascending) and, for
    the dual Hahn family, its b - a from the j-th slice of the span range
    (descending), so every seed has the same cells and only moves the points
    within them.  Returns [(family, q, params, j)]."""
    per_family = {}
    for fam, count in counts.items():
        spans = _int_strata(rng, count, _DUAL_HAHN_SPANS)
        rows = []
        for j, q in enumerate(_strata(rng, count, *q_range)):
            params, redraws = _draw_params(rng, fam, q, spans[j])
            gen.redraws += redraws
            rows.append((fam, q, params, j))
        per_family[fam] = rows
    out = []
    for r in range(max(counts.values())):
        out += [rows[r] for rows in per_family.values() if r < len(rows)]
    return out


def _add(gen: Generated, *args, **kw) -> Config:
    gen.configs.append(Config(len(gen.configs), *args, **kw))
    return gen.configs[-1]


def _check_sweep(rng: random.Random) -> Generated:
    gen = Generated([])
    for fam in FAMILY_NAMES:
        _add(gen, "check", fam, dict(reference_params(fam)), REFERENCE_Q, "reference")
    for fam, q, params, j in _draws(rng, gen, dict.fromkeys(FAMILY_NAMES, CHECK_DRAWS),
                                    SWEEP_Q):
        _add(gen, "check", fam, params, q, "draw")
        if j == CONTROL_STRATUM:
            _add(gen, "check", fam, dict(params), q, "control", perturb=("beta", 1e-3))
    return gen


def _cap_order(family: str, params: dict, order: int) -> int:
    if family == "q_dual_hahn":
        return min(order, round(params["b"] - params["a"]) - 1)
    return order


def _gram_sweep(rng: random.Random) -> Generated:
    gen = Generated([])
    for fam in GRAM_FAMILIES:
        # the orders orthonormality_suite checks
        order = 4 if fam == "q_dual_hahn" else 3
        _add(gen, "gram", fam, dict(reference_params(fam)), REFERENCE_Q, "reference",
             n_max=order)
    for fam, q, params, j in _draws(rng, gen, GRAM_DRAWS, GRAM_Q):
        # high orders at low q: the cost grows with both, so this evens it out
        order = GRAM_ORDERS[-1 - j % len(GRAM_ORDERS)]
        _add(gen, "gram", fam, params, q, "draw", n_max=_cap_order(fam, params, order))
    return gen


def generate(workload: str, seed: int) -> Generated:
    """The config list of one workload; the same seed gives the same list."""
    builders = {"check_sweep": _check_sweep, "gram_sweep": _gram_sweep}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return builders[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# known-truth checker
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One operation: a suite report of a check config, or one gram call."""

    config: int
    name: str  # suite name, or "gram"
    residual: float | None  # max residual; None when no report exists
    verdict: str  # "pass" | "fail" | "skipped" | "missing"
    failure: str = ""  # why the operation failed; "" when it did not
    truth: bool = False  # failure is a violated known truth


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def judge(cfg: Config, status, message: str, payload) -> list:
    """Operations of one executed config, each marked failed or not.

    status is the exit code, or the exception name when `cli.main` raised;
    message is the error it reported; payload is the parsed JSON output
    (None when nothing was written)."""
    if status not in (0, 1) or payload is None:
        why = f"raised {status}" if isinstance(status, str) else f"exit {status}"
        why += f": {message}" if message else ""
        return [Op(cfg.id, "-", None, "missing", why) for _ in range(cfg.expected_ops())]
    if cfg.command == "gram":
        return [_judge_gram(cfg, payload)]
    ops = []
    for rep in payload["reports"]:
        res = rep["max_residual"]
        skipped = rep.get("meta", {}).get("status") in ("skipped", "out-of-range")
        verdict = "skipped" if skipped else rep["verdict"]
        op = Op(cfg.id, rep["suite"], res, verdict)
        if not _finite(res):
            op.failure = "non-finite residual"
        elif cfg.role == "reference" and verdict == "fail":
            op.failure, op.truth = "reference suite failed", True
        elif cfg.role == "control" and rep["suite"] in CONTROL_SUITES and verdict == "pass":
            op.failure, op.truth = "negative control passed", True
        ops.append(op)
    missing = cfg.expected_ops() - len(ops)
    ops += [Op(cfg.id, "-", None, "missing", "report missing") for _ in range(missing)]
    return ops


def _judge_gram(cfg: Config, payload) -> Op:
    res = max(payload["max_offdiag"], payload["max_diag_deviation"])
    entries = [v for row in payload["matrix"] for cell in row for v in cell]
    op = Op(cfg.id, "gram", res, "pass")
    if not (_finite(res) and all(_finite(v) for v in entries)):
        op.failure, op.verdict = "non-finite Gram entry", "fail"
    elif cfg.role == "reference" and res > GRAM_TOL.get(payload["support"], GRAM_TOL_DEFAULT):
        op.failure = f"reference Gram deviates from I by {res:.2e}"
        op.truth, op.verdict = True, "fail"
    return op


def accuracy_digits(ops, configs) -> list:
    """-log10(max(residual, 1e-16)) of every non-skipped, non-control report."""
    roles = {c.id: c.role for c in configs}
    return [
        -math.log10(max(op.residual, 1e-16))
        for op in ops
        if op.residual is not None and _finite(op.residual)
        and op.verdict != "skipped" and roles[op.config] != "control"
    ]
