"""Structured results of identity-check suites, their JSON schema, and the
one maker of a suite's report (`suite`)."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import update_wrapper
from typing import NamedTuple

import numpy as np

__all__ = ["SCHEMA_ID", "CaseRecord", "CheckReport", "Skipped", "suite", "report_to_dict"]

SCHEMA_ID = "qladder-report/1"


class CaseRecord(NamedTuple):
    """One residual sample: which n, which point, how large (immutable)."""

    n: int
    s: str
    residual: float
    note: str = ""


@dataclass
class CheckReport:
    """Result of one identity suite run.

    `identity` names the relation being verified (self-describing anchor);
    verdict is pass iff max_residual <= tolerance, except suites that carry
    status "skipped" in meta.  max_residual scans the cases once, and again
    only after the case list changed length or was replaced; a NaN case makes
    it NaN, so the report fails.
    """

    suite: str
    identity: str
    family: str
    cases: list = field(default_factory=list)
    tolerance: float = 0.0
    wall_ms: float = 0.0
    meta: dict = field(default_factory=dict)
    _scanned: tuple = field(default=(None, -1, 0.0), init=False, repr=False, compare=False)

    @property
    def max_residual(self) -> float:
        key = (id(self.cases), len(self.cases))
        if self._scanned[:2] != key:
            top = np.max([c.residual for c in self.cases], initial=0.0)  # keeps a NaN
            self._scanned = (*key, float(top))
        return self._scanned[2]

    @property
    def passed(self) -> bool:
        if self.meta.get("status") == "skipped":
            return True
        return self.max_residual <= self.tolerance


class Skipped(Exception):
    """Raised by a suite body where its identity does not apply to the
    family; the text is the reason the report carries."""


def suite(name: str, identity: str, tolerance):
    """Make the suite `(fam, ns, s_grid, tolerance=tolerance)` from a body
    `fn(rep, fam, ns, s_grid)` that only adds cases and meta to `rep`.

    The body derives the n values and points it checks from the request
    (ns, s_grid) by the rule its docstring states.  The suite builds the
    CheckReport of `name`, `identity` and `fam.name` at the caller's
    tolerance, runs the body, marks the report skipped with the text of a
    `Skipped` the body raises, and sets `wall_ms` to the body's run time.
    An ArithmeticError (a vanishing lattice step, an overflow, an invalid
    operation) is raised again, of the same class, with the suite named."""

    def make(body):
        def run(fam, ns, s_grid, tolerance=tolerance):
            rep = CheckReport(name, identity, fam.name, tolerance=tolerance)
            t0 = time.perf_counter()
            try:
                body(rep, fam, ns, s_grid)
            except Skipped as e:
                rep.meta.update(status="skipped", reason=str(e))
            except ArithmeticError as e:
                raise type(e)(f"{name}: {e}") from e
            rep.wall_ms = (time.perf_counter() - t0) * 1e3
            return rep

        update_wrapper(run, body)
        del run.__wrapped__  # the suite's signature is run's, not the body's
        return run

    return make


def report_to_dict(rep: CheckReport) -> dict:
    return {
        "schema": SCHEMA_ID,
        "suite": rep.suite,
        "identity": rep.identity,
        "family": rep.family,
        "tolerance": rep.tolerance,
        "max_residual": rep.max_residual,
        "verdict": "pass" if rep.passed else "fail",
        "wall_ms": round(rep.wall_ms, 3),
        "cases": [
            {"n": n, "s": s, "residual": r, "note": note} if note else {"n": n, "s": s, "residual": r}
            for n, s, r, note in rep.cases
        ],
        "meta": rep.meta,
    }


def dumps_reports(reports) -> str:
    return json.dumps({"schema": SCHEMA_ID, "reports": [report_to_dict(r) for r in reports]})
