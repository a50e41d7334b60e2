"""Structured results of identity-check suites and their JSON schema."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["SCHEMA_ID", "CaseRecord", "CheckReport", "report_to_dict"]

SCHEMA_ID = "qladder-report/1"


@dataclass(frozen=True)
class CaseRecord:
    """One residual sample: which n, which point, how large."""

    n: int
    s: str
    residual: float
    note: str = ""


@dataclass
class CheckReport:
    """Result of one identity suite run.

    `identity` names the relation being verified (self-describing anchor);
    verdict is pass iff max_residual <= tolerance, except suites that carry
    status "skipped" in meta.
    """

    suite: str
    identity: str
    family: str
    cases: list = field(default_factory=list)
    tolerance: float = 0.0
    wall_ms: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.cases), default=0.0)

    @property
    def passed(self) -> bool:
        if self.meta.get("status") == "skipped":
            return True
        return self.max_residual <= self.tolerance


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
            {"n": c.n, "s": c.s, "residual": c.residual, **({"note": c.note} if c.note else {})}
            for c in rep.cases
        ],
        "meta": rep.meta,
    }


def dumps_reports(reports) -> str:
    return json.dumps(
        {"schema": SCHEMA_ID, "reports": [report_to_dict(r) for r in reports]},
        indent=2,
        sort_keys=False,
    )
