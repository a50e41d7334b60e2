"""Structured results of identity-check suites, their JSON schema, its one
encoder (`dumps_reports`), and the one maker of a suite's report (`suite`).

A `CheckReport` keeps its cases as four columns (n, label, residual, note),
filled by `CheckReport.add` with whole rows or arrays, so no suite makes an
object per case.  `dumps_reports` writes the v1 JSON straight from the
columns: the bytes `json.dumps` writes for the report objects, with each
number's text from the json module (NaN and Infinity included) and each
label and note through `encode_basestring_ascii`.

`suite` sets the one floating-point policy of the suites: a body runs with
numpy's divide, over and invalid raising, as Python's complex arithmetic
does, so a fault refuses the suite by name instead of giving an inf or NaN
residual.  A step inside a body that refuses on its own may ignore them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import update_wrapper
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .qkernel import QKernelError

__all__ = ["SCHEMA_ID", "CaseRecord", "CheckReport", "Skipped", "suite", "dumps_reports"]

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
    status "skipped" in meta.  max_residual is the largest of the residual
    column (and 0), read anew on every call; a NaN case makes it NaN, so the
    report fails.  `cases` is a read-only view of the columns as CaseRecords.
    """

    suite: str
    identity: str
    family: str
    tolerance: float = 0.0
    wall_ms: float = 0.0
    meta: dict = field(default_factory=dict)
    _case_columns: tuple = field(default_factory=lambda: ([], [], [], []), init=False, repr=False)

    def add(self, n, s, residual, note=""):
        """Append cases in order: the one case (n, s, residual, note), or, for a
        list, tuple or array (read in C order) of residuals, one case per
        residual, where n, s and note are each one value shared by those cases
        or a sequence of one per case."""
        if isinstance(residual, np.ndarray):
            residual = residual.ravel().tolist()
        elif not isinstance(residual, (list, tuple)):
            for column, value in zip(self._case_columns, (n, s, residual, note)):
                column.append(value)
            return
        for column, value in zip(self._case_columns, (n, s, residual, note)):
            if isinstance(value, np.ndarray):
                value = value.ravel().tolist()
            if not isinstance(value, (list, tuple, range)):
                value = [value] * len(residual)
            elif len(value) != len(residual):
                raise ValueError(f"{len(value)} values for {len(residual)} cases")
            column.extend(value)

    @property
    def cases(self) -> tuple:
        return tuple(map(CaseRecord._make, zip(*self._case_columns)))

    @property
    def max_residual(self) -> float:
        residuals = self._case_columns[2]
        if any(map(math.isnan, residuals)):
            return math.nan
        return float(max(0.0, max(residuals, default=0.0)))

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
    The body runs under numpy's errstate divide, over and invalid = raise,
    so a floating-point fault is a FloatingPointError, not an inf or NaN
    residual.  A library refusal, an ArithmeticError (a vanishing lattice
    step, an overflow, an invalid operation) or a QKernelError (a vanishing
    root or weight, a series that does not settle), is raised again, of the
    same class, with the suite named."""

    def make(body):
        def run(fam, ns, s_grid, tolerance=tolerance):
            rep = CheckReport(name, identity, fam.name, tolerance=tolerance)
            t0 = time.perf_counter()
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    body(rep, fam, ns, s_grid)
            except Skipped as e:
                rep.meta.update(status="skipped", reason=str(e))
            except (ArithmeticError, QKernelError) as e:
                raise type(e)(f"{name}: {e}") from e
            rep.wall_ms = (time.perf_counter() - t0) * 1e3
            return rep

        update_wrapper(run, body)
        del run.__wrapped__  # the suite's signature is run's, not the body's
        return run

    return make


def _json_items(values) -> list:
    """The JSON text of each value, as `json.dumps` writes it in a list."""
    text = json.dumps(values)[1:-1]
    items = text.split(", ") if text else []
    return items if len(items) == len(values) else [json.dumps(v) for v in values]


def dumps_reports(reports) -> str:
    """The JSON document {"schema": SCHEMA_ID, "reports": [...]} of the
    reports, each an object with the keys schema, suite, identity, family,
    tolerance, max_residual, verdict, wall_ms (rounded to 3 places), cases
    (n, s, residual, and note where it is not empty) and meta, in that order:
    the bytes `json.dumps` writes for them, and what it refuses raises."""
    enc = encode_basestring_ascii

    def one(rep):
        head = json.dumps({"schema": SCHEMA_ID, "suite": rep.suite, "identity": rep.identity,
                           "family": rep.family, "tolerance": rep.tolerance,
                           "max_residual": rep.max_residual,
                           "verdict": "pass" if rep.passed else "fail",
                           "wall_ms": round(rep.wall_ms, 3)})
        ns, labels, residuals, notes = rep._case_columns
        cases = ", ".join([
            f'{{"n": {n}, "s": {enc(s)}, "residual": {r}, "note": {enc(note)}}}' if note
            else f'{{"n": {n}, "s": {enc(s)}, "residual": {r}}}'
            for n, s, r, note in zip(_json_items(ns), labels, _json_items(residuals), notes)])
        return f'{head[:-1]}, "cases": [{cases}], "meta": {json.dumps(rep.meta)}}}'

    return f'{{"schema": "{SCHEMA_ID}", "reports": [{", ".join(map(one, reports))}]}}'
