"""Command-line harness: build families from flags or a config file,
evaluate polynomials and functions over grids, run identity suites, and emit
machine-readable reports.  A `--grid` is checked on the steps of one
`LatticeTable`; `eval` reads x from one, and rho and phi_n from the family.

Exit status: 0 = all pass, 1 = at least one suite failed, 2 = config/usage
error.  JSON reports carry the schema id "qladder-report/1".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .checks import SUITE_NAMES, default_grid, run_suites
from .families import (
    FAMILY_NAMES,
    FamilyError,
    canonical_name,
    make_family,
    reference_params,
)
from .hypergeometric_core import _sigma_at, _theta_at, tau_tilde
from .lattice import LatticeTable
from .orthogonality import QUADRATURE_RULE, gram_matrix
from .qkernel import QBase, QKernelError
from .report import SCHEMA_ID, dumps_reports

__all__ = ["main", "RunConfig", "parse_config_file"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One harness run: which family, which sweeps, which outputs."""

    family: str = ""
    params: dict = field(default_factory=dict)
    q: float = 0.5
    suites: list = field(default_factory=lambda: ["all"])
    grid: tuple | None = None  # (start, stop, count) in s (theta for the AW lattice)
    n_min: int = 1
    n_max: int = 5
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "json"
    perturb: tuple | None = None  # (name, delta)

    def validate(self):
        if not self.family:
            raise ConfigError("field 'family' is required")
        canonical_name(self.family)  # raises FamilyError with the names listed
        if not (0.0 < self.q < 1.0):
            raise ConfigError(f"field 'q' must lie in (0,1), got {self.q}")
        for k, v in self.tolerances.items():
            if k not in SUITE_NAMES:
                raise ConfigError(f"tolerance override {k!r} names no suite; "
                                  f"known: {', '.join(SUITE_NAMES)}")
            if v <= 0:
                raise ConfigError(f"tolerance {k!r} must be positive, got {v}")
        for s in self.suites:
            if s != "all" and s not in SUITE_NAMES:
                raise ConfigError(
                    f"unknown suite {s!r}; known: all, {', '.join(SUITE_NAMES)}"
                )
        if "all" in self.suites and len(self.suites) > 1:
            raise ConfigError(f"suite 'all' runs every suite and takes no other suite "
                              f"name; got {', '.join(self.suites)}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"field 'format' must be json or csv, got {self.fmt!r}")


def parse_config_file(path: str) -> list:
    """The (location, key, value) entries of a config file, in file order.
    Flat key=value lines (blank and `#` lines skipped) give their keys:
    `param.<name>`, repeated `suite`, `tol.<suite>` and the keys of _KEYS.
    A JSON object gives the same entries: its `params` and `tolerances`
    objects give `param.<name>` and `tol.<suite>`, its `suites` list gives
    repeated `suite`, and a list `grid` or `perturb` is joined with `:`."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
        return [(path, key, val) for key, val in _json_entries(data, path)]
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        out.append((f"{path}:{lineno}", key.strip(), val.strip()))
    return out


def _json_entries(data, path: str) -> list:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    out = []
    for name, val in data.items():
        if name not in _KEYS and name not in ("params", "tolerances", "suites"):
            raise ConfigError(f"{path}: unknown key {name!r}")
        if val is None:
            continue  # null leaves the field unset
        if name in ("params", "tolerances") and isinstance(val, dict):
            prefix = "param." if name == "params" else "tol."
            out += [(prefix + k, str(v)) for k, v in val.items()]
        elif name == "suites" and isinstance(val, list):
            out += [("suite", str(v)) for v in val]
        elif name in _KEYS:
            out.append((name, ":".join(map(str, val)) if isinstance(val, list) else str(val)))
        else:
            raise ConfigError(f"{path}: field {name!r} must be a JSON "
                              f"{'array' if name == 'suites' else 'object'}")
    return out


def _flag_entries(args) -> list:
    """The (location, key, value) entries of the command-line flags."""
    out = []
    for key in _KEYS:
        val = getattr(args, key, None)
        if val is not None:  # --perturb NAME DELTA is a list
            out.append(("--" + key.replace("_", "-"), key,
                        ":".join(val) if isinstance(val, list) else val))
    for flag in ("param", "tol"):
        for kv in getattr(args, flag, None) or []:
            name, _, val = kv.partition("=")
            if not val:
                raise ConfigError(f"--{flag} expects name=value, got {kv!r}")
            out.append((f"--{flag}", f"{flag}.{name.strip()}", val))
    return out + [("--suite", "suite", s) for s in getattr(args, "suite", None) or []]


def _apply(cfg: RunConfig, entries):
    """Parse one source's entries into cfg, key by key.  Suites accumulate
    within the source, and a source that names suites replaces the suites of
    the sources before it."""
    suites = []
    for where, key, val in entries:
        try:
            if key == "suite":
                suites.append(val)
            elif key.startswith(("param.", "tol.")):
                table, _, name = key.partition(".")
                (cfg.params if table == "param" else cfg.tolerances)[name] = _finite(val)
            elif key in _KEYS:
                attr, parse = _KEYS[key]
                setattr(cfg, attr, parse(val))
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}") from None
        except ValueError as e:
            raise ConfigError(f"{where}: field {key!r}: {e}") from None
    if suites:
        cfg.suites = suites


def _finite(text: str) -> float:
    """The number a flag or config value spells; nan and inf are refused."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"not a finite number: {text!r}")
    return val


def _parse_grid_token(tok: str) -> tuple:
    parts = tok.split(":")
    if len(parts) != 3:
        raise ConfigError(f"field 'grid' must be start:stop:count, got {tok!r}")
    start, stop, count = _finite(parts[0]), _finite(parts[1]), int(parts[2])
    if count < 1:
        raise ConfigError("field 'grid': count must be >= 1")
    return (start, stop, count)


def _parse_perturb(tok: str) -> tuple:
    name, _, delta = tok.partition(":")
    return (name.strip(), _finite(delta))


# the one-valued keys of a config source: key -> (RunConfig field, parser)
_KEYS = {
    "family": ("family", str),
    "q": ("q", _finite),
    "grid": ("grid", _parse_grid_token),
    "n_min": ("n_min", int),
    "n_max": ("n_max", int),
    "out": ("out", str),
    "format": ("fmt", str),
    "perturb": ("perturb", _parse_perturb),
}


def _config_from_args(args) -> RunConfig:
    """The run config of a config file (if --config names one) overridden by
    the flags, validated."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        _apply(cfg, parse_config_file(args.config))
    _apply(cfg, _flag_entries(args))
    cfg.validate()
    return cfg


def _family(cfg: RunConfig):
    """The command's family, perturbed as the config asks."""
    fam = make_family(cfg.family, cfg.params, QBase(cfg.q))
    return fam.with_perturbation(*cfg.perturb) if cfg.perturb else fam


def _grid_points(fam, cfg: RunConfig):
    """Resolve the grid spec to lattice coordinates and reject degenerate
    points (vanishing steps)."""
    if cfg.grid is None:
        return default_grid(fam)
    start, stop, count = cfg.grid
    vals = [start] if count == 1 else [
        start + (stop - start) * j / (count - 1) for j in range(count)
    ]
    pts = [fam.kind.s_from_grid_value(fam, v) for v in vals]
    # x(s + h/2), h = -2..2: Delta x, nabla x and Delta x(s-1/2) at every point
    x = LatticeTable(fam.lattice, pts, -2, 2).x
    steps = np.stack([x[:, 4] - x[:, 2], x[:, 2] - x[:, 0], x[:, 3] - x[:, 1]], axis=1)
    bad = np.argwhere(fam.lattice.is_degenerate_step(steps))
    if len(bad):
        p, k = bad[0]
        raise ConfigError(
            f"grid point {pts[p]:.6g} is degenerate "
            f"({('Delta x', 'nabla x', 'Delta x(s-1/2)')[k]} vanishes); "
            "choose a grid excluding lattice symmetry points"
        )
    return pts


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _fmt_float(v: float) -> str:
    return f"{v:.17g}"


def _n_range(cfg: RunConfig) -> range:
    """n_min..n_max, the orders eval and check read (gram reads only n_max)."""
    if cfg.n_min < 0 or cfg.n_max < cfg.n_min:
        raise ConfigError(f"need 0 <= n_min <= n_max, got {cfg.n_min}..{cfg.n_max}")
    return range(cfg.n_min, cfg.n_max + 1)


def cmd_eval(cfg: RunConfig) -> int:
    ns = _n_range(cfg)
    fam = _family(cfg)
    eq = fam.eq
    pts = np.array([complex(s) for s in _grid_points(fam, cfg)])
    # x at s - 1/2, s, s + 1/2: x, sigma, tau and Theta once per grid point;
    # rho in one call, null where the family refuses the point (a weight pole)
    xh = LatticeTable(fam.lattice, pts, -1, 1).x
    rho = fam.rho_at_s(pts)
    columns = [
        {"s": s, "x": x, "sigma": _sigma_at(eq, x, b - a), "tau": tau_tilde(eq, x),
         "Theta": _theta_at(eq, x, b - a), "rho": None if refused else r}
        for s, (a, x, b), r, refused in zip(pts.tolist(), xh.tolist(), rho.tolist(),
                                            np.isnan(rho).tolist())
    ]
    # P_0..P_N from one recurrence pass; phi_n = sqrt(rho) P_n / d_n where rho is
    # a positive real and d_n exists
    stack = fam.pn_stack(cfg.n_max, xh[:, 1])
    ok, w = fam.positive_sqrt_rho(rho)
    rows = []
    for n in ns:
        try:
            phi = fam._phi(n, w, stack[n]).tolist()
        except (FamilyError, QKernelError):
            phi = [None] * len(pts)
        for col, P, f, good in zip(columns, stack[n].tolist(), phi, ok.tolist()):
            rows.append({"n": n, "P": P, "phi": f if good else None, **col})
    cols = ("n", "s", "x", "P", "phi", "rho", "sigma", "tau", "Theta")  # n, then complex values
    if cfg.fmt == "csv":
        lines = [",".join(["family", "n"] + [f"{c}_{p}" for c in cols[1:] for p in ("re", "im")])]
        for r in rows:
            cells = [fam.name, str(r["n"])]
            for c in cols[1:]:
                v = r[c]
                if v is None:
                    cells += ["", ""]
                else:
                    v = complex(v)
                    cells += [_fmt_float(v.real), _fmt_float(v.imag)]
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        def enc(v):
            if v is None:
                return None
            v = complex(v)
            return [v.real, v.imag]

        payload = {
            "schema": SCHEMA_ID,
            "command": "eval",
            "family": fam.name,
            "params": fam.params,
            "q": cfg.q,
            "rows": [{k: (r[k] if k == "n" else enc(r[k])) for k in cols} for r in rows],
        }
        _emit(json.dumps(payload), cfg.out)
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    ns = [n for n in _n_range(cfg) if n >= 1]
    fam = _family(cfg)
    pts = _grid_points(fam, cfg)
    if not ns:
        raise ConfigError(f"check needs --n-max >= 1 (the suites start at n = 1), "
                          f"got {cfg.n_max}")
    reports = run_suites(fam, cfg.suites, ns=ns, s_grid=pts, tolerances=cfg.tolerances)
    if cfg.fmt == "csv":
        lines = ["suite,identity,family,max_residual,tolerance,verdict,wall_ms"]
        for r in reports:
            ident = r.identity.replace(",", ";")
            lines.append(
                f"{r.suite},{ident},{r.family},{_fmt_float(r.max_residual)},"
                f"{_fmt_float(r.tolerance)},{'pass' if r.passed else 'fail'},{r.wall_ms:.3f}"
            )
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        _emit(dumps_reports(reports), cfg.out)
    for r in reports:
        if r.meta.get("status") == "skipped":
            sys.stderr.write(f"[skip] {fam.name} {r.suite}: {r.meta.get('reason', '')}\n")
            continue
        status = "pass" if r.passed else "FAIL"
        sys.stderr.write(
            f"[{status}] {fam.name} {r.suite}: max residual {r.max_residual:.3e} "
            f"(tol {r.tolerance:.1e})\n"
        )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_gram(cfg: RunConfig) -> int:
    N = cfg.n_max
    if N < 0:
        raise ConfigError(f"gram needs --n-max >= 0, got {N}")
    if cfg.fmt != "json":
        raise ConfigError(f"gram writes JSON only, got format {cfg.fmt!r}")
    fam = _family(cfg)
    G, history = gram_matrix(fam, N)
    on = np.eye(N + 1, dtype=bool)
    dev = np.abs(G - on)  # |G - I|; a NaN entry reaches its maximum
    payload = {
        "schema": SCHEMA_ID,
        "command": "gram",
        "family": fam.name,
        "params": fam.params,
        "q": cfg.q,
        "N": N,
        "support": fam.support_label,
        "matrix": [[[G[n, m].real, G[n, m].imag] for m in range(N + 1)] for n in range(N + 1)],
        "max_offdiag": float(np.where(on, 0.0, dev).max()),
        "max_diag_deviation": float(dev[on].max()),
    }
    if history:
        # the Gram's own doubling loop, by its unnormalised integral of P_N^2 w
        payload["quadrature"] = {
            "rule": QUADRATURE_RULE,
            "node_history": [[nodes, [v[N, N].real, v[N, N].imag]] for nodes, v in history],
        }
    _emit(json.dumps(payload), cfg.out)
    return EXIT_OK


def cmd_list_families() -> int:
    lines = []
    for name in FAMILY_NAMES:
        ref = reference_params(name)
        ref_str = ", ".join(f"{k}={v}" for k, v in ref.items()) or "(no parameters)"
        lines.append(f"{name:24s} reference: {ref_str}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qladder",
        description="Difference-equation families on nonuniform lattices: "
        "evaluate, verify ladder/factorization identities, Gram matrices.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, grid=True, suites=False):
        """A subcommand with the flags it reads (a config file may name keys a
        command does not read, so one file serves every command)."""
        sp = sub.add_parser(name, help=help)
        # a value may start with "-": argparse takes only -N and -N.N for
        # values, not a grid -1.5:-0.5:2 or a delta -1e-3, and no flag here
        # starts with a digit or "."
        sp._negative_number_matcher = re.compile(r"^-\.?\d")
        sp.add_argument("--config", help="key=value or JSON config file")
        sp.add_argument("--family", help=f"one of: {', '.join(FAMILY_NAMES)}")
        sp.add_argument("--param", action="append", metavar="k=v",
                        help="family parameter (repeatable)")
        sp.add_argument("--q", type=float, help="base q in (0,1)")
        sp.add_argument("--n-max", type=int, dest="n_max")
        sp.add_argument("--format", choices=("json", "csv"))
        sp.add_argument("--out", help="write output to PATH instead of stdout")
        if grid:
            sp.add_argument("--n-min", type=int, dest="n_min")
            sp.add_argument("--grid", help="start:stop:count (s, or theta for the "
                                           "trigonometric lattice)")
        if suites:
            sp.add_argument("--tol", action="append", metavar="suite=value",
                            help="tolerance override (repeatable)")
            sp.add_argument("--suite", action="append",
                            help=f"suite name or 'all' (repeatable); known: "
                                 f"{', '.join(SUITE_NAMES)}")
            sp.add_argument("--perturb", nargs=2, metavar=("NAME", "DELTA"),
                            help="perturb a closed-form coefficient (negative control)")

    command("eval", "tabulate P_n, phi_n, rho, sigma, tau, Theta")
    command("check", "run identity suites", suites=True)
    command("gram", "Gram matrix of phi_0..phi_N (JSON)", grid=False)
    sub.add_parser("list-families", help="list family names and reference parameters")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    if args.command == "list-families":
        return cmd_list_families()
    try:
        cfg = _config_from_args(args)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "gram":
            return cmd_gram(cfg)
    except (ConfigError, FamilyError, QKernelError, ArithmeticError) as e:
        # ArithmeticError: a division by a vanishing lattice step, an
        # overflow or an invalid operation in the requested configuration
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
