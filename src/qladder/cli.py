"""Command-line harness: build families from flags or a config file,
evaluate polynomials and functions over grids, run identity suites, and emit
machine-readable reports.

Exit status: 0 = all pass, 1 = at least one suite failed, 2 = config/usage
error.  JSON reports carry the schema id "qladder-report/1".
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .checks import SUITE_NAMES, default_grid, run_suites
from .families import (
    FAMILY_NAMES,
    FamilyError,
    canonical_name,
    make_family,
    reference_params,
)
from .hypergeometric_core import sigma_eval, tau_eval, theta_eval
from .ladder import OrthonormalFamily, _phi_pointwise_ok
from .orthogonality import QUADRATURE_RULE, continuous_inner_aw_converged, gram_matrix
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
            if v <= 0:
                raise ConfigError(f"tolerance {k!r} must be positive, got {v}")
        if self.n_min < 0 or self.n_max < self.n_min:
            raise ConfigError(f"need 0 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        for s in self.suites:
            if s != "all" and s not in SUITE_NAMES:
                raise ConfigError(
                    f"unknown suite {s!r}; known: all, {', '.join(SUITE_NAMES)}"
                )
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"field 'format' must be json or csv, got {self.fmt!r}")


def parse_config_file(path: str) -> dict:
    """Flat key=value lines (repeated `suite=` keys accumulate; parameters as
    `param.<name>=<value>`; tolerance overrides as `tol.<suite>=<value>`),
    or a JSON object with the same fields."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
    out: dict = {"params": {}, "suites": [], "tolerances": {}}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        try:
            if key == "family":
                out["family"] = val
            elif key == "q":
                out["q"] = float(val)
            elif key.startswith("param."):
                out["params"][key[6:]] = float(val)
            elif key == "suite":
                out["suites"].append(val)
            elif key.startswith("tol."):
                out["tolerances"][key[4:]] = float(val)
            elif key == "grid":
                out["grid"] = val
            elif key == "n_min":
                out["n_min"] = int(val)
            elif key == "n_max":
                out["n_max"] = int(val)
            elif key == "out":
                out["out"] = val
            elif key == "format":
                out["format"] = val
            elif key == "perturb":
                name, _, delta = val.partition(":")
                out["perturb"] = [name.strip(), float(delta)]
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: field {key!r}: {e}") from None
    return out


def _parse_grid_token(tok: str) -> tuple:
    parts = tok.split(":")
    if len(parts) != 3:
        raise ConfigError(f"field 'grid' must be start:stop:count, got {tok!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"field 'grid': non-numeric entry in {tok!r}") from None
    if count < 1:
        raise ConfigError("field 'grid': count must be >= 1")
    return (start, stop, count)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        data = parse_config_file(args.config)
        cfg.family = data.get("family", cfg.family)
        cfg.params.update({k: float(v) for k, v in data.get("params", {}).items()})
        cfg.q = float(data.get("q", cfg.q))
        if data.get("suites"):
            cfg.suites = list(data["suites"])
        if data.get("grid"):
            cfg.grid = _parse_grid_token(data["grid"]) if isinstance(data["grid"], str) else tuple(data["grid"])
        cfg.n_min = int(data.get("n_min", cfg.n_min))
        cfg.n_max = int(data.get("n_max", cfg.n_max))
        cfg.tolerances.update({k: float(v) for k, v in data.get("tolerances", {}).items()})
        cfg.out = data.get("out", cfg.out)
        cfg.fmt = data.get("format", cfg.fmt)
        if data.get("perturb"):
            name, delta = data["perturb"]
            cfg.perturb = (str(name), float(delta))
    if getattr(args, "family", None):
        cfg.family = args.family
    for kv in getattr(args, "param", None) or []:
        key, _, val = kv.partition("=")
        if not val:
            raise ConfigError(f"--param expects name=value, got {kv!r}")
        try:
            cfg.params[key.strip()] = float(val)
        except ValueError:
            raise ConfigError(f"--param {key.strip()!r}: non-numeric value {val!r}") from None
    if getattr(args, "q", None) is not None:
        cfg.q = args.q
    if getattr(args, "suite", None):
        cfg.suites = list(args.suite)
    if getattr(args, "grid", None):
        cfg.grid = _parse_grid_token(args.grid)
    if getattr(args, "n_min", None) is not None:
        cfg.n_min = args.n_min
    if getattr(args, "n_max", None) is not None:
        cfg.n_max = args.n_max
    for kv in getattr(args, "tol", None) or []:
        key, _, val = kv.partition("=")
        if not val:
            raise ConfigError(f"--tol expects name=value, got {kv!r}")
        try:
            cfg.tolerances[key.strip()] = float(val)
        except ValueError:
            raise ConfigError(f"--tol {key.strip()!r}: non-numeric value {val!r}") from None
    if getattr(args, "out", None):
        cfg.out = args.out
    if getattr(args, "format", None):
        cfg.fmt = args.format
    if getattr(args, "perturb", None):
        name, delta = args.perturb
        cfg.perturb = (name, float(delta))
    cfg.validate()
    return cfg


def _build_family(cfg: RunConfig):
    fam = make_family(cfg.family, cfg.params, QBase(cfg.q))
    if cfg.perturb:
        fam = fam.with_perturbation(cfg.perturb[0], cfg.perturb[1])
    return fam


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
    lat = fam.lattice
    for p in pts:
        for step, nm in ((lat.delta_x(p), "Delta x"), (lat.nabla_x(p), "nabla x"),
                         (lat.delta_x_mid(p), "Delta x(s-1/2)")):
            if lat.is_degenerate_step(step):
                raise ConfigError(
                    f"grid point {p:.6g} is degenerate ({nm} vanishes); "
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


def cmd_eval(cfg: RunConfig) -> int:
    fam = _build_family(cfg)
    pts = _grid_points(fam, cfg)
    of = OrthonormalFamily(fam)
    rows = []
    for n in range(cfg.n_min, cfg.n_max + 1):
        for s in pts:
            s = complex(s)
            x = fam.lattice.x(s)
            p = fam.pn_ttrr(n, s)
            try:
                rho = of.rho_at_s(s)
            except (FamilyError, QKernelError, KeyError):
                rho = None
            phi = None
            if rho is not None and _phi_pointwise_ok(of, s):
                try:
                    phi = of.phi(n, s)
                except (FamilyError, QKernelError):
                    phi = None
            rows.append(
                {
                    "n": n,
                    "s": s,
                    "x": x,
                    "P": p,
                    "phi": phi,
                    "rho": rho,
                    "sigma": sigma_eval(fam.eq, s),
                    "tau": tau_eval(fam.eq, s),
                    "Theta": theta_eval(fam.eq, s),
                }
            )
    if cfg.fmt == "csv":
        cols = ["n", "s", "x", "P", "phi", "rho", "sigma", "tau", "Theta"]
        lines = []
        header = ["family", "n"]
        for c in cols[1:]:
            header += [f"{c}_re", f"{c}_im"]
        lines.append(",".join(header))
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
            "rows": [
                {k: (r[k] if k == "n" else enc(r[k])) for k in
                 ("n", "s", "x", "P", "phi", "rho", "sigma", "tau", "Theta")}
                for r in rows
            ],
        }
        _emit(json.dumps(payload, indent=2), cfg.out)
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    fam = _build_family(cfg)
    pts = _grid_points(fam, cfg)
    ns = list(range(max(cfg.n_min, 1), cfg.n_max + 1))
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
    fam = _build_family(cfg)
    of = OrthonormalFamily(fam)
    N = cfg.n_max
    G = gram_matrix(of, N)
    off = 0.0
    diag = 0.0
    for n in range(N + 1):
        for m in range(N + 1):
            v = abs(G[n, m] - (1.0 if n == m else 0.0))
            if n == m:
                diag = max(diag, v)
            else:
                off = max(off, v)
    payload = {
        "schema": SCHEMA_ID,
        "command": "gram",
        "family": fam.name,
        "params": fam.params,
        "q": cfg.q,
        "N": N,
        "support": fam.support.kind,
        "matrix": [[[G[n, m].real, G[n, m].imag] for m in range(N + 1)] for n in range(N + 1)],
        "max_offdiag": off,
        "max_diag_deviation": diag,
    }
    if fam.support.kind == "continuous_interval":
        dens = fam.closed.displays["weight_density"]
        _, history = continuous_inner_aw_converged(
            lambda x: fam.pn_ttrr_x(N, x), lambda x: fam.pn_ttrr_x(N, x), dens,
            scale=abs(fam.norm_sq(N)),
        )
        payload["quadrature"] = {
            "rule": QUADRATURE_RULE,
            "node_history": [[nodes, [v.real, v.imag]] for nodes, v in history],
        }
    _emit(json.dumps(payload, indent=2), cfg.out)
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

    def common(sp, with_suites=False):
        sp.add_argument("--config", help="key=value or JSON config file")
        sp.add_argument("--family", help=f"one of: {', '.join(FAMILY_NAMES)}")
        sp.add_argument("--param", action="append", metavar="k=v",
                        help="family parameter (repeatable)")
        sp.add_argument("--q", type=float, help="base q in (0,1)")
        sp.add_argument("--n-min", type=int, dest="n_min")
        sp.add_argument("--n-max", type=int, dest="n_max")
        sp.add_argument("--grid", help="start:stop:count (s, or theta for the "
                                       "trigonometric lattice)")
        sp.add_argument("--tol", action="append", metavar="suite=value",
                        help="tolerance override (repeatable)")
        sp.add_argument("--format", choices=("json", "csv"))
        sp.add_argument("--out", help="write output to PATH instead of stdout")
        if with_suites:
            sp.add_argument("--suite", action="append",
                            help=f"suite name or 'all' (repeatable); known: "
                                 f"{', '.join(SUITE_NAMES)}")
            sp.add_argument("--perturb", nargs=2, metavar=("NAME", "DELTA"),
                            help="perturb a closed-form coefficient (negative control)")

    common(sub.add_parser("eval", help="tabulate P_n, phi_n, rho, sigma, tau, Theta"))
    common(sub.add_parser("check", help="run identity suites"), with_suites=True)
    common(sub.add_parser("gram", help="Gram matrix of phi_0..phi_N"))
    sub.add_parser("list-families", help="list family names and reference parameters")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
