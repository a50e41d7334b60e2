"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Reference configurations (q = 0.5 throughout):

    asc1 a=-1; asc2 a=-1; big_q_jacobi a=0.5 b=0.5 c=-0.5;
    q_dual_hahn a=0 b=5 c=0.25; askey_wilson a=b=c=d=0.3;
    continuous_q_hermite (no parameters).
"""

import json
import math
import time

import numpy as np
import pytest

from qladder import ladder as L
from qladder.checks import (
    concordance_suite,
    default_grid,
    difference_calculus_suite,
    rodrigues_suite,
)
from qladder.cli import main as cli_main
from qladder.families import reference_params
from qladder.hypergeometric_core import rel_residual
from qladder.orthogonality import gram_matrix, jackson_integral
from qladder.report import SCHEMA_ID

from conftest import FAMILY_NAMES, grid_for, truncated
from pointwise import ttrr_coeffs_generic

SWEEP_NS = list(range(1, 6))


def _report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] acceptance {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_factorization(families):
    t0 = time.perf_counter()
    worst = 0.0
    for name in FAMILY_NAMES:
        rep = L.check_factorization(families[name], SWEEP_NS, grid_for(name))
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (factorization, both orderings)",
        worst < 1e-9 and elapsed < 10.0,
        f"max residual {worst:.3e} (tol 1e-9), n=1..5, 5 points, 6 families, "
        f"{elapsed:.2f}s (< 10 s)",
    )


def test_criterion_2_ladder_actions_and_bootstrap(families):
    worst = 0.0
    for name in FAMILY_NAMES:
        fam = families[name]
        worst = max(worst, L.check_raising(fam, SWEEP_NS, grid_for(name)).max_residual)
        worst = max(worst, L.check_lowering(fam, SWEEP_NS, grid_for(name)).max_residual)
    worst_boot = 0.0
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = L.check_bootstrap(fam, [4], grid_for(name))  # the chain grid[0] + k
        worst_boot = max(worst_boot, rep.max_residual)
    _report(
        "criterion 2 (ladder actions + bootstrap)",
        worst < 1e-9 and worst_boot < 1e-8,
        f"raising/lowering max {worst:.3e} (tol 1e-9); bootstrap max "
        f"{worst_boot:.3e} (tol 1e-8, n<=4)",
    )


def test_criterion_3_shift_identity_and_h_remark(families):
    worst_uv = 0.0
    worst_h = 0.0
    for name in FAMILY_NAMES:
        fam = families[name]
        # n = 0..6 and n = 1..7
        worst_uv = max(worst_uv, L.check_uv_shift(fam, SWEEP_NS, grid_for(name)).max_residual)
        worst_h = max(worst_h, L.check_h_remark(fam, [6], grid_for(name)).max_residual)
    _report(
        "criterion 3 (u(s+1,n) = v(s,n+1); h+-(n+1) = h-+(n))",
        worst_uv < 1e-10 and worst_h < 1e-12,
        f"shift max {worst_uv:.3e} (tol 1e-10); remark max {worst_h:.3e} (tol 1e-12)",
    )


def test_criterion_4_eigen_equation_with_negative_control(families):
    worst = 0.0
    for name in FAMILY_NAMES:
        worst = max(worst, L.check_eigen(families[name], SWEEP_NS, grid_for(name)).max_residual)
    perturbed = families["q_dual_hahn"].with_perturbation("beta", 1e-3)
    control = L.check_eigen(perturbed, [2, 3], grid_for("q_dual_hahn", 3)).max_residual
    _report(
        "criterion 4 (H(.,n) phi_n = 0 + beta-perturbation control)",
        worst < 1e-9 and control > 1e-5,
        f"max residual {worst:.3e} (tol 1e-9); perturbed control {control:.3e} (> 1e-5)",
    )


def test_criterion_5_orthonormality(families):
    t0 = time.perf_counter()
    G, _ = gram_matrix(families["q_dual_hahn"], 4)
    qdh_err = float(np.max(np.abs(G - np.eye(5))))
    G, _ = gram_matrix(families["asc1"], 3)
    asc1_err = float(np.max(np.abs(G - np.eye(4))))
    # norm-convention ratio (integral)/(tabulated d_n^2) constant over n
    fam = families["asc1"]
    ratios = []
    for n in range(4):
        val = jackson_integral(
            lambda x, n=n: fam.pn_stack(n, x)[n] ** 2 * fam.weight(x),
            *fam.support, fam.base,
        )
        ratios.append(val / complex(fam.closed.d_n_sq(n)))
    spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
    G, _ = gram_matrix(families["askey_wilson"], 3)
    aw_err = float(np.max(np.abs(G - np.eye(4))))
    elapsed = time.perf_counter() - t0
    ok = qdh_err < 1e-8 and asc1_err < 1e-8 and spread < 1e-9 and aw_err < 1e-6 and elapsed < 30.0
    _report(
        "criterion 5 (orthonormality: discrete, Jackson, continuous)",
        ok,
        f"dual-Hahn Gram {qdh_err:.3e} (1e-8); Jackson Gram {asc1_err:.3e} (1e-8), "
        f"convention ratio {ratios[0].real:.6f} spread {spread:.2e} (1e-9); "
        f"continuous Gram {aw_err:.3e} (1e-6); {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_6_concordance_with_errata(families):
    from qladder.hypergeometric_core import tau_k_coeffs
    from pointwise import lambda_n as lam_general

    all_ok = True
    detail_parts = []
    bqj_norm_record = False
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = concordance_suite(fam, SWEEP_NS, grid_for(name))
        records = rep.meta["errata"]
        recorded = {e["quantity"] for e in records}
        if name == "big_q_jacobi":
            bqj_norm_record = bool({"d_n_sq_ratio", "d_0_sq_anchor"} & recorded)
        mismatched = set()
        for n in range(0, 9):
            generic = ttrr_coeffs_generic(fam.eq, n, 1.0, fam.coeffs.B)
            pairs = {
                "lambda_n": (complex(fam.closed.lambda_n(n)), lam_general(fam.eq, n)),
                "alpha_n": (fam.coeffs.alpha(n), generic[0]),
                "beta_n": (complex(fam.closed.beta_n(n)), generic[1]),
                "tau_n_slope": (complex(fam.closed.tau_slope(n)),
                                tau_k_coeffs(fam.eq, float(n)).slope),
                "tau_n_intercept": (complex(fam.closed.tau_intercept(n)),
                                    tau_k_coeffs(fam.eq, float(n)).intercept),
            }
            # gamma against the direct norm ratio wherever an independent
            # norm route exists at full precision
            top = fam.n_max if fam.n_max is not None else 99
            if 1 <= n <= top and name in ("asc1", "q_dual_hahn", "askey_wilson",
                                          "continuous_q_hermite"):
                gamma_machinery = fam.coeffs.alpha(n - 1) * fam.norm_sq(n) / fam.norm_sq(n - 1)
                gamma_closed = complex(fam.closed.gamma_n(n)) * fam.a_n(n) / fam.a_n(n - 1)
                pairs["gamma_n"] = (gamma_closed, gamma_machinery)
            for qty, (got, want) in pairs.items():
                got, want = complex(got), complex(want)
                err = abs(got - want)
                if err > 1e-12 and err > 1e-9 * max(abs(got), abs(want)):
                    mismatched.add(qty)
        # gamma certification by sensitivity calibration: the difference
        # equation determines the recurrence, so the eigen residual bounds
        # the gamma error once its derivative is measured
        ns = list(range(1, 9))
        grid = grid_for(name)
        r0 = L.check_eigen(fam, ns, grid).max_residual
        delta = 1e-6
        rp = L.check_eigen(fam.with_perturbation("gamma", delta), ns, grid).max_residual
        sens = max((rp - r0) / delta, 1e-30)
        certified_abs = r0 / sens
        gscale = min(
            (abs(fam.coeffs.gamma(n)) for n in range(1, 9) if abs(fam.coeffs.gamma(n)) > 0),
        )
        if certified_abs / gscale > 1e-9:
            mismatched.add("gamma_n")
        unrecorded = {m for m in mismatched if m not in recorded}
        if unrecorded:
            all_ok = False
            detail_parts.append(f"{name}: UNRECORDED mismatches {sorted(unrecorded)}")
        elif mismatched:
            detail_parts.append(f"{name}: recorded errata {sorted(mismatched)}")
        else:
            detail_parts.append(f"{name}: ok (gamma certified to {certified_abs/gscale:.1e})")
    _report(
        "criterion 6 (closed-form concordance, errata recorded)",
        all_ok and bqj_norm_record,
        "; ".join(detail_parts) + f"; big-q-Jacobi norm record present: {bqj_norm_record}",
    )


def test_criterion_7_difference_calculus(families):
    worst = 0.0
    for name in ("asc1", "askey_wilson"):  # linear exponential + trigonometric
        rep = difference_calculus_suite(families[name], SWEEP_NS, grid_for(name))  # n <= 6
        worst = max(worst, rep.max_residual)
    _report(
        "criterion 7 (difference-calculus identities on two lattices)",
        worst < 1e-10,
        f"max residual {worst:.3e} (tol 1e-10, n <= 6)",
    )


def test_criterion_8_rodrigues_oracle(families):
    worst = 0.0
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = rodrigues_suite(fam, SWEEP_NS, default_grid(fam))  # n <= 5
        worst = max(worst, rep.max_residual)
    _report(
        "criterion 8 (Rodrigues oracle vs recurrence route)",
        worst < 1e-9,
        f"max residual {worst:.3e} (tol 1e-9, n <= 5, constant fit at one point)",
    )


def test_criterion_9_adjointness(families):
    fam = families["q_dual_hahn"]
    grid = grid_for("q_dual_hahn")
    adj = L.check_adjoint(fam, SWEEP_NS, grid)  # n = 0..4
    sa = L.check_selfadjoint(fam, SWEEP_NS, grid)  # n, m = 0..4
    cut = L.check_selfadjoint(truncated(fam), SWEEP_NS, grid)
    broken = max(c.residual for c in cut.cases if (c.n, c.s) in {(0, "m=2"), (1, "m=3"),
                                                                 (0, "m=4")})
    ok = adj.max_residual < 1e-8 and sa.max_residual < 1e-8 and broken > 1e-3
    _report(
        "criterion 9 (mutual adjointness + self-adjointness, dual Hahn)",
        ok,
        f"adjoint {adj.max_residual:.3e}, self-adjoint {sa.max_residual:.3e} "
        f"(tol 1e-8); truncated-boundary control {broken:.3e} (> 1e-3)",
    )


REF_CLI = {
    "asc1": ["--param", "a=-1"],
    "asc2": ["--param", "a=-1"],
    "big_q_jacobi": ["--param", "a=0.5", "--param", "b=0.5", "--param", "c=-0.5"],
    "q_dual_hahn": ["--param", "a=0", "--param", "b=5", "--param", "c=0.25"],
    "askey_wilson": ["--param", "a=0.3", "--param", "b=0.3", "--param", "c=0.3",
                     "--param", "d=0.3"],
    "continuous_q_hermite": [],
}


def test_criterion_10_cli_contract(tmp_path, capsys):
    ok = True
    parts = []
    for name, extra in REF_CLI.items():
        out = tmp_path / f"{name}.json"
        rc = cli_main(["check", "--family", name, "--q", "0.5", *extra,
                       "--suite", "all", "--out", str(out)])
        capsys.readouterr()
        data = json.loads(out.read_text())
        schema_ok = data.get("schema") == SCHEMA_ID and all(
            r.get("schema") == SCHEMA_ID for r in data["reports"]
        )
        if rc != 0 or not schema_ok:
            ok = False
            parts.append(f"{name}: rc={rc} schema_ok={schema_ok}")
    rc_bad = cli_main(["check", "--family", "q_dual_hahn", "--q", "0.5",
                       "--param", "a=9", "--param", "b=5", "--param", "c=0.25",
                       "--suite", "eigen"])
    err = capsys.readouterr().err
    violation_ok = rc_bad == 2 and "'a'" in err
    _report(
        "criterion 10 (CLI contract: six reference configs + violation exit)",
        ok and violation_ok,
        ("all six reference configs exit 0 with schema-valid JSON; " if ok else "; ".join(parts))
        + f"constraint violation exits 2 naming the parameter: {violation_ok}",
    )
