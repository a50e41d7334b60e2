import cmath
import math
from dataclasses import replace

import pytest

from qladder import ladder as L
from qladder.families import make_family
import numpy as np

from qladder.hypergeometric_core import (
    lam_ratio,
    lam_tau_ratio,
    lambda_n,
    rel_residual,
    sigma_eval,
    sigma_over_nabla,
    theta_eval,
    theta_over_delta,
)
from qladder.lattice import Lattice
from qladder.qkernel import QBase, QKernelError, q_number

import pointwise as pw
from conftest import FAMILY_NAMES, grid_for

SWEEP_NS = list(range(1, 7))


def test_theta_reduces_to_sigma_without_tau(base):
    from qladder.hypergeometric_core import EquationData

    lat = Lattice(1.0, 0.0, 0.0, base)
    eq = EquationData(2.0, 0.3, -0.1, 0.0, 0.0, lat)
    for s in (0.4, 1.3):
        assert theta_eval(eq, s) == pytest.approx(sigma_eval(eq, s), rel=1e-14)


def test_theta_asc1_constant(families):
    fam = families["asc1"]
    a = fam.params["a"]
    for s in [0.21 * j - 0.5 for j in range(7)]:
        assert theta_eval(fam.eq, s) == pytest.approx(a, rel=1e-12)


def test_theta_sigma_product_matches_aw_display_squared(families):
    # Theta(s) sigma(s+1) equals the squared E+ coefficient of the displayed
    # three-point operator times Delta x(s)^2
    fam = families["askey_wilson"]
    q = fam.base.q
    kq = fam.base.k_q
    av = [fam.params[k] for k in "abcd"]

    def G_sq(s):
        out = complex(1.0)
        xm = fam.lattice.x_shifted(-1.0, s)  # x(s - 1/2)
        for al in av:
            out *= 1.0 - 2.0 * al * q**-0.5 * xm + q**-1 * al * al
        return out

    for s in grid_for("askey_wilson", 5):
        s = complex(s)
        lhs = theta_eval(fam.eq, s) * sigma_eval(fam.eq, s + 1.0)
        t = q_number(2.0 * s + 1.0, fam.base)
        rhs = (2.0 * q**1.5 / t) ** 2 * G_sq(s + 1.0) * fam.lattice.delta_x(s) ** 2
        assert rel_residual(lhs - rhs, (lhs, rhs)) < 1e-11


def test_phi_normalization_invariance(families):
    # phi is unchanged when P is scaled by kappa and d_n^2 by kappa^2:
    # evaluate through the monic accessors
    fam = families["askey_wilson"]
    of = L.OrthonormalFamily(fam)
    theta0 = 1.1
    s = fam.s_from_point(theta0)
    for n in (1, 3):
        phi = of.phi(n, s)
        a_n = fam.a_n(n)
        phi_monic_route = (
            cmath.sqrt(of.rho_at_s(s))
            * fam.pn_monic(n, s)
            / cmath.sqrt(fam.norm_sq(n) / a_n**2)
        )
        assert phi == pytest.approx(phi_monic_route, rel=1e-12)


def test_asc1_phi_matches_tabulated_display(families):
    # phi_n(x) = sqrt( omega(x) (-a)^n q^{n(n-1)/2}
    #                  / ((1-q)(q;q)_n (q,a,q/a;q)_inf) ) * 2phi1-series
    from qladder.qkernel import SeriesSpec, basic_hypergeometric, q_pochhammer, \
        q_pochhammer_multi

    fam = families["asc1"]
    of = L.OrthonormalFamily(fam)
    a, q, base = fam.params["a"], fam.base.q, fam.base
    for n in range(0, 4):
        for s in (0.25, 1.25, 2.25):
            x = fam.lattice.x(s)
            series = basic_hypergeometric(
                SeriesSpec(upper=(base.pow(float(-n)), 1.0 / x), lower=(0.0,),
                           z=q * x / a, terminate_at=n), base)
            pref = cmath.sqrt(
                fam.weight(x)
                * (-a) ** n
                * q ** (n * (n - 1) / 2.0)
                / ((1.0 - q) * q_pochhammer(q, base, n)
                   * q_pochhammer_multi((q, a, q / a), base))
            )
            disp = pref * series
            got = of.phi(n, fam.s_from_point(x))
            assert got == pytest.approx(disp, rel=1e-10), (n, s)


def test_eigen_equation_sweep(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = L.check_eigen(fam, SWEEP_NS, grid_for(name))
        assert rep.max_residual < 1e-9, (name, rep.max_residual)


def test_eigen_nondegenerate_for_wrong_index(families):
    fam = families["big_q_jacobi"]
    g = L.StencilGrid(fam, [0.25], 1)
    H = g.hamiltonian(2)
    f = L._by_offset(g.phi(4)[0])  # phi_4 is not annihilated by H(.,2)
    terms = (
        complex(H.c_minus(0)[0]) * f(-1),
        complex(H.c_zero(0)[0]) * f(0),
        complex(H.c_plus(0)[0]) * f(1),
    )
    assert rel_residual(sum(terms), terms) > 1e-3


def test_qdh_hamiltonian_display_coefficients(families):
    # the displayed dual-Hahn operator coefficients, squared (branch-free)
    fam = families["q_dual_hahn"]
    a, b, c = (fam.params[k] for k in "abc")
    q = fam.base.q
    qn = lambda k: q_number(k, fam.base)
    grid = grid_for("q_dual_hahn", 4)
    H = L.StencilGrid(fam, grid, 1).hamiltonian(2)
    for i, s in enumerate(grid):
        cm = complex(H.c_minus(0)[i])
        want = (
            q ** (0.5 * (c + a - b + 2))
            * cmath.sqrt(
                (qn(s) ** 2 - qn(a) ** 2)
                * (qn(b) ** 2 - qn(s) ** 2)
                * (qn(s) ** 2 - qn(c) ** 2)
            )
            / qn(2.0 * s)
        )
        assert cm**2 == pytest.approx(want**2, rel=1e-11)
        cp = complex(H.c_plus(0)[i])
        want_p = (
            q ** (0.5 * (c + a - b + 2))
            * cmath.sqrt(
                (qn(s + 1) ** 2 - qn(a) ** 2)
                * (qn(b) ** 2 - qn(s + 1) ** 2)
                * (qn(s + 1) ** 2 - qn(c) ** 2)
            )
            / qn(2.0 * s + 2.0)
        )
        assert cp**2 == pytest.approx(want_p**2, rel=1e-11)


def test_cqh_hamiltonian_display_coefficients(families):
    fam = families["continuous_q_hermite"]
    q = fam.base.q
    grid = grid_for("continuous_q_hermite", 4)
    H = L.StencilGrid(fam, grid, 1).hamiltonian(1)
    for i, s in enumerate(grid):
        s = complex(s)
        cm = complex(H.c_minus(0)[i])
        cp = complex(H.c_plus(0)[i])
        assert cm**2 == pytest.approx(
            (2 * q**1.5 / q_number(2.0 * s - 1.0, fam.base)) ** 2, rel=1e-11
        )
        assert cp**2 == pytest.approx(
            (2 * q**1.5 / q_number(2.0 * s + 1.0, fam.base)) ** 2, rel=1e-11
        )


def test_u_closed_forms(families):
    # ASC1: u(x,n) = a q/(1-q) x^{-1} and v(x,n) = a/(1-q) x^{-1}
    fam = families["asc1"]
    a, q = fam.params["a"], fam.base.q
    g = L.StencilGrid(fam, grid_for("asc1", 5), 1)
    for n in range(1, 6):
        for i, s in enumerate(grid_for("asc1", 5)):
            x = fam.lattice.x(s)
            got = g.u(n)[i, 0]
            assert got == pytest.approx(a * q / (1 - q) / x, rel=1e-10)
            gotv = g.v(n)[i, 0]
            assert gotv == pytest.approx(a / (1 - q) / x, rel=1e-10)
    # big q-Jacobi u display
    fam = families["big_q_jacobi"]
    a, b, c = (fam.params[k] for k in "abc")
    q = fam.base.q

    def D_n(n):
        return (
            a * b * (a * b + a * c + a + c) * q ** (2 * n + 3)
            - a * (b + c + a * b + b * c) * q ** (n + 2)
        ) / ((1 - a * b * q ** (2 * n + 2)) * (1 - q))

    g = L.StencilGrid(fam, grid_for("big_q_jacobi", 3), 1)
    for n in range(1, 5):
        for i, s in enumerate(grid_for("big_q_jacobi", 3)):
            x = fam.lattice.x(s)
            want = a * b * q ** (n + 1) / (1 - q) * x + D_n(n) - a * c * q**2 / (q - 1) / x
            assert g.u(n)[i, 0] == pytest.approx(want, rel=1e-10)


def test_uv_shift_sweep(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = L.check_uv_shift(fam, list(range(0, 7)), grid_for(name))
        assert rep.max_residual < 1e-10, (name, rep.max_residual)
        # the equivalent form u(s+1, n-1) = v(s, n)
        g = L.StencilGrid(fam, grid_for(name, 3), 2)
        for n in (1, 4):
            uu = g.plus_side(g.u(n - 1))(1)
            vv = g.minus_side(g.v(n))(0)
            assert np.all(rel_residual(uu - vv, (uu, vv)) < 1e-10)


def test_ladder_actions_sweep(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = L.check_raising(fam, SWEEP_NS, grid_for(name))
        assert rep.max_residual < 1e-9, (name, "raising", rep.max_residual)
        rep = L.check_lowering(fam, SWEEP_NS, grid_for(name))
        assert rep.max_residual < 1e-9, (name, "lowering", rep.max_residual)


def test_lowering_annihilates_phi0(families):
    fam = families["q_dual_hahn"]
    g = L.StencilGrid(fam, [1.3], 1)
    op = g.lowering(0)
    f = L._by_offset(g.phi(0)[0])
    got = complex(op.apply(f, 0)[0])
    scale = max(abs(complex(op.c_zero(0)[0]) * f(0)), 1e-12)
    assert abs(got) / scale < 1e-12


def test_ladder_round_trip(families):
    # L-(n+1) L+(n) phi_n = h(n) phi_n
    for name in FAMILY_NAMES:
        fam = families[name]
        g = L.StencilGrid(fam, grid_for(name, 3), 2)
        for n in (1, 3, 5):
            h = L.h_minusplus(fam, n)
            Lp = g.raising(n)
            Lm = g.lowering(n + 1)
            f = L._by_offset(g.phi(n))
            got = Lm.apply(Lp.applied(f), 0)
            want = h * f(0)
            scale = np.maximum.reduce([abs(got), abs(want), abs(Lm.c_zero(0)) * abs(Lp.apply(f, 0)),
                                       np.full(got.shape, 1e-12)])
            assert np.all(abs(got - want) / scale < 1e-9), (name, n)


def test_h_closed_values(families):
    # ASC1: h(n) = a q^{1-n}(q^{n+1}-1)/(q-1)^2
    fam = families["asc1"]
    a, q = fam.params["a"], fam.base.q
    for n in range(1, 6):
        want = a * q ** (1 - n) * (q ** (n + 1) - 1) / (q - 1) ** 2
        assert L.h_minusplus(fam, n) == pytest.approx(want, rel=1e-11)
    # AW: h(n) = D_{2n} D_{2n+2} gamma_{n+1} with D_m = lambda_m/[m]_q
    fam = families["askey_wilson"]
    for n in range(1, 5):
        want = (
            lam_ratio(fam.eq, 2.0 * n)
            * lam_ratio(fam.eq, 2.0 * n + 2.0)
            * fam.ttrr_alpha(n)
            * fam.ttrr_gamma(n + 1)
        )
        assert L.h_minusplus(fam, n) == pytest.approx(want, rel=1e-13)
        disp = fam.closed.displays["h_mp"](n)
        assert disp == pytest.approx(want, rel=1e-10)
    # dual Hahn: h(n) = q^{-2n} gamma_{n+1} (monic gamma)
    fam = families["q_dual_hahn"]
    q = fam.base.q
    for n in range(1, 4):
        want = q ** (-2 * n) * complex(fam.closed.gamma_n(n + 1))
        assert L.h_minusplus(fam, n) == pytest.approx(want, rel=1e-11)


def test_h_remark_and_s_independence(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = L.check_h_remark(fam, list(range(1, 8)))
        assert rep.max_residual < 1e-12, name
        rep = L.check_h_s_independence(fam, SWEEP_NS, grid_for(name))
        assert rep.max_residual < 1e-10, (name, rep.max_residual)


def test_cqh_h_pm_display_off_by_q_squared(families):
    fam = families["continuous_q_hermite"]
    q = fam.base.q
    for n in range(1, 5):
        disp = complex(fam.closed.displays["h_pm"](n))
        gen = L.h_plusminus(fam, n)
        assert disp != pytest.approx(gen, rel=1e-3)
        assert disp * q**2 == pytest.approx(gen, rel=1e-11)


def test_factorization_sweep(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = L.check_factorization(fam, list(range(1, 6)), grid_for(name))
        assert rep.max_residual < 1e-9, (name, rep.max_residual)


def test_factorization_probe_scale_invariance(families):
    fam = families["big_q_jacobi"]
    n = 2
    g = L.StencilGrid(fam, [0.25], 2)
    Lp = g.raising(n)
    Lm = g.lowering(n + 1)
    Hn = g.hamiltonian(n)
    h = L.h_minusplus(fam, n)

    def resid(scale):
        f = L._by_offset(scale * (g.x[0] ** 2 + 0.7))
        t1, sc1 = L._apply_scaled(Lm, Lp.applied(f), 0, inner=(Lp, f))
        hf, schf = L._apply_scaled(Hn, f, 0)
        u1 = Lp.c_zero(1)[0]
        t1, sc1, hf, schf = t1[0], sc1[0], hf[0], schf[0]
        sc = max(sc1, abs(h * f(0)), abs(u1) * schf)
        return abs(t1 - h * f(0) - u1 * hf) / sc

    assert abs(resid(1.0) - resid(1e3)) < 1e-12


def test_factorization_beta_sensitivity(families):
    fam = families["q_dual_hahn"].with_perturbation("beta", 1e-3)
    rep = L.check_factorization(fam, [1, 2, 3], grid_for("q_dual_hahn", 3))
    assert rep.max_residual > 1e-5


def test_bootstrap_sweep(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        of = L.OrthonormalFamily(fam)
        grid = grid_for(name)
        if name in ("askey_wilson", "continuous_q_hermite"):
            # bootstrap recurses along an integer chain from one theta anchor
            grid = [grid[0] + k for k in range(5)]
        rep = L.check_bootstrap(of, 4, grid)
        assert rep.max_residual < 1e-8, (name, rep.max_residual)


def test_bootstrap_n0_only(families):
    fam = families["q_dual_hahn"]
    of = L.OrthonormalFamily(fam)
    table = L.ladder_bootstrap(of, 0, [1.3 + k for k in range(3)])
    assert set(table) == {0}
    # phi_0 proportional to sqrt(rho): ratios match
    vals = table[0]
    for k in (0, 1):
        got = vals[k + 1] / vals[k]
        want = of.phi(0, 1.3 + k + 1) / of.phi(0, 1.3 + k)
        assert got == pytest.approx(want, rel=1e-11)


def test_adjoint_sums(families):
    fam = families["q_dual_hahn"]
    of = L.OrthonormalFamily(fam)
    rep = L.check_adjoint(of, list(range(0, 5)))
    assert rep.max_residual < 1e-8
    notes = [c.note for c in rep.cases if c.note]
    assert any("out-of-range" in t for t in notes)  # n = 4 needs phi_5


def test_adjoint_skipped_for_continuous_support(families):
    of = L.OrthonormalFamily(families["askey_wilson"])
    rep = L.check_adjoint(of, [0, 1])
    assert rep.meta.get("status") == "skipped"
    assert rep.passed


def test_adjoint_invariant_under_weight_rescale(families):
    fam = families["q_dual_hahn"]
    w0 = fam.closed.weight
    scaled_closed = replace(fam.closed, weight=lambda s: 9.0 * w0(s))
    fam9 = replace(fam, closed=scaled_closed, _cache={})
    r1 = L.check_adjoint(L.OrthonormalFamily(fam), [0, 1, 2])
    r9 = L.check_adjoint(L.OrthonormalFamily(fam9), [0, 1, 2])
    assert r9.max_residual < 1e-8
    # phi itself is invariant (norms rescale with the weight)
    of, of9 = L.OrthonormalFamily(fam), L.OrthonormalFamily(fam9)
    for n in (0, 2):
        assert of9.phi(n, 2.0) == pytest.approx(of.phi(n, 2.0), rel=1e-11)


def test_selfadjoint(families):
    fam = families["q_dual_hahn"]
    of = L.OrthonormalFamily(fam)
    pairs = [(n, m) for n in range(5) for m in range(5)]
    rep = L.check_selfadjoint(of, pairs)
    assert rep.max_residual < 1e-8
    # n = m identically equal
    same = L.check_selfadjoint(of, [(2, 2)])
    assert same.max_residual == 0.0
    # boundary-truncation negative control
    broken = L.check_selfadjoint(of, [(0, 2), (1, 3), (0, 4)], drop_last=1)
    assert broken.max_residual > 1e-3


def test_branch_continuity_aw(families):
    fam = families["askey_wilson"]
    rep = L.check_branch_continuity(fam, fam.kind.theta_grid(fam, 200))
    assert rep.max_residual < 0.2


def test_chain_weight_squares_to_pearson_ratio(families):
    for name in ("asc1", "big_q_jacobi", "askey_wilson"):
        fam = families[name]
        s0 = complex(grid_for(name, 1)[0])
        w = L._by_offset(L.StencilGrid(fam, [s0], 2).w[0])
        for k in range(-2, 2):
            lhs = w(k + 1) ** 2 / w(k) ** 2
            rhs = theta_eval(fam.eq, s0 + k) / sigma_eval(fam.eq, s0 + k + 1.0)
            assert rel_residual(lhs - rhs, (lhs, rhs)) < 1e-12


def test_three_point_operator_application():
    op = L.ThreePointOperator(
        c_minus=lambda s: 2.0, c_zero=lambda s: -1.0, c_plus=lambda s: 0.5
    )
    f = lambda s: complex(s) ** 2
    got = op.apply(f, 3.0)
    assert got == pytest.approx(2 * 4.0 - 9.0 + 0.5 * 16.0)


# --------------------------------------------------------------------------
# the batched point-local suites against the point-by-point operators
# --------------------------------------------------------------------------

BATCHED_SUITES = ("eigen", "raising", "lowering", "uv_shift", "h_s_independence",
                  "factorization")


def _scalar_suite_cases(fam, suite, ns, grid):
    """(n, label, residual, note) of one point-local suite, evaluated point by
    point through the reference operators of `pointwise`, _apply_scaled and
    PhiChain, in the suite's case order."""
    eq, lat = fam.eq, fam.lattice
    out = []
    if suite in ("eigen", "raising", "lowering"):
        for s in map(complex, grid):
            chain = pw.PhiChain(fam, s, -1, 1)
            for n in ns:
                f = chain.fn(n)
                if suite == "eigen":
                    H = pw.hamiltonian(fam, n)
                    terms = (H.c_minus(s) * f(s - 1.0), H.c_zero(s) * f(s),
                             H.c_plus(s) * f(s + 1.0))
                    out.append((n, f"{s:.6g}", rel_residual(sum(terms), terms), ""))
                    continue
                if suite == "raising":
                    op = pw.raising_op(fam, n)
                    target = fam.ttrr_alpha(n) * lam_ratio(eq, 2.0 * n) * chain.fn(n + 1)(s)
                else:
                    op = pw.lowering_op(fam, n)
                    target = (fam.ttrr_gamma(n) * lam_ratio(eq, 2.0 * n) * chain.fn(n - 1)(s)
                              if n >= 1 else 0j)
                got = op.apply(f, s)
                terms = (got, target, op.c_zero(s) * f(s))
                out.append((n, f"{s:.6g}", rel_residual(got - target, terms), ""))
    elif suite == "uv_shift":
        for n in ns:
            for s in map(complex, grid):
                uu, vv = pw.u_fn(fam, n, s + 1.0), pw.v_fn(fam, n + 1, s)
                out.append((n, f"{s:.6g}", rel_residual(uu - vv, (uu, vv)), ""))
    elif suite == "h_s_independence":
        for n in ns:
            A = lambda t: lam_tau_ratio(eq, n, t)
            lam, hm = lambda_n(eq, n), L.h_minusplus(fam, n)
            for s in map(complex, grid):
                p1 = (A(s + 1.0) - sigma_over_nabla(eq, s + 1.0)) * (A(s) - lam * lat.delta_x_mid(s))
                p2 = A(s + 1.0) * theta_over_delta(eq, s)
                out.append((n, f"{s:.6g}", rel_residual(p1 + p2 - hm, (p1, p2, hm)), "minusplus"))
            if n >= 1:
                hp, L2, beta = L.h_plusminus(fam, n), lam_ratio(eq, 2.0 * n), fam.ttrr_beta(n)
                B = lambda t: -A(t) + L2 * (lat.x(t) - beta)
                for s in map(complex, grid):
                    p1 = (B(s - 1.0) + lam * lat.delta_x_mid(s - 1.0)) * (
                        B(s) + sigma_over_nabla(eq, s))
                    p2 = -B(s) * theta_over_delta(eq, s - 1.0)
                    out.append((n, f"{s:.6g}", rel_residual(p1 + p2 - hp, (p1, p2, hp)),
                                "plusminus"))
    else:
        for n in ns:
            Lp, Lm = pw.raising_op(fam, n), pw.lowering_op(fam, n + 1)
            Hn, Hn1 = pw.hamiltonian(fam, n), pw.hamiltonian(fam, n + 1)
            h = L.h_minusplus(fam, n)
            for s in map(complex, grid):
                chain = pw.PhiChain(fam, s, -2, 2)
                probes = [(f"x^{j}", lambda t, j=j: lat.x(t) ** j) for j in range(4)]
                probes.append((f"phi_{n}", chain.fn(n)))
                for tag, f in probes:
                    for order, outer, inner, H, u in (
                        ("minus-plus", Lm, Lp, Hn, pw.u_fn(fam, n, s + 1.0)),
                        ("plus-minus", Lp, Lm, Hn1, pw.u_fn(fam, n, s)),
                    ):
                        t1, sc1 = L._apply_scaled(outer, inner.applied(f), s, inner=(inner, f))
                        t2 = h * f(s)
                        hf, schf = L._apply_scaled(H, f, s)
                        scale = max(sc1, abs(t2), abs(u) * schf, 1e-300)
                        out.append((n, f"{s:.6g}", abs(t1 - t2 - u * hf) / scale,
                                    f"{order} {tag}"))
    return out


@pytest.mark.parametrize("suite", BATCHED_SUITES)
@pytest.mark.parametrize("name", FAMILY_NAMES + ("q_dual_hahn_perturbed",))
def test_batched_suite_matches_scalar_operators(families, name, suite):
    if name in families:
        fam = families[name]
    else:  # the negative control (beta + 1e-3): residuals far from rounding level
        fam = families["q_dual_hahn"].with_perturbation("beta", 1e-3)
    grid = grid_for(fam.name)
    ns = list(range(0, 7)) if suite == "uv_shift" else list(range(1, 6))
    got = getattr(L, f"check_{suite}")(fam, ns, grid).cases
    want = _scalar_suite_cases(fam, suite, ns, grid)
    assert [(c.n, c.s, c.note) for c in got] == [(n, s, note) for n, s, _, note in want]
    worst = max(abs(c.residual - r) for c, (_, _, r, _) in zip(got, want))
    assert worst < 1e-13, (name, suite, worst)


def _scalar_at(points, fn):
    return np.array([[fn(complex(t)) for t in row] for row in points])


def _assert_grid_matches_scalar(fam, grid):
    """The StencilGrid coefficients, each on the offsets it covers (L+ side
    0..1, L- side -1..0), against their point-by-point definitions,
    elementwise (on the trigonometric lattice numpy's complex products round
    differently)."""
    g = L.StencilGrid(fam, grid, 2)
    plus, minus = g.t[:, 2:4], g.t[:, 1:3]
    close = lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
    close(g.son, _scalar_at(plus, lambda t: sigma_over_nabla(fam.eq, t)))
    close(g.tod, _scalar_at(minus, lambda t: theta_over_delta(fam.eq, t)))
    close(g.roots, _scalar_at(g.t[:, :-1], lambda t: pw.sqrt_ts_plus(fam, t)))
    close(g.roots, _scalar_at(g.t[:, 1:], lambda t: pw.sqrt_ts_minus(fam, t)))
    for n in (0, 1, 4):
        close(g.u(n), _scalar_at(plus, lambda t: pw.u_fn(fam, n, t)))
        close(g.v(n), _scalar_at(minus, lambda t: pw.v_fn(fam, n, t)))
        close(g.h_diag(n), _scalar_at(g.t[:, 2:3], pw.hamiltonian(fam, n).c_zero)[:, 0])
    return g


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_stencil_grid_coefficients_match_scalar(families, name):
    fam = families[name]
    g = _assert_grid_matches_scalar(fam, grid_for(name))
    np.testing.assert_allclose(g.e_minus, _scalar_at(g.t[:, 2:4], lambda t: pw.e_minus(fam, t)),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(g.e_plus, _scalar_at(g.t[:, 1:3], lambda t: pw.e_plus(fam, t)),
                               rtol=1e-12, atol=0)
    for i, s in enumerate(grid_for(name)):
        w = pw.weight_chain(fam, s, -2, 2)
        np.testing.assert_allclose(g.w[i], [w[k] for k in range(-2, 3)], rtol=1e-12, atol=0)


def test_stencil_grid_removable_limit_on_the_chain(families):
    # dual Hahn with a = 0: sigma(0) = nabla x(0) = 0 at the symmetry point
    # s = 0, where sigma/nabla x is the removable limit
    fam = families["q_dual_hahn"]
    g = _assert_grid_matches_scalar(fam, [0.0, 2.5])
    assert g.t[0, 2] == 0 and fam.lattice.is_degenerate_step(g.nabla[0, 0])
    assert cmath.isfinite(g.son[0, 0]) and g.son[0, 0] != 0


def test_stencil_grid_reads_no_step_beyond_the_stencils(families):
    # the chain through s = 1 reaches the symmetry point s = 0 at offset -1,
    # where nabla x(0) = 0; no stencil reads the L+ side there, so the grid
    # divides by no vanishing step, as the point-by-point stencils do not
    fam = families["q_dual_hahn"]
    with np.errstate(divide="raise", invalid="raise"):
        g = _assert_grid_matches_scalar(fam, [1.0, 2.5])
        np.testing.assert_allclose(g.e_minus, _scalar_at(g.t[:, 2:4], lambda t: pw.e_minus(fam, t)),
                                   rtol=1e-12, atol=0)
    assert g.t[0, 1] == 0 and fam.lattice.is_degenerate_step(g.x[0, 1] - g.x[0, 0])
    assert L.check_factorization(fam, [1, 2], [1.0, 2.5]).max_residual < 1e-9


@pytest.mark.parametrize("drop_last", [0, 1])
def test_selfadjoint_matches_per_pair_scalar_sums(families, drop_last):
    fam = families["q_dual_hahn"]
    of = L.OrthonormalFamily(fam)
    pairs = [(n, m) for n in range(5) for m in range(5)]
    grid = fam.support.grid_points[:len(fam.support.grid_points) - drop_last]
    got = L.check_selfadjoint(of, pairs, drop_last=drop_last).cases
    for (n, m), case in zip(pairs, got):
        ta = [of.phi(m, s) * of.apply_reduced("H", n, s, op_n=n) for s in grid]
        tb = [of.phi(n, s) * of.apply_reduced("H", m, s, op_n=n) for s in grid]
        a, b = sum(ta), sum(tb)
        scale = max(abs(a), abs(b), *map(abs, ta + tb), 1e-30)
        assert case.residual == pytest.approx(abs(a - b) / scale, rel=1e-9, abs=1e-13)


def test_selfadjoint_pairs_beyond_finite_family_out_of_range():
    fam = make_family("q_dual_hahn", {"a": 0.5, "b": 3.5, "c": 0.3}, QBase(0.5))
    assert fam.n_max == 2
    rep = L.check_selfadjoint(L.OrthonormalFamily(fam), [(n, m) for n in range(5) for m in range(5)])
    skipped = [c for c in rep.cases if c.note.startswith("out-of-range")]
    assert len(skipped) == 25 - 9 and all(max(c.n, int(c.s[2:])) > 2 for c in skipped)
    assert rep.passed and rep.max_residual < 1e-8


def _reduced_pointwise(of, which, n, s, op_n=None):
    """`apply_reduced` point by point from the scalar coefficient functions,
    the form the node-array version replaced."""
    fam = of.family
    eq = fam.eq
    s = complex(s)
    son, tod = sigma_over_nabla(eq, s), theta_over_delta(eq, s)
    P = lambda t: fam.pn_ttrr(n, t)
    if which == "L+":
        reduced = pw.u_fn(fam, n, s) * P(s) + son * P(s - 1.0)
    elif which == "L-":
        reduced = pw.v_fn(fam, n, s) * P(s) + tod * P(s + 1.0)
    else:
        diag = pw.h_diag_at(lambda_n(eq, n if op_n is None else op_n), son, tod,
                            fam.lattice.delta_x_mid(s))
        reduced = pw.reduced_h_at(son, tod, diag, P(s - 1.0), P(s), P(s + 1.0))
    return of._normalized(of.sqrt_rho(s), reduced, n)


@pytest.mark.parametrize("which", ["L+", "L-", "H"])
def test_apply_reduced_on_node_arrays_matches_pointwise(families, which):
    # the support starts at s = a = 0, the removable 0/0 of sigma/nabla x
    fam = families["q_dual_hahn"]
    of = L.OrthonormalFamily(fam)
    nodes = np.array(fam.support.grid_points, dtype=complex)
    for n in range(5):
        want = [_reduced_pointwise(of, which, n, s, op_n=2) for s in nodes]
        assert of.apply_reduced(which, n, nodes, op_n=2).tolist() == want
        assert [of.apply_reduced(which, n, s, op_n=2) for s in nodes] == want


def test_adjoint_one_weight_pass_matches_per_node_sums(families):
    fam = families["q_dual_hahn"]
    w0 = fam.closed.weight
    calls = []
    fam = replace(fam, closed=replace(fam.closed, weight=lambda s: calls.append(np.size(s)) or w0(s)),
                  _cache={})
    for n in range(fam.n_max + 1):
        fam.d_n(n)
    calls.clear()
    of = L.OrthonormalFamily(fam)
    rep = L.check_adjoint(of, list(range(5)))
    grid = fam.support.grid_points
    assert calls == [len(grid)]  # one weight evaluation, on the node array
    cases = iter(rep.cases)
    for n in range(fam.n_max):
        target = fam.ttrr_alpha(n) * fam.d_n(n + 1) / fam.d_n(n)
        s1 = sum(of.phi(n + 1, s) * _reduced_pointwise(of, "L+", n, s)
                 * fam.lattice.delta_x_mid(s) for s in grid) / lam_ratio(fam.eq, 2.0 * n)
        s2 = sum(_reduced_pointwise(of, "L-", n + 1, s) * of.phi(n, s)
                 * fam.lattice.delta_x_mid(s) for s in grid) / lam_ratio(fam.eq, 2.0 * n + 2.0)
        for label, total in (("sum1", s1), ("sum2", s2)):
            case = next(cases)
            assert (case.n, case.s) == (n, label)
            assert abs(case.residual - rel_residual(total - target, (total, target))) <= 1e-15


def test_phi_range_stacks_single_phis(families):
    fam = families["q_dual_hahn"]
    of = L.OrthonormalFamily(fam)
    nodes = np.array(fam.support.grid_points, dtype=complex)
    stacked = of.phi(range(5), nodes)
    assert stacked.shape == (5, len(nodes))
    for n in range(5):
        assert stacked[n].tolist() == [of.phi(n, s) for s in nodes]
        assert of.phi(n, nodes).tolist() == stacked[n].tolist()
    asc1 = L.OrthonormalFamily(families["asc1"])
    x = np.linspace(-1.0, 1.0, 8)  # the Jackson support [a, 1] = [-1, 1]
    assert asc1.phi_point(range(4), x).tolist() == [[asc1.phi_point(n, t) for t in x]
                                                    for n in range(4)]


def test_one_path_no_scalar_sigma_theta(monkeypatch):
    # bootstrap, branch_continuity and concordance read sigma and Theta from
    # StencilGrid arrays, never point by point
    import sys

    from qladder import checks, hypergeometric_core
    from qladder.families import reference_params

    calls = []
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "qladder"]
    for name in ("sigma_eval", "theta_eval"):
        original = getattr(hypergeometric_core, name)
        counting = lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k)
        for mod in modules:  # every binding site
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    for name in FAMILY_NAMES:
        fam = make_family(name, reference_params(name), QBase(0.5))
        for suite in ("bootstrap", "branch_continuity", "concordance"):
            checks.run_suite(fam, suite)
    assert not calls
