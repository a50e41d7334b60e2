import cmath
import math
from dataclasses import replace

import pytest

from qladder import ladder as L
from qladder.families import make_family
from qladder.hypergeometric_core import (
    lam_ratio,
    rel_residual,
    sigma_eval,
    theta_eval,
)
from qladder.lattice import Lattice
from qladder.qkernel import QBase, QKernelError, q_number

from conftest import FAMILY_NAMES, grid_for

SWEEP_NS = list(range(1, 7))


def test_theta_reduces_to_sigma_without_tau(base):
    from qladder.hypergeometric_core import EquationData

    lat = Lattice(1.0, 0.0, 0.0, base)
    eq = EquationData(2.0, 0.3, -0.1, 0.0, 0.0, lat)
    fam_like = type("F", (), {"eq": eq})()
    for s in (0.4, 1.3):
        assert L.theta(fam_like, s) == pytest.approx(sigma_eval(eq, s), rel=1e-14)


def test_theta_asc1_constant(families):
    fam = families["asc1"]
    a = fam.params["a"]
    for s in [0.21 * j - 0.5 for j in range(7)]:
        assert L.theta(fam, s) == pytest.approx(a, rel=1e-12)


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
    H = L.hamiltonian(fam, 2)
    chain = L.PhiChain(fam, 0.25, -1, 1)
    f = chain.fn(4)  # phi_4 is not annihilated by H(.,2)
    terms = (
        complex(H.c_minus(0.25)) * f(-0.75),
        complex(H.c_zero(0.25)) * f(0.25),
        complex(H.c_plus(0.25)) * f(1.25),
    )
    assert rel_residual(sum(terms), terms) > 1e-3


def test_qdh_hamiltonian_display_coefficients(families):
    # the displayed dual-Hahn operator coefficients, squared (branch-free)
    fam = families["q_dual_hahn"]
    a, b, c = (fam.params[k] for k in "abc")
    q = fam.base.q
    qn = lambda k: q_number(k, fam.base)
    H = L.hamiltonian(fam, 2)
    for s in grid_for("q_dual_hahn", 4):
        cm = complex(H.c_minus(s))
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
        cp = complex(H.c_plus(s))
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
    H = L.hamiltonian(fam, 1)
    for s in grid_for("continuous_q_hermite", 4):
        s = complex(s)
        cm = complex(H.c_minus(s))
        cp = complex(H.c_plus(s))
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
    for n in range(1, 6):
        for s in grid_for("asc1", 5):
            x = fam.lattice.x(s)
            got = L.u_fn(fam, n, s)
            assert got == pytest.approx(a * q / (1 - q) / x, rel=1e-10)
            gotv = L.v_fn(fam, n, s)
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

    for n in range(1, 5):
        for s in grid_for("big_q_jacobi", 3):
            x = fam.lattice.x(s)
            want = a * b * q ** (n + 1) / (1 - q) * x + D_n(n) - a * c * q**2 / (q - 1) / x
            assert L.u_fn(fam, n, s) == pytest.approx(want, rel=1e-10)


def test_uv_shift_sweep(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = L.check_uv_shift(fam, list(range(0, 7)), grid_for(name))
        assert rep.max_residual < 1e-10, (name, rep.max_residual)
        # the equivalent form u(s+1, n-1) = v(s, n)
        for n in (1, 4):
            for s in grid_for(name, 3):
                uu = L.u_fn(fam, n - 1, complex(s) + 1.0)
                vv = L.v_fn(fam, n, s)
                assert rel_residual(uu - vv, (uu, vv)) < 1e-10


def test_ladder_actions_sweep(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        rep = L.check_raising(fam, SWEEP_NS, grid_for(name))
        assert rep.max_residual < 1e-9, (name, "raising", rep.max_residual)
        rep = L.check_lowering(fam, SWEEP_NS, grid_for(name))
        assert rep.max_residual < 1e-9, (name, "lowering", rep.max_residual)


def test_lowering_annihilates_phi0(families):
    fam = families["q_dual_hahn"]
    op = L.lowering_op(fam, 0)
    chain = L.PhiChain(fam, 1.3, -1, 1)
    f = chain.fn(0)
    got = op.apply(f, 1.3)
    scale = max(abs(complex(op.c_zero(1.3)) * f(1.3)), 1e-12)
    assert abs(got) / scale < 1e-12


def test_ladder_round_trip(families):
    # L-(n+1) L+(n) phi_n = h(n) phi_n
    for name in FAMILY_NAMES:
        fam = families[name]
        for n in (1, 3, 5):
            h = L.h_minusplus(fam, n)
            Lp = L.raising_op(fam, n)
            Lm = L.lowering_op(fam, n + 1)
            for s in grid_for(name, 3):
                s = complex(s)
                chain = L.PhiChain(fam, s, -2, 2)
                f = chain.fn(n)
                got = Lm.apply(Lp.applied(f), s)
                want = h * f(s)
                scale = max(abs(got), abs(want),
                            abs(complex(Lm.c_zero(s))) * abs(Lp.apply(f, s)), 1e-12)
                assert abs(got - want) / scale < 1e-9, (name, n, s)


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
    lat = fam.lattice
    n, s = 2, complex(0.25)
    Lp = L.raising_op(fam, n)
    Lm = L.lowering_op(fam, n + 1)
    Hn = L.hamiltonian(fam, n)
    h = L.h_minusplus(fam, n)

    def resid(scale):
        f = lambda t: scale * (lat.x(t) ** 2 + 0.7)
        t1, sc1 = L._apply_scaled(Lm, Lp.applied(f), s, inner=(Lp, f))
        hf, schf = L._apply_scaled(Hn, f, s)
        u1 = L.u_fn(fam, n, s + 1.0)
        sc = max(sc1, abs(h * f(s)), abs(u1) * schf)
        return abs(t1 - h * f(s) - u1 * hf) / sc

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
    scaled_closed = replace(fam.closed, weight=lambda s: 9.0 * complex(w0(s)))
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
        w = L.weight_chain(fam, s0, -2, 2)
        for k in range(-2, 2):
            lhs = w[k + 1] ** 2 / w[k] ** 2
            rhs = theta_eval(fam.eq, s0 + k) / sigma_eval(fam.eq, s0 + k + 1.0)
            assert rel_residual(lhs - rhs, (lhs, rhs)) < 1e-12


def test_three_point_operator_application():
    op = L.ThreePointOperator(
        c_minus=lambda s: 2.0, c_zero=lambda s: -1.0, c_plus=lambda s: 0.5
    )
    f = lambda s: complex(s) ** 2
    got = op.apply(f, 3.0)
    assert got == pytest.approx(2 * 4.0 - 9.0 + 0.5 * 16.0)
