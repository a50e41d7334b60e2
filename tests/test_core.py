"""The general difference-equation machinery, exercised on the concrete
family data (which the family layer validates independently)."""

import cmath
import math
import re

import numpy as np
import pytest

from qladder.hypergeometric_core import (
    EquationData,
    lam_ratio,
    pearson_weight,
    rel_residual,
    rodrigues_values,
    tau_k_coeffs,
)
from qladder.checks import default_grid, rodrigues_suite
from qladder.families import make_family, reference_params
from qladder.lattice import Lattice
from qladder.qkernel import QBase, QKernelError, q_number

import pointwise
from conftest import FAMILY_NAMES, assert_matches_reference, grid_for
from pointwise import (
    a_nk,
    b_over_a,
    check_poly_lowering,
    check_poly_raising,
    d_n_sq_discrete,
    lambda_n,
    leading_coeff,
    mu_k,
    rho_n,
    rodrigues_eval,
    sigma_eval,
    sigma_over_nabla,
    tau_eval,
    tau_k_eval_direct,
    theta_eval,
    weight_fn,
    ttrr_coeffs_generic,
)


def test_equation_data_guard():
    lat = Lattice(1.0, 0.0, 0.0, QBase(0.5))
    with pytest.raises(QKernelError):
        EquationData(0.0, 1.0, 0.5, 0.0, 0.3, lat)


def test_sigma_factored_forms(families):
    q = 0.5
    asc1 = families["asc1"]
    a = asc1.params["a"]
    for s in grid_for("asc1", 5):
        x = asc1.lattice.x(s)
        want = (x - 1.0) * (x - a)
        assert sigma_eval(asc1.eq, s) == pytest.approx(want, rel=1e-12)
    bqj = families["big_q_jacobi"]
    pa, pc = bqj.params["a"], bqj.params["c"]
    for s in grid_for("big_q_jacobi", 5):
        x = bqj.lattice.x(s)
        want = (x - pa * q) * (x - pc * q) / q
        assert sigma_eval(bqj.eq, s) == pytest.approx(want, rel=1e-12)
    aw = families["askey_wilson"]
    av = [aw.params[k] for k in "abcd"]
    kq = aw.base.k_q
    for s in grid_for("askey_wilson", 5):
        qs = aw.lattice.qs(s)
        want = -(qs**-2) * math.sqrt(q) * kq**2
        for v in av:
            want *= qs - v
        got = sigma_eval(aw.eq, s)
        assert got == pytest.approx(want, rel=1e-11)


def test_sigma_reduces_to_sigma_tilde_when_tau_zero():
    lat = Lattice(1.0, 0.0, 0.0, QBase(0.5))
    eq = EquationData(2.0, -0.3, 0.7, 0.0, 0.0, lat)
    for s in (0.3, 1.4):
        x = lat.x(s)
        want = x * x - 0.3 * x + 0.7
        assert sigma_eval(eq, s) == pytest.approx(want, rel=1e-14)
        assert theta_eval(eq, s) == pytest.approx(want, rel=1e-14)


def test_tau_eval(families):
    cqh = families["continuous_q_hermite"]
    q = 0.5
    for s in grid_for("continuous_q_hermite", 3):
        want = 4.0 * (q - 1.0) * cqh.lattice.x(s)
        assert tau_eval(cqh.eq, s) == pytest.approx(want, rel=1e-13)
    lat = Lattice(1.0, 0.0, 0.0, QBase(0.5))
    eq = EquationData(1.0, 0.0, 0.0, 0.0, 2.5, lat)
    assert tau_eval(eq, 0.7) == pytest.approx(2.5)


def test_tau_k_dual_route(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        for k in range(0, 7):
            for s in grid_for(name, 5):
                tk = tau_k_coeffs(fam.eq, float(k))
                via_affine = tk.slope * fam.lattice.x_shifted(tk.k, s) + tk.intercept
                direct = tau_k_eval_direct(fam.eq, k, s)
                assert rel_residual(via_affine - direct, (via_affine, direct)) < 1e-11, (
                    name, k, s)


def test_tau_k_trivial_and_slope_identity(families):
    fam = families["big_q_jacobi"]
    tk0 = tau_k_coeffs(fam.eq, 0.0)
    assert tk0.slope == pytest.approx(complex(fam.eq.tau_p), rel=1e-14)
    assert tk0.intercept == pytest.approx(complex(fam.eq.tau_0), rel=1e-14)
    # tau_n' = -lambda_{2n+1}/[2n+1]_q
    for name in FAMILY_NAMES:
        eq = families[name].eq
        for n in range(0, 8):
            slope = tau_k_coeffs(eq, float(n)).slope
            want = -lam_ratio(eq, 2.0 * n + 1.0)
            assert slope == pytest.approx(want, rel=1e-12)


def test_qdh_tau_slope_closed(families):
    eq = families["q_dual_hahn"].eq
    for n in range(0, 8):
        assert tau_k_coeffs(eq, float(n)).slope == pytest.approx(-(0.5**-n), rel=1e-12)


def test_lambda_basics(families):
    eq = families["asc1"].eq
    assert lambda_n(eq, 0) == 0.0
    assert lambda_n(eq, 1) == pytest.approx(-complex(eq.tau_p), rel=1e-13)


def test_lambda_askey_wilson_closed(families):
    aw = families["askey_wilson"]
    q = 0.5
    abcd = 0.3**4
    for n in range(0, 11):
        want = 4.0 * q ** (-n + 1) * (1 - q**n) * (1 - abcd * q ** (n - 1))
        assert lambda_n(aw.eq, n) == pytest.approx(want, rel=1e-11)


def test_mu_k(families):
    eq = families["big_q_jacobi"].eq
    assert mu_k(eq, 2.7, 0) == pytest.approx(2.7)
    assert mu_k(eq, 2.7, 1) == pytest.approx(2.7 + complex(eq.tau_p), rel=1e-13)
    # mu_n(lambda_n) = 0: the n-th difference derivative of a degree-n
    # solution is constant
    for name in FAMILY_NAMES:
        eqf = families[name].eq
        scale = abs(lambda_n(eqf, 5)) + 1.0
        for n in range(0, 11):
            assert abs(mu_k(eqf, lambda_n(eqf, n), n)) <= 1e-12 * scale * max(
                1.0, abs(lambda_n(eqf, n))
            )


def test_a_nk(families):
    eq = families["asc1"].eq
    assert a_nk(eq, 3, 0) == pytest.approx(1.0)
    assert a_nk(eq, 1, 1) == pytest.approx(complex(eq.tau_p), rel=1e-13)
    with pytest.raises(QKernelError):
        a_nk(eq, 2, 3)
    # A_{n,1} = -lambda_n
    for name in FAMILY_NAMES:
        eqf = families[name].eq
        for n in range(1, 8):
            assert a_nk(eqf, n, 1) == pytest.approx(-lambda_n(eqf, n), rel=1e-12)


def test_pearson_difference_equation_satisfied(families):
    # the defining first-order equation sigma(s+1) rho(s+1) - sigma(s) rho(s)
    # = tau(s) rho(s) Delta x(s-1/2) holds across the table
    fam = families["big_q_jacobi"]
    rho = pearson_weight(fam.eq, 0.25, -2, 5)  # rho(0.25 + k) at index k + 2
    for k in range(-2, 5):
        s = 0.25 + k
        lhs = sigma_eval(fam.eq, s + 1.0) * rho[k + 3] - sigma_eval(fam.eq, s) * rho[k + 2]
        rhs = tau_eval(fam.eq, s) * rho[k + 2] * fam.lattice.delta_x_mid(s)
        assert rel_residual(lhs - rhs, (lhs, rhs)) < 1e-13


def test_pearson_weight_asc1_oracle(families):
    fam = families["asc1"]
    q, a = 0.5, fam.params["a"]
    rho = pearson_weight(fam.eq, 0.25, 0, 5)
    for k in range(5):
        s = 0.25 + k
        x = fam.lattice.x(s)
        got = rho[k + 1] / rho[k]
        want = 1.0 / ((1.0 - q * x) * (1.0 - q * x / a))
        assert got == pytest.approx(want, rel=1e-12)


def test_pearson_weight_qdh_closed(families):
    fam = families["q_dual_hahn"]
    a = fam.params["a"]
    rho = pearson_weight(fam.eq, a, 0, 5)
    for k in range(1, 6):
        got = rho[k] / rho[0]
        w = fam.weight(np.array([a + k, a], dtype=complex))
        want = w[0] / w[1]
        assert rel_residual(got - want, (got, want)) < 1e-10


def test_pearson_weight_interior_zero_raises(families):
    # anchoring below the dual-Hahn support makes sigma(a)=0 an interior zero
    fam = families["q_dual_hahn"]
    with pytest.raises(QKernelError, match="sigma"):
        pearson_weight(fam.eq, fam.params["a"] - 1.0, 0, 3)


def test_rho_n(families):
    fam = families["big_q_jacobi"]
    values = pearson_weight(fam.eq, 0.25, 0, 8)
    rho = weight_fn(values, 0.25, 0)
    s = 0.25
    assert rho_n(fam.eq, rho, 0, s) == pytest.approx(values[0])
    # rho_n(s) = rho_{n-1}(s+1) sigma(s+1), exact as evaluated
    for n in range(1, 4):
        lhs = rho_n(fam.eq, rho, n, s)
        rhs = rho_n(fam.eq, rho, n - 1, s + 1.0) * sigma_eval(fam.eq, s + 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-14)
    want = values[2] * sigma_eval(fam.eq, s + 1.0) * sigma_eval(fam.eq, s + 2.0)
    assert rho_n(fam.eq, rho, 2, s) == pytest.approx(want, rel=1e-14)


def test_rodrigues_low_orders(families):
    fam = families["big_q_jacobi"]
    rho, B = weight_fn(pearson_weight(fam.eq, 0.25, -7, 12), 0.25, -7), fam.coeffs.B
    # n = 0 is B_0
    assert rodrigues_eval(fam.eq, rho, 0, 0.25, B) == pytest.approx(B(0))
    # n = 1: B_1 tau(s) in the monic normalization B_1 = 1/tau~'
    for k in (0, 2):
        s = 0.25 + k
        got = rodrigues_eval(fam.eq, rho, 1, s, B)
        want = B(1) * tau_eval(fam.eq, s)
        assert got == pytest.approx(want, rel=1e-12)


def test_rodrigues_matches_series(families):
    fam = families["asc1"]
    rho = weight_fn(pearson_weight(fam.eq, 0.25, -7, 12), 0.25, -7)
    for n in (2, 3):
        for k in range(5):
            s = 0.25 + k
            got = rodrigues_eval(fam.eq, rho, n, s, fam.coeffs.B)
            want = fam.pn_series(n, s)
            assert rel_residual(got - want, (got, want)) < 1e-9


def test_rodrigues_order_cap(families):
    fam = families["asc1"]
    rho = weight_fn(pearson_weight(fam.eq, 0.25, -8, 14), 0.25, -8)
    with pytest.raises(QKernelError, match="oracle"):
        rodrigues_eval(fam.eq, rho, 6, 0.25, fam.coeffs.B)


def test_ttrr_generic_monic_alpha_is_one(families):
    # with the monic B convention a_n = 1, so alpha_n = a_n/a_{n+1} = 1
    fam = families["asc1"]
    for n in range(0, 8):
        al, _, _ = ttrr_coeffs_generic(fam.eq, n, 1.0, fam.coeffs.B)
        assert al == pytest.approx(1.0, rel=1e-12)


def test_leading_coeff_b_scaling(families):
    fam = families["big_q_jacobi"]
    B, B7 = fam.coeffs.B, lambda n: 7.0 * fam.coeffs.B(n)
    for n in range(1, 5):
        assert leading_coeff(fam.eq, n, B7) == pytest.approx(7.0 * leading_coeff(fam.eq, n, B),
                                                             rel=1e-13)


def test_d_n_sq_discrete(families):
    fam = families["q_dual_hahn"]
    a, b = fam.params["a"], fam.params["b"]
    values = pearson_weight(fam.eq, a, 0, int(b - a) + 6)
    rho, B = weight_fn(values, a, 0), fam.coeffs.B
    lat = fam.lattice
    # n = 0 reduces to B_0^2 sum rho Delta x(s-1/2)
    want0 = sum(values[j] * lat.delta_x_mid(a + j) for j in range(int(b - a)))
    got0 = d_n_sq_discrete(fam.eq, rho, 0, a, b, B)
    assert got0 == pytest.approx(want0 * B(0) ** 2, rel=1e-12)
    # positivity and agreement with the direct orthogonality sums up to the
    # table normalization rho(a) = 1 (an n-independent constant)
    const = None
    for n in range(0, 5):
        val = d_n_sq_discrete(fam.eq, rho, n, a, b, B)
        assert val.real > 0.0
        direct = fam.norm_sq(n)
        ratio = val / direct
        if const is None:
            const = ratio
        assert ratio == pytest.approx(const, rel=1e-9)


def test_d_n_sq_discrete_boundary_guard(families):
    fam = families["q_dual_hahn"]
    a, b = fam.params["a"], fam.params["b"]
    rho = weight_fn(pearson_weight(fam.eq, a, 0, int(b - a) + 6), a, 0)
    with pytest.raises(QKernelError, match="boundary"):
        d_n_sq_discrete(fam.eq, rho, 1, a + 0.5, b + 0.5, fam.coeffs.B)


def test_poly_raising_lowering_all_families(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        pn = lambda k, s: pointwise.pn(fam, k, s)
        for n in range(1, 7):
            for s in grid_for(name, 5):
                r = check_poly_raising(fam.eq, pn, n, s, fam.coeffs.alpha(n))
                assert r < 1e-10, (name, "raising", n, s, r)
                r = check_poly_lowering(
                    fam.eq, pn, n, s, fam.coeffs.beta(n), fam.coeffs.gamma(n)
                )
                assert r < 1e-10, (name, "lowering", n, s, r)
        # n = 0 lowering with P_{-1} = 0
        r = check_poly_lowering(fam.eq, pn, 0, grid_for(name, 1)[0], fam.coeffs.beta(0), 0.0)
        assert r < 1e-10


def test_poly_relations_scale_invariant_in_B(families):
    # rescaling the polynomial normalization leaves relative residuals
    # unchanged: the relations are 1-homogeneous in P
    fam = families["asc1"]
    pn = lambda k, s: pointwise.pn(fam, k, s)
    pn_scaled = lambda k, s: 1e3 * pointwise.pn(fam, k, s)
    for n in (1, 3):
        s = 0.25
        r1 = check_poly_raising(fam.eq, pn, n, s, fam.coeffs.alpha(n))
        r2 = check_poly_raising(fam.eq, pn_scaled, n, s, fam.coeffs.alpha(n))
        assert abs(r1 - r2) < 1e-12


def test_require_finite_guard():
    from qladder.qkernel import require_finite

    assert require_finite(3.5 + 0.1j) == 3.5 + 0.1j
    with pytest.raises(QKernelError, match="finite"):
        require_finite(float("inf"))
    with pytest.raises(QKernelError, match="finite"):
        require_finite(complex(float("nan"), 0.0))


def test_sigma_over_nabla_removable_limit(families):
    # dual Hahn with a = 0: sigma(0) = nabla x(0) = 0 but the ratio extends
    # analytically; compare the limit value against a nearby quotient
    fam = families["q_dual_hahn"]
    v0 = sigma_over_nabla(fam.eq, 0.0)
    eps = 1e-6
    vnear = sigma_eval(fam.eq, eps) / (fam.lattice.x(eps) - fam.lattice.x(eps - 1.0))
    assert v0 == pytest.approx(vnear, rel=1e-5)
    assert cmath.isfinite(v0)


def test_poly_ladder_suite_equals_per_evaluation_recurrence(families):
    # the suite on one StencilGrid and one stacked recurrence gives the
    # residuals of the point-by-point relations with the recurrence run per
    # evaluation: bit for bit on the real lattices; on the trigonometric
    # lattice numpy's complex products round differently in the last bit
    from qladder.checks import default_grid, poly_ladder_suite

    for name in FAMILY_NAMES:
        fam = families[name]
        pn = lambda k, s: pointwise.pn(fam, k, s)
        grid = default_grid(fam)
        want = []
        for n in range(1, 7):
            for s in grid:
                want.append(check_poly_raising(fam.eq, pn, n, s, fam.coeffs.alpha(n)))
                want.append(check_poly_lowering(fam.eq, pn, n, s, fam.coeffs.beta(n),
                                                fam.coeffs.gamma(n)))
        want += [check_poly_lowering(fam.eq, pn, 0, s, fam.coeffs.beta(0), 0.0) for s in grid[:2]]
        got = [c.residual for c in poly_ladder_suite(fam, range(1, 6), grid).cases]  # n <= 6
        if fam.kind.complex_s:
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= max(1e-14, 0.01 * abs(w)), (name, g, w)
        else:
            assert got == want, name


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_pearson_weight_matches_pointwise(name, q):
    fam = make_family(name, reference_params(name), QBase(q))
    anchor = complex(default_grid(fam)[0])
    try:
        want = pointwise.pearson_weight(fam.eq, anchor, -6, 11)
    except QKernelError as e:
        with pytest.raises(QKernelError, match=re.escape(str(e))):
            pearson_weight(fam.eq, anchor, -6, 11)
        return
    for got, ref in zip(pearson_weight(fam.eq, anchor, -6, 11), want, strict=True):
        assert_matches_reference(got, ref, name)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", ["askey_wilson", "continuous_q_hermite"])
def test_pearson_weight_on_the_trigonometric_lattice_is_pointwise_bit_for_bit(name, q):
    # assert_matches_reference allows 1% here; sigma and Theta in Python
    # complex arithmetic (_sigma_theta) keep every entry of the table exact
    fam = make_family(name, reference_params(name), QBase(q))
    checked = 0
    for anchor in default_grid(fam, 7):
        for lo, hi in ((0, 1), (-6, 11)):
            try:
                want = pointwise.pearson_weight(fam.eq, anchor, lo, hi)
            except QKernelError:
                continue
            assert pearson_weight(fam.eq, anchor, lo, hi) == want, (anchor, lo, hi)
            checked += 1
    assert checked >= 7


def _pointwise_rodrigues_residuals(fam, n_hi=5):
    """The rodrigues suite point by point: rodrigues_eval on the pointwise
    Pearson table against the scalar recurrence (`pointwise.pn`), with the
    constant fit at the first point."""
    grid = default_grid(fam)
    anchor = complex(grid[0])
    rho = weight_fn(pointwise.pearson_weight(fam.eq, anchor, -n_hi - 1, len(grid) + n_hi + 1),
                    anchor, -n_hi - 1)
    out = []
    for n in range(n_hi + 1):
        pairs = [(rodrigues_eval(fam.eq, rho, n, anchor + k, fam.coeffs.B),
                  pointwise.pn(fam, n, anchor + k))
                 for k in range(len(grid))]
        fit = next(rod / ref for rod, ref in pairs if abs(ref) > 1e-12)
        out += [abs(rod - fit * ref) / max(abs(rod), abs(fit * ref), 1e-12) for rod, ref in pairs]
    return out


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_rodrigues_table_matches_pointwise(name, q):
    fam = make_family(name, reference_params(name), QBase(q))
    grid = default_grid(fam)
    anchor = complex(grid[0])
    try:
        rho = weight_fn(pointwise.pearson_weight(fam.eq, anchor, -6, len(grid) + 6), anchor, -6)
    except QKernelError as e:  # q-Hermite at q = 0.2: sigma = 0 inside the span
        with pytest.raises(QKernelError, match=re.escape(str(e))):
            rodrigues_values(fam.eq, anchor, len(grid), 5, fam.coeffs.B)
        return
    got, x = rodrigues_values(fam.eq, anchor, len(grid), 5, fam.coeffs.B)
    for k in range(len(grid)):
        assert x[k] == fam.lattice.x(anchor + k)
        for n in range(6):
            want = rodrigues_eval(fam.eq, rho, n, anchor + k, fam.coeffs.B)
            assert_matches_reference(complex(got[n, k]), want, name)
    residuals = [c.residual for c in rodrigues_suite(fam, range(1, 6), grid).cases]  # n <= 5
    for got_r, want_r in zip(residuals, _pointwise_rodrigues_residuals(fam), strict=True):
        assert_matches_reference(got_r, want_r, name)


def test_rodrigues_values_order_cap(families):
    with pytest.raises(QKernelError, match="oracle"):
        rodrigues_values(families["asc1"].eq, 0.25, 5, 6, families["asc1"].coeffs.B)
