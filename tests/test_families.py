import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

from qladder.families import (
    FamilyError,
    FamilySpec,
    eval_series,
    eval_ttrr,
    make_family,
    reference_params,
)
from qladder.hypergeometric_core import rel_residual, tau_k_coeffs
from qladder.orthogonality import jackson_integral
from qladder.qkernel import QBase, QKernelError, _cdiv, q_pochhammer_multi

from conftest import FAMILY_NAMES, grid_for
import pointwise as pw
from pointwise import beta_generic, h_pair, lambda_n, pn, pn_monic, pn_x, ttrr_coeffs_generic


# ------------------------- construction and validation ---------------------


def test_unknown_family(base):
    with pytest.raises(FamilyError, match="unknown family"):
        make_family("nonsense", {}, base)


def test_missing_and_extra_params(base):
    with pytest.raises(FamilyError, match="'b'"):
        make_family("big_q_jacobi", {"a": 0.5, "c": -0.5}, base)
    with pytest.raises(FamilyError, match="'z'"):
        make_family("asc1", {"a": -1.0, "z": 2.0}, base)


@pytest.mark.parametrize("name,param,value", [
    ("asc1", "a", math.nan), ("asc1", "a", -math.inf), ("asc1", "a", math.inf),
    ("asc2", "a", math.nan), ("asc2", "a", math.inf), ("asc2", "a", -math.inf),
    ("big_q_jacobi", "c", -math.inf), ("asc1", "a", "x"), ("asc1", "a", None),
])
def test_non_finite_or_non_numeric_parameter_is_refused_by_name(base, name, param, value):
    # each of these built a family whose P_1 and P_2 read NaN, or raised a
    # bare OverflowError, ValueError or TypeError
    params = {**reference_params(name), param: value}
    with pytest.raises(FamilyError, match=f"^parameter '{param}' invalid: must be a finite"):
        make_family(name, params, base)


def test_params_are_the_required_floats_in_reference_order(base):
    fam = make_family("big_q_jacobi", {"c": -1, "b": "0.5", "a": np.float64(0.5)}, base)
    assert list(fam.params.items()) == [("a", 0.5), ("b", 0.5), ("c", -1.0)]
    assert all(type(v) is float for v in fam.params.values())
    assert fam.name == "big_q_jacobi" and fam.base is base


def test_qdh_constraints_named(base):
    with pytest.raises(FamilyError, match="a < b-1"):
        make_family("q_dual_hahn", {"a": 5.0, "b": 5.0, "c": 0.25}, base)
    with pytest.raises(FamilyError, match="'c'"):
        make_family("q_dual_hahn", {"a": 0.0, "b": 5.0, "c": 3.0}, base)
    with pytest.raises(FamilyError, match="'b'"):
        make_family("q_dual_hahn", {"a": 0.0, "b": 4.5, "c": 0.25}, base)


def test_aw_constraints(base):
    with pytest.raises(FamilyError, match="'b'"):
        make_family("askey_wilson", {"a": 0.3, "b": 1.2, "c": 0.3, "d": 0.3}, base)
    with pytest.raises(FamilyError, match="continuous_q_hermite"):
        make_family("askey_wilson", {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}, base)


def test_bqj_constraints(base):
    with pytest.raises(FamilyError, match="'c'"):
        make_family("big_q_jacobi", {"a": 0.5, "b": 0.5, "c": 0.5}, base)
    with pytest.raises(FamilyError, match="'a'"):
        make_family("big_q_jacobi", {"a": 3.0, "b": 0.5, "c": -0.5}, base)


@pytest.mark.parametrize("q", [0.5, 0.3])
def test_asc1_refuses_a_at_a_power_of_q(q):
    # at a = q^k, (a;q)_inf or (q/a;q)_inf is 0: the Jackson sums over [0, 1] and
    # [0, a] cancel and d_0^2 = 0, so the Gram would be M / 0
    for k in (-1, 0, 1, 2, 3):
        for a in (q**k, q**k * (1.0 + 5e-13)):
            with pytest.raises(FamilyError, match=f"'a'.*a = q\\^{k} "):
                make_family("asc1", {"a": a}, QBase(q))
        make_family("asc1", {"a": q**k * (1.0 + 1e-9)}, QBase(q))
        make_family("asc1", {"a": -(q**k)}, QBase(q))


def test_q_range_guard():
    with pytest.raises(FamilyError, match="0 < q < 1"):
        make_family("asc1", {"a": -1.0}, QBase(1.5))


def test_alias_names(base):
    fam = make_family("AW", {"a": 0.3, "b": 0.3, "c": 0.3, "d": 0.3}, base)
    assert fam.name == "askey_wilson"


# ------------------------- data-entry typo detectors -----------------------


def test_asc1_sigma_is_factored_product(families):
    fam = families["asc1"]
    a = fam.params["a"]
    from pointwise import sigma_eval

    for s in [0.15 * j - 0.4 for j in range(7)]:
        x = fam.lattice.x(s)
        assert sigma_eval(fam.eq, s) == pytest.approx((x - 1) * (x - a), rel=1e-11)


def test_cqh_equals_aw_at_zero_parameters(base, families):
    cqh = families["continuous_q_hermite"].eq
    from qladder.families import _aw_forms

    aw0 = _aw_forms(0.0, 0.0, 0.0, 0.0, base)[0]
    for f in ("sigma_pp", "sigma_p0", "sigma_00", "tau_p", "tau_0"):
        assert getattr(cqh, f) == getattr(aw0, f)
    assert cqh.lattice.c1 == aw0.lattice.c1
    assert cqh.lattice.c2 == aw0.lattice.c2
    assert cqh.lattice.c3 == aw0.lattice.c3


def test_asc2_is_base_inverted_asc1(base):
    # V_n^{(a)}(x; q) = U_n^{(a)}(x; q^{-1}): recurrence-route values agree
    q = base.q
    asc2 = make_family("asc2", {"a": -1.0}, base)
    asc1_inv_beta = lambda n: (1 + (-1.0)) * (1 / q) ** n
    asc1_inv_gamma = lambda n: (-1.0) * (1 / q) ** (n - 1) * ((1 / q) ** n - 1)
    for x in (0.4, 0.9, 1.7, 2.6, 4.1):
        for n in range(0, 6):
            # monic recurrence with base-inverted ASC1 coefficients
            pm, pc = 0.0, 1.0
            for k in range(n):
                pm, pc = pc, (x - asc1_inv_beta(k)) * pc - asc1_inv_gamma(k) * pm
            got = eval_ttrr(asc2, n, x)
            assert got == pytest.approx(pc, rel=1e-12)
            # and the 2phi0 series route agrees
            assert eval_series(asc2, n, x) == pytest.approx(pc, rel=1e-11)


def test_lambda_closed_matches_general(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        for n in range(0, 11):
            got = complex(fam.closed.lambda_n(n))
            want = lambda_n(fam.eq, n)
            assert rel_residual(got - want, (got, want)) < 1e-10, (name, n)


def test_tau_closed_matches_general(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        for n in range(0, 9):
            tk = tau_k_coeffs(fam.eq, float(n))
            assert rel_residual(
                complex(fam.closed.tau_slope(n)) - tk.slope,
                (tk.slope,),
            ) < 1e-9, (name, n, "slope")
            assert rel_residual(
                complex(fam.closed.tau_intercept(n)) - tk.intercept,
                (tk.intercept, complex(fam.closed.tau_intercept(n))),
            ) < 1e-9, (name, n, "intercept")


def test_ttrr_closed_matches_generic(families):
    # beta from the generic route; gamma through the independently sourced
    # norm ratio; the dual-Hahn tabulated beta is a known erratum and is
    # checked against the generic route it was replaced by
    for name in FAMILY_NAMES:
        fam = families[name]
        for n in range(0, 9):
            alpha_gen, beta_gen, _ = ttrr_coeffs_generic(fam.eq, n, 1.0, fam.coeffs.B)
            # canonical alpha = a_n/a_{n+1} equals the generic leading ratio
            assert rel_residual(
                fam.coeffs.alpha(n) - alpha_gen, (alpha_gen,)
            ) < 1e-9, (name, n, "alpha")
            assert rel_residual(
                fam.coeffs.beta(n) - beta_gen, (beta_gen, fam.coeffs.beta(n))
            ) < 1e-9, (name, n, "beta")


def test_beta_generic_where_the_display_is_a_recorded_erratum(families):
    # the validated beta_n is the generic one exactly where the notes record
    # the tabulated beta_n as a suspected erratum (q-dual Hahn only)
    assert "beta_source" not in {f.name for f in dataclasses.fields(FamilySpec)}
    generic = [name for name in FAMILY_NAMES if "beta_n" in families[name].closed.notes]
    assert generic == ["q_dual_hahn"]
    for name in FAMILY_NAMES:
        fam = families[name]
        for n in range(0, 5):
            gen = beta_generic(fam.eq, n)
            assert gen == ttrr_coeffs_generic(fam.eq, n, 1.0, fam.coeffs.B)[1]
            want = gen if name in generic else complex(fam.closed.beta_n(n))
            assert fam.coeffs.beta(n) == want, (name, n)


def test_qdh_displayed_beta_is_erratum(families):
    # the tabulated display (with [b-a-n+1]_q) deviates from the generic
    # route; the [b-a-n-1]_q variant matches it
    fam = families["q_dual_hahn"]
    from qladder.qkernel import q_number

    a, b, c = (fam.params[k] for k in "abc")
    q = fam.base.q
    qn = lambda k: q_number(k, fam.base)

    def beta_variant(n):
        return (
            q ** (0.5 * (2 * n - b + c + 1)) * qn(b - a - n - 1.0) * qn(a + c + n + 1.0)
            + q ** (0.5 * (2 * n + 2 * a + c - b + 1)) * qn(float(n)) * qn(b - c - n)
            + qn(a) * qn(a + 1.0)
        )

    mismatch = 0
    for n in range(0, 8):
        disp = complex(fam.closed.beta_n(n))
        gen = ttrr_coeffs_generic(fam.eq, n, 1.0, fam.coeffs.B)[1]
        assert beta_variant(n) == pytest.approx(gen, rel=1e-11)
        if abs(disp - gen) > 1e-9 * max(abs(disp), abs(gen)):
            mismatch += 1
    assert mismatch >= 7


def test_gamma_consistent_with_norm_ratio(families):
    # gamma_n/alpha_{n-1} = d_n^2/d_{n-1}^2 for the validated norms
    for name in FAMILY_NAMES:
        fam = families[name]
        top = min(8, fam.n_max) if fam.n_max is not None else 8
        for n in range(1, top + 1):
            ratio = fam.norm_sq(n) / fam.norm_sq(n - 1)
            want = fam.coeffs.gamma(n) / fam.coeffs.alpha(n - 1)
            assert rel_residual(ratio - want, (ratio, want)) < 1e-9, (name, n)


# ------------------------- evaluation routes --------------------------------


def test_series_n0_is_prefactor(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        s = grid_for(name, 1)[0]
        got = fam.pn_series(0, s)
        if name == "continuous_q_hermite":
            assert got == pytest.approx(1.0, rel=1e-13)
        else:
            assert abs(got) > 0


def test_dual_route_agreement(families):
    for name in FAMILY_NAMES:
        fam = families[name]
        top = min(10, fam.n_max) if fam.n_max is not None else 10
        for n in range(0, top + 1):
            for s in fam.series_points:
                a = fam.pn_series(n, s)
                b = pn(fam, n, s)
                assert rel_residual(a - b, (a, b)) < 1e-10, (name, n, s)


def test_eval_wrappers_natural_coordinates(families):
    asc1 = families["asc1"]
    # natural coordinate for the exponential lattice is x itself
    assert eval_series(asc1, 1, 0.7) == pytest.approx(0.7 - (1 + asc1.params["a"]), rel=1e-12)
    aw = families["askey_wilson"]
    theta = 1.1
    x = math.cos(theta)
    s = aw.s_from_point(theta)
    assert aw.lattice.x(s) == pytest.approx(x, abs=1e-14)
    assert eval_ttrr(aw, 2, theta) == pytest.approx(pn(aw, 2, s), rel=1e-13)
    # the quadratic kind's natural coordinate is s: both routes agree on the
    # support and between its points, for every n of the finite family, to
    # 1e-12 of P_n's largest value there (P_4(4) = 0.63 is small against
    # |P_4(0)| = 2248; the routes differ there by 1.6e-10 of its own value)
    qdh = families["q_dual_hahn"]
    points = [*qdh.kind.sum_nodes(qdh), 1.3]
    for n in range(qdh.n_max + 1):
        series = [eval_series(qdh, n, p) for p in points]
        ttrr = [eval_ttrr(qdh, n, p) for p in points]
        gap = max(abs(a - b) for a, b in zip(series, ttrr))
        assert gap <= 1e-12 * max(map(abs, series)), n


def test_asc1_p1_monic(families):
    fam = families["asc1"]
    a = fam.params["a"]
    for x in (0.3, 0.9, 2.0):
        assert eval_ttrr(fam, 1, x) == pytest.approx(x - (1 + a), rel=1e-13)


def test_cqh_low_orders(families):
    # H_0 = 1, H_1 = 2x, H_2 = 4x^2 - (2 - ... ) via the recurrence
    fam = families["continuous_q_hermite"]
    q = fam.base.q
    for theta in (0.7, 1.9):
        x = math.cos(theta)
        assert eval_ttrr(fam, 0, theta) == pytest.approx(1.0)
        assert eval_ttrr(fam, 1, theta) == pytest.approx(2 * x, rel=1e-13)
        # 2x H_1 = H_2 + (1-q) H_0
        h2 = eval_ttrr(fam, 2, theta)
        assert 2 * x * 2 * x == pytest.approx(complex(h2) + (1 - q), rel=1e-12)
        # and the 2phi0 series route agrees on the circle
        assert eval_series(fam, 2, theta) == pytest.approx(h2, rel=1e-11)


def test_qdh_series_beyond_family_raises(families):
    fam = families["q_dual_hahn"]
    with pytest.raises(FamilyError, match="n_max"):
        fam.pn_series(5, 1.3)
    with pytest.raises(FamilyError, match="n=5 > n_max=4"):
        fam.pn_series(np.arange(7)[:, None], np.array([0.3, 1.3]))


@pytest.mark.parametrize("name", ["askey_wilson", "q_dual_hahn"])
def test_tabulated_norms_take_two_infinite_products_per_n(name, monkeypatch):
    # a number's (a_1..a_p;q)_inf is one stacked q_pochhammer_inf call, so a
    # tabulated d_n^2 (a product over a product) makes two per n, and equals
    # the closed form with every (a;q)_inf through the oracle, one by one
    import qladder.families as families_module
    import qladder.qkernel as qk

    calls = []
    product = qk.q_pochhammer_inf
    counted = lambda a, base: calls.append(np.shape(a)) or product(a, base)
    for module in (qk, families_module):
        monkeypatch.setattr(module, "q_pochhammer_inf", counted)
    ns = range(9)
    fam = make_family(name, reference_params(name), QBase(0.5))
    if fam.n_max is not None:
        ns = range(fam.n_max + 1)
    del calls[:]  # what making the family takes
    norms = fam.coeffs.d_n_sq(ns)
    assert len(calls) <= 2 * len(ns)
    monkeypatch.undo()

    def oracle_multi(values, base, k=None):
        assert k is None
        out = complex(1.0)
        for a in values:
            out *= pw.q_pochhammer_inf(a, base)
        return out

    monkeypatch.setattr(families_module, "q_pochhammer_inf", pw.q_pochhammer_inf)
    monkeypatch.setattr(families_module, "q_pochhammer_multi", oracle_multi)
    fam = make_family(name, reference_params(name), QBase(0.5))
    assert _bits(norms) == _bits([fam.closed.d_n_sq(n) for n in ns])


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_series_pass_equals_the_pointwise_series(name, q):
    # one pass over the (n, point) grid, and one entry of it, against the
    # family's scalar series in tests/pointwise.py: bit for bit on
    # real-valued data (the series points, the default grid of a real
    # lattice coordinate); within rounding where q^s is complex, for n <= 3
    # (on the orthogonality interval the alternating series loses digits
    # with n: terms of size q^{-n(n-1)/2})
    fam = make_family(name, reference_params(name), QBase(q))
    top = min(10, fam.n_max) if fam.n_max is not None else 10
    grid = fam.kind.default_grid(fam, 5)
    for points, exact in ((list(fam.series_points), True), (grid, not fam.kind.complex_s)):
        got = fam.pn_series(np.arange(top + 1)[:, None], np.array(points, dtype=complex))
        one = [[fam.pn_series(n, s) for s in points] for n in range(top + 1)]
        want = [[pw.pn_series(fam, n, s) for s in points] for n in range(top + 1)]
        if exact:
            assert _bits(got) == _bits(want) == _bits(one)
        else:
            assert np.abs(got[:4] - want[:4]).max() <= 1e-13 * np.abs(want[:4]).max()


# the parameter boxes of the benchmark's draws (perfbench/configs.py)
_BOX = {
    "asc1": {"a": (-3.0, 3.0)},
    "asc2": {"a": (-3.0, 3.0)},
    "big_q_jacobi": {"a": (0.0, 10.0), "b": (0.0, 10.0), "c": (-3.0, 0.0)},
    "askey_wilson": {k: (-0.9, 0.9) for k in "abcd"},
    "continuous_q_hermite": {},
}
_SERIES_DRAWS = 70  # per family


def _admissible(rng, name):
    """A family at seeded admissible parameters, q in [0.1, 0.9]: drawn from
    its box (q-dual Hahn: b - a from 2 to 7), redrawn while refused."""
    while True:
        q = rng.uniform(0.1, 0.9)
        if name == "q_dual_hahn":
            a = rng.uniform(-0.5, 2.0)
            params = {"a": a, "b": a + rng.randint(2, 7), "c": rng.uniform(-3.0, 3.0)}
        else:
            params = {k: rng.uniform(*box) for k, box in _BOX[name].items()}
        try:
            return make_family(name, params, QBase(q))
        except FamilyError:
            pass


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_series_pass_equals_the_pointwise_series_at_random_admissible_parameters(name):
    # the one series pass of pn_series over the n column and the series
    # points, bit for bit against the family's scalar series
    rng = random.Random(FAMILY_NAMES.index(name))
    for _ in range(_SERIES_DRAWS):
        fam = _admissible(rng, name)
        top = min(10, fam.n_max) if fam.n_max is not None else 10
        points = fam.series_points
        got = fam.pn_series(np.arange(top + 1)[:, None], np.array(points, dtype=complex))
        want = [[pw.pn_series(fam, n, s) for s in points] for n in range(top + 1)]
        assert _bits(got) == _bits(want), (fam.params, fam.base.q)


def test_pn_monic_accessor(families):
    fam = families["askey_wilson"]
    s = grid_for("askey_wilson", 1)[0]
    for n in (1, 3):
        got = fam.pn_stack(n, np.array([fam.lattice.x(s)]))[n, 0]
        assert pn_monic(fam, n, s) * fam.a_n(n) == pytest.approx(got, rel=1e-13)


# ------------------------- weights and norms --------------------------------


def test_weight_positive_on_supports(families):
    asc1 = families["asc1"]
    q = asc1.base.q
    # Jackson nodes of [a, 1]: q^k and a q^k
    nodes = np.array([z * q**k for z in (1.0, asc1.params["a"]) for k in range(12)])
    assert (asc1.weight(nodes).real > 0.0).all()
    qdh = families["q_dual_hahn"]
    assert (qdh.weight(np.array(qdh.kind.sum_nodes(qdh), dtype=complex)).real > 0.0).all()


def test_asc2_weight_unavailable(families):
    with pytest.raises(FamilyError, match="Pearson"):
        families["asc2"].weight(np.array([0.5]))


def test_aw_weight_at_zero_reduces_to_h_products(families):
    fam = families["askey_wilson"]
    q = fam.base.q
    h = lambda x, alpha: h_pair(x, alpha, q)
    x = 0.0
    want = (
        h(x, 1.0) * h(x, -1.0) * h(x, math.sqrt(q)) * h(x, -math.sqrt(q))
        / (2 * math.pi * fam.base.k_q * (1 - x * x)
           * h(x, 0.3) * h(x, 0.3) * h(x, 0.3) * h(x, 0.3))
    )
    assert fam.weight(np.zeros(1))[0] == pytest.approx(want, rel=1e-13)
    # at a=b=c=d=0 only the numerator h-factors survive
    cqh = families["continuous_q_hermite"]
    want0 = (
        h(x, 1.0) * h(x, -1.0) * h(x, math.sqrt(q)) * h(x, -math.sqrt(q))
        / (2 * math.pi * fam.base.k_q)
    )
    assert cqh.weight(np.zeros(1))[0] == pytest.approx(want0, rel=1e-13)


def test_asc1_norms_match_jackson_integrals(families):
    fam = families["asc1"]
    a = fam.params["a"]
    for n in range(0, 4):
        direct = jackson_integral(
            lambda x, n=n: fam.pn_stack(n, x)[n] ** 2 * fam.weight(x), a, 1.0, fam.base
        )
        assert rel_residual(direct - fam.norm_sq(n), (direct,)) < 1e-10


def test_bqj_tabulated_norm_is_erratum(families):
    # the tabulated squared norm disagrees with the direct integral even at
    # n = 0 and by a factor geometric in n afterwards
    fam = families["big_q_jacobi"]
    mismatch = 0
    for n in range(0, 4):
        tab = complex(fam.closed.d_n_sq(n))
        true = fam.norm_sq(n)
        if abs(tab - true) > 1e-6 * abs(true):
            mismatch += 1
    assert mismatch == 4


def test_qdh_norm_out_of_range(families):
    fam = families["q_dual_hahn"]
    with pytest.raises(FamilyError, match="finite family"):
        fam.norm_sq(7)


def test_perturbation_roundtrip(families):
    fam = families["q_dual_hahn"]
    pert = fam.with_perturbation("beta", 1e-3)
    assert pert.coeffs.beta(2) == pytest.approx(fam.coeffs.beta(2) + 1e-3, rel=1e-12)
    assert fam.coeffs.beta(2) == pytest.approx(pert.coeffs.beta(2) - 1e-3, rel=1e-12)
    with pytest.raises(FamilyError, match="perturbation"):
        fam.with_perturbation("sigma", 1.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, "x", None])
def test_a_non_finite_or_non_numeric_delta_is_refused_by_name(families, delta):
    # NaN built a family whose eigen residual read NaN, inf raised a bare
    # FloatingPointError in the suites and a string a TypeError there
    with pytest.raises(FamilyError, match="^parameter 'delta' invalid: must be a finite"):
        families["asc1"].with_perturbation("beta", delta)


def test_a_delta_is_a_float_as_a_parameter_is(families):
    fam = families["asc1"].with_perturbation("gamma", "1e-3")
    assert fam.perturb == {"gamma": 1e-3} and type(fam.perturb["gamma"]) is float


# -------------------- node arrays equal the scalar path ---------------------


def _support_points(fam):
    # enough points that a 1-ulp difference of a numpy quotient would show
    lo, hi = fam.support
    if fam.support_label == "discrete_grid":
        return np.linspace(lo, hi - 1.0, 200).astype(complex)
    return np.linspace(lo, hi, 200).astype(complex)


@pytest.mark.parametrize("name, params", [
    ("asc1", {"a": -1.0}), ("asc1", {"a": -2.345}),
    ("big_q_jacobi", {"a": 0.5, "b": 0.5, "c": -0.5}),
    ("big_q_jacobi", {"a": 0.73, "b": 1.9, "c": -1.37}),
    ("q_dual_hahn", {"a": 0.0, "b": 5.0, "c": 0.25}),
    ("q_dual_hahn", {"a": 0.4, "b": 5.4, "c": -0.7}),
])
def test_weight_on_node_arrays_equals_scalar_bit_for_bit(name, params):
    fam = make_family(name, params, QBase(0.37))
    pts = _support_points(fam)
    got = fam.weight(pts)  # the whole node array against each node alone
    assert got.tobytes() == np.concatenate([fam.weight(pts[i:i + 1])
                                            for i in range(len(pts))]).tobytes()


@pytest.mark.parametrize("name, params", [
    ("asc1", {"a": -2.345}), ("big_q_jacobi", {"a": 0.73, "b": 1.9, "c": -1.37}),
])
def test_jackson_weight_from_its_factors_equals_the_displayed_products(name, params):
    # the weight built from `weight_factors`, on a one-element array and on
    # an array, equals the displayed q-products evaluated as written, at the
    # point in Python complex arithmetic and on the array, bit for bit
    base = QBase(0.37)
    q, fam = base.q, make_family(name, params, base)
    a, b, c = (params.get(k) for k in "abc")
    pts = _support_points(fam)
    for x, got in ((pts, fam.weight(pts)), (complex(pts[3]), fam.weight(pts[3:4])[0])):
        if name == "asc1":
            want = q_pochhammer_multi((q * x, _cdiv(q * x, a)), base)
        else:
            want = _cdiv(q_pochhammer_multi((_cdiv(x, a), _cdiv(x, c)), base),
                         q_pochhammer_multi((x, _cdiv(b * x, c)), base))
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _h_products(x, q, params, den0):
    """The Askey--Wilson ratio of eight h-products, one `h_pair` call each."""
    rq = math.sqrt(q)
    h = lambda alpha: h_pair(x, alpha, q)
    num = h(1.0) * h(-1.0) * h(rq) * h(-rq)
    a, b, c, d = (params.get(k, 0.0) for k in "abcd")
    return num / (den0 * h(a) * h(b) * h(c) * h(d))


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.95])  # 0.95: the longest q-power table
@pytest.mark.parametrize("name, params", [
    ("askey_wilson", {"a": 0.3, "b": 0.3, "c": 0.3, "d": 0.3}),
    ("askey_wilson", {"a": -0.62, "b": 0.45, "c": -0.17, "d": 0.81}),
    ("continuous_q_hermite", {}),  # a = b = c = d = 0: those factors are exactly 1
])
def test_aw_stacked_h_products_equal_h_pair_bit_for_bit(name, params, q):
    fam = make_family(name, params, QBase(q))
    dens = fam.closed.displays["weight_density"]
    kq = fam.base.k_q
    for M in (32, 64, 250, 500, 1000, 2000):
        x = np.cos((np.arange(M) + 0.5) * (math.pi / M))  # the quadrature's nodes
        want = _h_products(x, q, params, 2.0 * math.pi)
        assert dens(x).tobytes() == want.tobytes()
        want = _h_products(x, q, params, 2.0 * math.pi * kq * (1.0 - x * x))
        assert fam.weight(x).tobytes() == want.tobytes()


def test_s_from_point_refuses_the_lattice_constant(families):
    fam = families["asc1"]  # x = q^s: c3 = 0 is no lattice point
    assert fam.lattice.x(fam.s_from_point(0.5)) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(FamilyError, match="not on the exponential lattice"):
        fam.s_from_point(0.0)


def test_pn_stack_rows_equal_single_recurrences(families):
    x = np.array([-0.7, 0.1, 0.37, 1.9], dtype=complex)
    for fam in families.values():
        stack = fam.pn_stack(6, x)
        assert stack.shape == (7, 4)
        for n in range(7):  # real x: the scalar recurrence's values, bit for bit
            assert stack[n].tolist() == [pn_x(fam, n, v) for v in x.tolist()]


def test_discrete_sum_norms_from_one_weight_pass(families):
    # d_0^2 is the one weight sum; d_n^2 its ratio route from the recurrence data
    fam = families["q_dual_hahn"]
    fresh = make_family(fam.name, fam.params, fam.base)
    direct = sum(complex(fam.weight(np.array([complex(s)]))[0]) * fam.lattice.delta_x_mid(s)
                 for s in fam.kind.sum_nodes(fam))
    assert abs(fresh.norm_sq(0) - direct) <= 1e-15 * abs(direct)
    t, want = fresh.coeffs, fresh.norm_sq(0)
    for n in range(1, fam.n_max + 1):
        want *= t.gamma(n) / t.alpha(n - 1)
        assert fresh.norm_sq(n) == want


def test_rho_reads_nan_at_a_weight_pole_and_sqrt_rho_names_it():
    # q-dual Hahn's weight divides by (q^{s+a+1};q)_inf, which vanishes at
    # s = -a - 1 = -1.2: rho reads NaN there and the weight at the other
    # points, and sqrt_rho refuses the point by name
    fam = make_family("q_dual_hahn", {"a": 0.2, "b": 5.2, "c": 0.3}, QBase(0.5))
    s = np.array([-1.2, 0.8, 1.8])
    rho = fam.rho_at_s(s)
    assert np.isnan(rho[0]) and rho[1:].tolist() == fam.rho_at_s(s[1:]).tolist()
    with pytest.raises(QKernelError, match=r"rho\(-1\.2\) is not a nonnegative real"):
        fam.sqrt_rho(s)
