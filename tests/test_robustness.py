"""The identity chain away from the reference configuration: other bases q,
other admissible parameters, randomized lattices."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qladder import ladder as L
from qladder.families import make_family
from qladder.lattice import Lattice
from qladder.qkernel import QBase

from conftest import grid_for


CONFIGS = [
    ("asc1", {"a": -0.6}, 0.3),
    ("asc1", {"a": -2.5}, 0.8),
    ("asc2", {"a": -0.4}, 0.7),
    ("big_q_jacobi", {"a": 0.8, "b": 0.3, "c": -1.2}, 0.6),
    ("q_dual_hahn", {"a": 0.5, "b": 4.5, "c": -0.75}, 0.35),
    ("askey_wilson", {"a": 0.9, "b": -0.5, "c": 0.2, "d": 0.7}, 0.62),
    ("continuous_q_hermite", {}, 0.25),
]


@pytest.mark.parametrize("name,params,q", CONFIGS)
def test_identity_chain_other_configs(name, params, q):
    fam = make_family(name, params, QBase(q))
    if name in ("askey_wilson", "continuous_q_hermite"):
        lnq = math.log(q)
        grid = [complex(0.0, 1.0) * ((j + 0.5) * math.pi / 6) / lnq for j in range(5)]
    else:
        grid = grid_for(name)
    ns = list(range(1, 6))
    assert L.check_eigen(fam, ns, grid).max_residual < 1e-9
    assert L.check_raising(fam, ns, grid).max_residual < 1e-9
    assert L.check_lowering(fam, ns, grid).max_residual < 1e-9
    assert L.check_uv_shift(fam, ns, grid).max_residual < 1e-10
    assert L.check_factorization(fam, [1, 3, 5], grid[:3]).max_residual < 1e-9
    assert L.check_h_remark(fam, ns).max_residual < 1e-12


def test_dual_hahn_noninteger_boundary_grid():
    # a = 0.5 shifts the grid off the lattice symmetry point entirely
    fam = make_family("q_dual_hahn", {"a": 0.5, "b": 4.5, "c": -0.75}, QBase(0.35))
    of = L.OrthonormalFamily(fam)
    rep = L.check_adjoint(of, list(range(0, 4)))
    assert rep.max_residual < 1e-8
    rep = L.check_selfadjoint(of, [(n, m) for n in range(4) for m in range(4)])
    assert rep.max_residual < 1e-8


@given(
    st.floats(min_value=0.15, max_value=0.9),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=25, deadline=None)
def test_shift_identity_random_lattices(q, c1, c2, c3):
    lat = Lattice(c1, c2, c3, QBase(q))
    for k in (0.0, 0.5, 1.0, 2.5):
        for s in (0.3, 1.7, -0.9):
            assert lat.x_shifted(k, s + 1.0) == lat.x_shifted(k + 2.0, s)


def test_bootstrap_other_config():
    fam = make_family("big_q_jacobi", {"a": 0.8, "b": 0.3, "c": -1.2}, QBase(0.6))
    of = L.OrthonormalFamily(fam)
    rep = L.check_bootstrap(of, 4, grid_for("big_q_jacobi"))
    assert rep.max_residual < 1e-8


@given(
    st.floats(min_value=0.2, max_value=0.85),
    st.floats(min_value=-0.45, max_value=1.5),
    st.integers(min_value=3, max_value=5),
    st.floats(min_value=-0.8, max_value=0.8),
)
@settings(max_examples=20, deadline=None)
@example(q=0.5, a=0.7, N=3, cfrac=0.0)  # the chain through s = 1 reaches nabla x(0) = 0
def test_dual_hahn_identities_random_admissible(q, a, N, cfrac):
    b = a + N
    c = cfrac * (a + 1.0) * 0.9
    fam = make_family("q_dual_hahn", {"a": a, "b": b, "c": c}, QBase(q))
    grid = [a + 0.3 + k for k in range(3)]
    assert L.check_eigen(fam, [1, 2, 3], grid).max_residual < 1e-9
    assert L.check_uv_shift(fam, [1, 3], grid).max_residual < 1e-10
    assert L.check_factorization(fam, [2], grid[:2]).max_residual < 1e-9


@given(
    st.floats(min_value=0.2, max_value=0.85),
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=-0.9, max_value=0.9),
)
@settings(max_examples=20, deadline=None)
def test_askey_wilson_identities_random_admissible(q, a, b, c, d):
    fam = make_family("askey_wilson", {"a": a, "b": b, "c": c, "d": d}, QBase(q))
    lnq = math.log(q)
    grid = [complex(0.0, 1.0) * th / lnq for th in (0.5, 1.4, 2.4)]
    assert L.check_eigen(fam, [1, 2, 3], grid).max_residual < 1e-9
    assert L.check_uv_shift(fam, [1, 3], grid).max_residual < 1e-10
    assert L.check_h_remark(fam, [1, 2, 3, 4]).max_residual < 1e-12
