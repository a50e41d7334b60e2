"""The identity chain away from the reference configuration: other bases q,
other admissible parameters, randomized lattices."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qladder import ladder as L
from qladder.families import make_family
from qladder.lattice import Lattice
from qladder.qkernel import QBase, QKernelError

import pointwise as pw
from conftest import grid_for, worst_at


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
    assert worst_at(L.check_uv_shift(fam, ns, grid), ns) < 1e-10
    assert L.check_factorization(fam, [1, 3, 5], grid[:3]).max_residual < 1e-9
    assert L.check_h_remark(fam, [4], grid).max_residual < 1e-12  # n = 1..5


def test_dual_hahn_noninteger_boundary_grid():
    # a = 0.5 shifts the grid off the lattice symmetry point entirely
    fam = make_family("q_dual_hahn", {"a": 0.5, "b": 4.5, "c": -0.75}, QBase(0.35))
    grid = grid_for("q_dual_hahn")
    rep = L.check_adjoint(fam, [4], grid)  # n = 0..3
    assert rep.max_residual < 1e-8
    rep = L.check_selfadjoint(fam, [4], grid)  # n, m = 0..3
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
    rep = L.check_bootstrap(fam, [4], grid_for("big_q_jacobi"))
    assert rep.max_residual < 1e-8


@given(
    st.floats(min_value=0.2, max_value=0.85),
    st.floats(min_value=-0.45, max_value=1.5),
    st.integers(min_value=3, max_value=5),
    st.floats(min_value=-0.8, max_value=0.8),
)
@settings(max_examples=20, deadline=None)
@example(q=0.5, a=0.7, N=3, cfrac=0.0)  # the chain through s = 1 reaches nabla x(0) = 0
# chains from s = a + 0.3 that meet a zero of Theta(s-1) sigma(s) or a grid
# point where nabla x(s) = 0: a + 0.3 - 1 = -a, a + 0.3 = c, a + 0.3 = -c
# and a + 0.3 = 0
@example(q=0.40625, a=0.35, N=3, cfrac=0.1875)
@example(q=0.5, a=1.5, N=3, cfrac=0.8)
@example(q=0.5, a=0.6, N=3, cfrac=-0.625)
@example(q=0.25, a=-0.3, N=3, cfrac=0.0)
def test_dual_hahn_identities_random_admissible(q, a, N, cfrac):
    b = a + N
    c = cfrac * (a + 1.0) * 0.9
    fam = make_family("q_dual_hahn", {"a": a, "b": b, "c": c}, QBase(q))
    grid = _defined_grid(fam, a, c)
    assert L.check_eigen(fam, [1, 2, 3], grid).max_residual < 1e-9
    assert worst_at(L.check_uv_shift(fam, [1, 3], grid), [1, 3]) < 1e-10
    assert L.check_factorization(fam, [2], grid[:2]).max_residual < 1e-9


def _defined_grid(fam, a, c):
    """The grid a + o + k, k = 0..2, for the first offset o of 0.3, 0.45,
    0.6, 0.75 and 0.9 on which the identities are defined.

    Its chains over offsets -2..2 keep 0.05 (mod 1) away from the zeros of
    Theta(s-1) sigma(s) off the support, s = -a and -c (of Theta(s-1)) and
    s = c (of sigma): at a zero met to rounding the chain weight is rounding
    error.  At c = 0 the zeros c and -c coincide at s = 0 and cancel in the
    chain's ratio sigma(s)/sqrt(Theta(s-1) sigma(s)), so they are not
    avoided, unless both round to exactly 0 there: where the point-by-point
    reference chain meets an exact zero, the library must refuse the grid
    too, and the next offset is taken.  The grid points keep 0.05 away from
    s = 0, where nabla x(s) = 0 (x(s) = x(-1-s)) and the operators divide
    by it."""
    zeros = [-a] + ([c, -c] if c != 0.0 else [])
    for o in (0.3, 0.45, 0.6, 0.75, 0.9):
        grid = [a + o + k for k in range(3)]
        if (any(abs((a + o - z + 0.5) % 1.0 - 0.5) < 0.05 for z in zeros)
                or min(abs(s) for s in grid) < 0.05):
            continue
        try:
            for s in grid:
                pw.weight_chain(fam, s, -2, 2)
        except QKernelError:
            with pytest.raises(QKernelError, match=r"weight chain hit .* = 0"):
                L.check_factorization(fam, [2], grid)
            continue
        return grid
    raise AssertionError(f"no offset gives a grid on which the identities are defined, a={a}, c={c}")


@pytest.mark.parametrize("q, a, N, cfrac", [
    (0.40625, 0.35, 3, 0.1875),  # Theta(s-1) = 0 at s = -a = -0.35
    (0.5, 1.5, 3, 0.8),  # sigma(s) = 0 at s = c = 1.8
])
def test_dual_hahn_chain_through_exact_zero_is_refused(q, a, N, cfrac):
    """Where the chain from s = a + 0.3 over offsets -2..2 meets a zero of
    Theta(s-1) sigma(s) exactly, the weight chain is undetermined and
    check_factorization raises, as the point-by-point reference does."""
    fam = make_family("q_dual_hahn", {"a": a, "b": a + N, "c": cfrac * (a + 1.0) * 0.9}, QBase(q))
    grid = [a + 0.3, a + 1.3]
    refused = r"weight chain hit Theta\(s-1\) sigma\(s\) = 0"
    with pytest.raises(QKernelError, match=refused):
        pw.weight_chain(fam, grid[0], -2, 2)
    with pytest.raises(QKernelError, match=refused):
        L.check_factorization(fam, [2], grid)


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
    assert worst_at(L.check_uv_shift(fam, [1, 3], grid), [1, 3]) < 1e-10
    assert L.check_h_remark(fam, [3], grid).max_residual < 1e-12  # n = 1..4
