import math
import warnings

import numpy as np
import pytest

from qladder import families as families_module
from qladder import orthogonality
from qladder.checks import run_suite
from qladder.families import FamilySpec, make_family, reference_params
from qladder.orthogonality import (
    JACKSON_NODE_CAP,
    QUADRATURE_MAX_DOUBLINGS,
    QUADRATURE_START_NODES,
    InnerProductSpec,
    _jackson_block,
    _outer,
    continuous_inner_aw_converged,
    discrete_inner,
    gram_matrix,
    jackson_integral,
)
from qladder.qkernel import NonConvergedError, QBase, QKernelError

from conftest import grid_for
from pointwise import continuous_inner_aw
from pointwise import phi as phi_at


def test_discrete_inner_phi_normalization(families):
    fam = families["q_dual_hahn"]
    spec = InnerProductSpec(fam.lattice, tuple(fam.kind.sum_nodes(fam)))
    v00 = discrete_inner(spec, lambda s: fam.phi(0, s), lambda s: fam.phi(0, s))
    assert v00 == pytest.approx(1.0, abs=1e-9)
    v01 = discrete_inner(spec, lambda s: fam.phi(0, s), lambda s: fam.phi(1, s))
    assert abs(v01) < 1e-8


def test_discrete_inner_refuses_a_term_that_is_not_finite():
    # the q-dual Hahn weight has a pole at s = a = -1/2, the grid's first node
    fam = make_family("q_dual_hahn", {"a": -0.5, "b": 4.5, "c": 0.3}, QBase(0.5))
    with pytest.raises(QKernelError, match=r"not finite at node s = -0\.5\+0j"):
        gram_matrix(fam, 3)
    spec = InnerProductSpec(fam.lattice, (0.5, 1.5, 2.5))
    with pytest.raises(QKernelError, match=r"at node s = 1\.5\+0j"):
        discrete_inner(spec, lambda s: np.array([[1.0, np.inf, np.nan]] * 2), lambda s: 1.0)


def test_discrete_inner_empty_grid(families):
    fam = families["q_dual_hahn"]
    spec = InnerProductSpec(fam.lattice, ())
    assert discrete_inner(spec, lambda s: 1.0, lambda s: 1.0) == 0.0


def test_jackson_constant_and_linear(base):
    q = base.q
    # f = 1 on [0, z] -> z (geometric series)
    for z in (1.0, 0.37, -0.8):
        assert jackson_integral(lambda t: 1.0, 0.0, z, base) == pytest.approx(z, rel=1e-12)
    # f = t on [0, 1] -> 1/(1+q)
    val = jackson_integral(lambda t: t, 0.0, 1.0, base)
    assert val == pytest.approx(1.0 / (1.0 + q), rel=1e-12)


def test_jackson_requires_q_below_one():
    with pytest.raises(QKernelError, match="q < 1"):
        jackson_integral(lambda t: 1.0, 0.0, 1.0, QBase(1.2))


def test_jackson_nonconvergent_tail_raises(base):
    from qladder.qkernel import NonConvergedError

    # f(t) = 1/t makes every node term equal: the tail never decays
    with pytest.raises(NonConvergedError):
        jackson_integral(lambda t: 1.0 / t, 0.0, 1.0, base)


def test_jackson_linearity(base):
    f = lambda t: t * t + 0.3
    g = lambda t: 1.0 / (1.0 + t * t)
    a, b = 2.7, -1.2
    lhs = jackson_integral(lambda t: a * f(t) + b * g(t), 0.2, 1.0, base)
    rhs = a * jackson_integral(f, 0.2, 1.0, base) + b * jackson_integral(g, 0.2, 1.0, base)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_asc1_jackson_orthogonality(families):
    fam = families["asc1"]
    a = fam.params["a"]
    for n in range(0, 4):
        for m in range(0, 4):
            val = jackson_integral(
                lambda x: fam.pn_stack(n, x)[n] * fam.pn_stack(m, x)[m] * fam.weight(x),
                a, 1.0, fam.base,
            )
            if n == m:
                assert val == pytest.approx(fam.norm_sq(n), rel=1e-8)
            else:
                scale = abs(fam.d_n(n) * fam.d_n(m))
                assert abs(val) < 1e-8 * scale


def test_aw_quadrature_norm_and_orthogonality(families):
    fam = families["askey_wilson"]
    dens = fam.closed.displays["weight_density"]
    val = continuous_inner_aw(lambda x: fam.pn_stack(0, x)[0] ** 2, dens, nodes=2000)
    assert abs(val - fam.norm_sq(0)) < 1e-7 * abs(fam.norm_sq(0))
    v01 = continuous_inner_aw(lambda x: fam.pn_stack(0, x)[0] * fam.pn_stack(1, x)[1], dens,
                              nodes=2000)
    assert abs(v01) < 1e-7 * abs(fam.d_n(0) * fam.d_n(1))


def test_aw_quadrature_doubling_gate(families):
    fam = families["askey_wilson"]
    dens = fam.closed.displays["weight_density"]
    val, history = continuous_inner_aw_converged(
        lambda x: fam.pn_stack(1, x)[1] ** 2, dens, scale=abs(fam.norm_sq(1)))
    assert abs(val - fam.norm_sq(1)) < 1e-9 * abs(fam.norm_sq(1))
    deltas = [abs(history[i + 1][1] - history[i][1]) for i in range(len(history) - 1)]
    assert all(d2 <= d1 or d2 < 1e-12 for d1, d2 in zip(deltas, deltas[1:]))


def test_gram_dual_hahn(families):
    G, history = gram_matrix(families["q_dual_hahn"], 4)
    assert np.max(np.abs(G - np.eye(5))) < 1e-8
    assert history == []  # a sum has no doubling loop
    assert np.allclose(G, G.T)


def test_gram_asc1_jackson(families):
    G, history = gram_matrix(families["asc1"], 3)
    assert np.max(np.abs(G - np.eye(4))) < 1e-8
    assert history == []


def test_gram_aw_continuous(families):
    fam = families["askey_wilson"]
    G, history = gram_matrix(fam, 3)
    assert np.max(np.abs(G - np.eye(4))) < 1e-6
    # the history is the loop that made G: its last matrix is G unnormalised
    start = QUADRATURE_START_NODES
    assert [nodes for nodes, _ in history] == [start * 2**k for k in range(len(history))]
    d = np.array([fam.d_n(n) for n in range(4)])
    assert np.array_equal(G, history[-1][1] / (d[:, None] * d[None]))


def test_gram_n_zero(families):
    G, _ = gram_matrix(families["q_dual_hahn"], 0)
    assert G.shape == (1, 1)
    assert abs(G[0, 0] - 1.0) < 1e-9


@pytest.mark.parametrize("name", ["q_dual_hahn", "asc1", "askey_wilson", "continuous_q_hermite"])
def test_gram_matches_per_pair_scalar_rule(families, name):
    # one rule call per support must equal the rule called once per (n, m)
    fam = families[name]
    kind = fam.support_label
    N = 4 if kind == "discrete_grid" else 3
    G, _ = gram_matrix(fam, N)
    for n in range(N + 1):
        for m in range(N + 1):
            if kind == "discrete_grid":
                spec = InnerProductSpec(fam.lattice, tuple(fam.kind.sum_nodes(fam)))
                want = discrete_inner(spec, lambda s: fam.phi(n, s), lambda s: fam.phi(m, s))
            elif kind == "jackson_integral":
                dd = fam.d_n(n) * fam.d_n(m)
                want = jackson_integral(
                    lambda x: fam.pn_stack(n, x)[n] * fam.pn_stack(m, x)[m] * fam.weight(x),
                    *fam.support, fam.base, scale=abs(dd),
                ) / dd
            else:
                dd = fam.d_n(n) * fam.d_n(m)
                val, _ = continuous_inner_aw_converged(
                    lambda x: fam.pn_stack(n, x)[n] * fam.pn_stack(m, x)[m],
                    fam.closed.displays["weight_density"], scale=abs(dd),
                )
                want = val / dd
            assert abs(G[n, m] - want) < 1e-13, (n, m)


def test_jackson_scale_is_the_magnitude_an_entry_settles_against(base):
    # terms of a 1e-12-sized integrand fall below JACKSON_TOL * 1 long before
    # the sum is exact; with scale 1e-12 they settle against 1e-12 instead
    f = lambda t: 1.0 / (1.0 + t * t)
    want = jackson_integral(f, 0.2, 1.0, base)
    got = jackson_integral(lambda t: 1e-12 * f(t), 0.2, 1.0, base, scale=1e-12)
    assert abs(got - 1e-12 * want) <= 2e-15 * abs(1e-12 * want)
    coarse = jackson_integral(lambda t: 1e-12 * f(t), 0.2, 1.0, base)
    assert abs(coarse - 1e-12 * want) > 1e-6 * abs(1e-12 * want)
    # a scale array matches the value entrywise; the default is the floor 1
    pair = jackson_integral(lambda t: np.array([1e-12 * f(t), f(t)]), 0.2, 1.0, base,
                            scale=np.array([1e-12, 1.0]))
    assert pair.tolist() == [got, want]


def test_p_gram_is_one_rule_call_per_n_kept_by_the_family(base):
    # the measure is integrated once per N: the Gram, the norms' anchor d_0^2
    # and the convention ratio read the same matrix
    calls = []
    weight, orbit = FamilySpec.weight, families_module.q_pochhammer_orbit

    def counted(self, x):
        calls.append(np.shape(x))
        return weight(self, x)

    def orbit_counted(a, base, size):
        calls.append((np.shape(a), size))
        return orbit(a, base, size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FamilySpec, "weight", counted)
        mp.setattr(families_module, "q_pochhammer_orbit", orbit_counted)
        # q-dual Hahn at N = n_max: the norms' anchor and the Gram share one sum
        fam = make_family("q_dual_hahn", reference_params("q_dual_hahn"), base)
        G, _ = gram_matrix(fam, fam.n_max)
        assert calls == [(len(fam.kind.sum_nodes(fam)),)]
        M, history = fam.p_gram(fam.n_max)
        assert history == [] and not M.flags.writeable
        assert fam.norm_sq(0) == M[0, 0]
        # below n_max the Gram is the leading block of that one sum
        calls.clear()
        fam = make_family("q_dual_hahn", reference_params("q_dual_hahn"), base)
        N = fam.n_max - 2
        G, _ = gram_matrix(fam, N)
        norms = [fam.norm_sq(n) for n in range(fam.n_max + 1)]
        assert calls == [(len(fam.kind.sum_nodes(fam)),)]
        block, history = fam.p_gram(N)
        assert history == [] and not block.flags.writeable
        assert block.tobytes() == fam.p_gram(fam.n_max)[0][:N + 1, :N + 1].tobytes()
        assert norms[0] == block[0, 0]
        # each entry is summed alone: the block is the sum at N itself
        spec = InnerProductSpec(fam.lattice, tuple(fam.kind.sum_nodes(fam)))
        at_n = discrete_inner(spec, lambda s: _outer(fam.pn_stack(N, fam.lattice.x_values(s))),
                              fam.weight)
        assert block.tobytes() == at_n.tobytes()
        # asc1: the orthonormality suite's Gram and convention ratio share
        # one Jackson integral, one sweep over both endpoints in one block,
        # whose weights are one run per factor (2) and endpoint (2)
        calls.clear()
        fam = make_family("asc1", reference_params("asc1"), base)
        assert run_suite(fam, "orthonormality").passed
        assert calls == [((2, 2), _jackson_block(base.q))]


def test_q_dual_hahn_gram_diagonal_checks_the_recurrence_data(base):
    # only d_0^2 comes from the sum the Gram divides by; d_n^2, n >= 1, from
    # gamma_n/alpha_{n-1}, so a perturbed recurrence moves the diagonal off 1
    fam = make_family("q_dual_hahn", reference_params("q_dual_hahn"), base)

    def diag_dev(f):
        return float(np.max(np.abs(np.diag(gram_matrix(f, f.n_max)[0]) - 1.0)))

    assert diag_dev(fam) <= 1e-13
    for target in ("gamma", "beta"):
        assert diag_dev(fam.with_perturbation(target, 1e-3)) >= 1e-4, target


@pytest.mark.parametrize("N", [3, 10])
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("name, params", [
    ("askey_wilson", None),  # the reference parameters
    ("askey_wilson", {"a": -0.62, "b": 0.45, "c": -0.17, "d": 0.81}),
    ("askey_wilson", {"a": 0.98, "b": 0.5, "c": 0.1, "d": -0.2}),
    ("continuous_q_hermite", {}),
])
def test_converged_continuous_gram_matches_a_fine_trapezoid(name, params, q, N):
    # wherever the node-doubling loop stops, its matrix is the 8192-panel
    # trapezoid's to 1e-14 relative to |d_n d_m|
    fam = make_family(name, reference_params(name) if params is None else params, QBase(q))
    G, _ = gram_matrix(fam, N)
    fine = continuous_inner_aw(lambda x: _outer(fam.pn_stack(N, x)),
                               fam.closed.displays["weight_density"], 8192)
    dd = _outer(fam.d_n(range(N + 1)))
    assert np.max(np.abs(G * dd - fine) / np.abs(dd)) <= 1e-14


@pytest.mark.parametrize("name", ["askey_wilson", "continuous_q_hermite"])
def test_gram_trigonometric_reference_near_identity(families, name):
    G, _ = gram_matrix(families[name], 3)
    assert np.max(np.abs(G - np.eye(4))) < 1e-13


def test_jackson_vector_integrand_matches_each_component(base):
    # the last component's terms decay like q^(k/10): the integral must keep
    # summing it long after the others have settled
    fs = (lambda t: t * t + 0.3, lambda t: 1.0 / (1.0 + t * t), lambda t: t ** -0.9)
    got = jackson_integral(lambda t: np.array([f(t) for f in fs]), 0.2, 1.0, base)
    assert got.shape == (3,)
    for value, f in zip(got, fs):
        want = jackson_integral(f, 0.2, 1.0, base)
        assert abs(value - want) <= 1e-14 * abs(want)


def test_continuous_vector_integrand_unsettled_entry_raises():
    from qladder.qkernel import NonConvergedError

    smooth = lambda x: 1.0 + 0.5 * x * x
    one = lambda x: 1.0
    continuous_inner_aw_converged(smooth, one)  # settles on its own
    # 1/sqrt(1-x) has a non-integrable 1/theta singularity: its entry grows
    # by about sqrt(2) ln 2 per doubling and never settles.  (It is read as 1
    # at the node x = 1, where it is not finite.)  The error names the finest
    # level and the largest relative change between the last two
    singular = lambda x: 1.0 / np.sqrt(1.0 - x + (x == 1.0))
    finest = QUADRATURE_START_NODES * 2**QUADRATURE_MAX_DOUBLINGS
    prev, cur = (continuous_inner_aw(singular, one, m) for m in (finest // 2, finest))
    with pytest.raises(NonConvergedError, match=rf"after {QUADRATURE_MAX_DOUBLINGS} doublings "
                       rf"\({finest} panels; largest change (\S+)\)$") as err:
        continuous_inner_aw_converged(lambda x: np.array([smooth(x), singular(x)]), one)
    change = float(str(err.value).rsplit(" ", 1)[1][:-1])
    assert change == pytest.approx(abs(cur - prev) / abs(cur), rel=0.05)  # 2 digits


def test_continuous_non_finite_node_value_is_refused_by_name_without_warning():
    # the closed rule evaluates x = 1, where 1/sqrt(1-x) divides by zero
    one = lambda x: 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergedError, match=r"not finite at node x = 1$"):
            continuous_inner_aw_converged(lambda x: 1.0 / np.sqrt(1.0 - x), one)
        with pytest.raises(NonConvergedError, match=r"not finite at node x = -1$"):
            continuous_inner_aw(lambda x: np.log(1.0 + x), one, nodes=4)


def test_continuous_gram_past_two_levels_evaluates_each_node_once(monkeypatch):
    # this Askey--Wilson measure (a = 0.98) needs more than two levels: the
    # density is called on the 2M + 1 nodes of the first two levels (M the
    # start panels), then on the new midpoints of each further level
    calls = []
    aw_weights = families_module._aw_weights

    def counted_aw_weights(*args):
        weight, density = aw_weights(*args)
        return weight, lambda x: calls.append(x.size) or density(x)

    monkeypatch.setattr(families_module, "_aw_weights", counted_aw_weights)
    fam = make_family("askey_wilson", {"a": 0.98, "b": 0.5, "c": 0.1, "d": -0.2}, QBase(0.5))
    N = 3
    G, history = gram_matrix(fam, N)
    start = QUADRATURE_START_NODES
    levels = [p for p, _ in history]
    assert len(levels) > 2 and levels == [start * 2**k for k in range(len(levels))]
    assert calls == [2 * start + 1, *levels[1:-1]] and sum(calls) == levels[-1] + 1
    # each nested level is the trapezoid on its own panels, to rounding
    outer_p = lambda x: _outer(fam.pn_stack(N, x))
    for panels, value in history:
        direct = continuous_inner_aw(outer_p, fam.closed.displays["weight_density"], panels)
        assert np.abs(value - direct).max() <= 1e-15 * np.abs(direct).max(), panels
    for n in range(N + 1):
        for m in range(N + 1):
            dd = fam.d_n(n) * fam.d_n(m)
            val, _ = continuous_inner_aw_converged(
                lambda x: fam.pn_stack(n, x)[n] * fam.pn_stack(m, x)[m],
                fam.closed.displays["weight_density"], scale=abs(dd),
            )
            assert abs(G[n, m] - val / dd) < 1e-13, (n, m)


# -- the Jackson rule against its node-by-node form ---------------------------


def _jackson_per_node(f, z, base, tol=1e-15):
    """The node-by-node Jackson series the block rule replaced, kept as its
    reference: f is called on one node at a time.  Returns the value and the
    node index at which each entry stopped."""
    if z == 0:
        return complex(0.0), None
    q = base.q
    node = complex(z)
    total, settled, live, stop = 0.0, 0, True, -1
    for k in range(JACKSON_NODE_CAP):
        term = np.asarray(f(node) * node, dtype=complex)
        total = np.where(live, total + term, total)
        if not np.isfinite(total).all():
            raise NonConvergedError(
                f"Jackson integrand is not finite near node {node:.3e} "
                f"(partial sum overflowed after {k + 1} nodes)"
            )
        node *= q
        small = np.abs(term) <= tol * np.maximum(np.abs(total), 1.0)
        settled = np.where(small, settled + 1, 0)
        stop = np.where(live & (settled >= 4), k, stop)
        live &= settled < 4
        if not live.any():
            return (1.0 - q) * total, stop
    raise NonConvergedError(
        f"Jackson integral tail did not decay below {tol} within {JACKSON_NODE_CAP} nodes"
    )


def _by_node_index(z, q, table):
    """An integrand whose value at the node z q^k is table[..., k] (the last
    column past the table), so a test can put each entry's small terms on
    chosen nodes.  One node or an array of nodes."""
    def f(t):
        k = np.rint(np.log(np.abs(np.asarray(t) / z)) / math.log(q)).astype(int)
        return table[..., np.minimum(k, table.shape[-1] - 1)]
    return f


def _first_small_at(q, firsts, length, gaps=()):
    """Rows whose terms are z up to the row's first small node (values
    q^-k); after it, and at the (row, node) pairs of `gaps`, the terms are
    below the settling threshold of the sum so far but still change its last
    bits, so a rule that stops on the wrong node gives another sum."""
    k = np.arange(length)
    firsts = np.array(firsts)[:, None]
    small = np.minimum(k, firsts) * 0.3e-15
    table = np.where(k < firsts, 1.0, small) * q ** -k
    for row, at in gaps:
        table[row, at] = small[row, at] * q ** -at
    return table


def _same_outcome(f, z, base):
    """The block rule and the node-by-node rule agree entry by entry, bit for
    bit, or raise the same error; the block rule must not warn (the nodes it
    evaluates past an entry's stop may overflow or divide by zero).  Returns
    the reference stops."""
    try:
        with np.errstate(all="ignore"):
            want, stop = _jackson_per_node(f, z, base)
    except NonConvergedError as exc:
        with pytest.raises(NonConvergedError) as got, warnings.catch_warnings():
            warnings.simplefilter("error")
            jackson_integral(f, 0.0, z, base)
        assert str(got.value) == str(exc)
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = jackson_integral(f, 0.0, z, base)
    assert np.asarray(got).tobytes() == np.asarray(want, dtype=complex).tobytes()
    return stop


def test_discrete_inner_equals_node_by_node_sum():
    # 12 nodes: a pairwise summation would round differently
    fam = make_family("q_dual_hahn", {"a": 0.0, "b": 12.0, "c": 0.25}, QBase(0.5))
    nodes = fam.kind.sum_nodes(fam)
    got = discrete_inner(InnerProductSpec(fam.lattice, tuple(nodes)),
                         lambda s: fam.phi(range(4), s), lambda s: fam.phi(range(4), s))
    for n in range(4):
        want = complex(0.0)
        for s in nodes:
            want += phi_at(fam, n, s) * phi_at(fam, n, s) * fam.lattice.delta_x_mid(s)
        assert got[n] == want


def test_jackson_blocks_equal_node_by_node_across_block_boundaries():
    q, z = 0.9, 0.7
    base = QBase(q)
    B = _jackson_block(q)
    # entries stop on their 4th small node: inside the first block, on its
    # last node, and 1, 2 or 3 nodes into the second with the run of small
    # nodes begun in the first; a reset just before the boundary; one in the
    # third block
    firsts = [5, B - 4, B - 3, B - 2, B - 1, B, B + 2, B + 7, 3 * B - 2]
    gaps = [(6, B - 2), (6, B - 1)]  # two small nodes, a big one at B, then small
    table = _first_small_at(q, firsts, 4 * B, gaps)
    table[6, B] = q ** -B
    stop = _same_outcome(_by_node_index(z, q, table), z, base)
    want = np.array(firsts) + 3
    assert stop.tolist() == want.tolist()
    assert stop[4] == B + 2 and stop[6] == B + 5


def test_jackson_non_finite_partial_sum_equals_node_by_node():
    q, z = 0.5, 1.0
    base = QBase(q)
    table = _first_small_at(q, [10, 40], 200)
    table[1, 20] = np.inf  # a live entry overflows at node 20: the rule raises
    assert _same_outcome(_by_node_index(z, q, table), z, base) is None
    # past its own stop an entry may overflow without effect
    table = _first_small_at(q, [10, 40], 200)
    table[0, 20] = np.inf
    assert _same_outcome(_by_node_index(z, q, table), z, base).tolist() == [13, 43]


def _by_endpoint(z1, z2, q, lo, hi):
    """An integrand that reads table lo on the node orbit of z1 < 0 and hi on
    that of z2 > 0 (see `_by_node_index`)."""
    f1, f2 = _by_node_index(z1, q, lo), _by_node_index(z2, q, hi)
    return lambda t: np.where(np.real(t) < 0, f1(t), f2(t))


def test_jackson_one_sweep_equals_the_difference_of_two():
    # both endpoints in one sweep: each (entry, endpoint) keeps its own sum
    # and stop, so the value is that of two sweeps from 0, bit for bit
    q, z1, z2 = 0.9, -0.35, 0.7
    base = QBase(q)
    f = lambda t: 1.0 / (1.0 + t * t)
    want = jackson_integral(f, 0.0, z2, base) - jackson_integral(f, 0.0, z1, base)
    assert np.asarray(jackson_integral(f, z1, z2, base)).tobytes() == np.asarray(want).tobytes()
    # a vector integrand whose entries settle in other blocks at each endpoint
    B = _jackson_block(q)
    f = _by_endpoint(z1, z2, q, _first_small_at(q, [5, B + 2, 2 * B], 4 * B),
                     _first_small_at(q, [B - 1, 3, 3 * B + 5], 4 * B))
    want = jackson_integral(f, 0.0, z2, base) - jackson_integral(f, 0.0, z1, base)
    got = jackson_integral(f, z1, z2, base)
    assert got.shape == (3,) and got.tobytes() == want.tobytes()


def test_jackson_overflow_at_one_endpoint_names_its_node():
    q, z1, z2 = 0.5, -0.35, 0.7
    base = QBase(q)
    lo = _first_small_at(q, [40], 200)
    lo[0, 20] = np.inf
    f = _by_endpoint(z1, z2, q, lo, _first_small_at(q, [60], 200))
    with pytest.raises(NonConvergedError) as alone:
        jackson_integral(f, 0.0, z1, base)
    node = r"near node -3\.338e-07\+0\.000e\+00j .* after 21 nodes"  # z1 q^20
    with pytest.raises(NonConvergedError, match=node) as both:
        jackson_integral(f, z1, z2, base)
    assert str(both.value) == str(alone.value)


def test_big_q_jacobi_weighs_each_jackson_node_once(base):
    # the d_0^2 anchor and the Grams for every N read one set of node
    # weights: one run of factors per factor and endpoint of the one block,
    # for the numerator (2 factors) and the denominator (2), and no
    # pointwise weight
    runs = []
    orbit = families_module.q_pochhammer_orbit

    def recorded(a, base, size):
        runs.append((np.shape(a), size))
        return orbit(a, base, size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families_module, "q_pochhammer_orbit", recorded)
        mp.setattr(FamilySpec, "weight", None)
        fam = make_family("big_q_jacobi", reference_params("big_q_jacobi"), base)
        [fam.norm_sq(n) for n in range(5)]
        gram_matrix(fam, 4)
        gram_matrix(fam, 2)
    assert runs == [((2, 2), _jackson_block(base.q))] * 2


@pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("name", ["asc1", "big_q_jacobi"])
def test_jackson_weight_blocks_equal_the_pointwise_weight(name, q):
    # a pass's weights run each factor from the endpoints: in passes of B and
    # 2B nodes they equal the pointwise weight
    base = QBase(q)
    fam = make_family(name, reference_params(name), base)
    (lo, hi), size = fam.support, _jackson_block(q)
    for n in (size, 2 * size):
        steps = np.full((2, n), q, dtype=complex)
        steps[:, 0] = [complex(lo), complex(hi)]
        nodes = np.cumprod(steps, axis=1)  # z q^k as the sweep forms them
        got, want = fam._jackson_weight(nodes), fam.weight(nodes)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", ["asc1", "big_q_jacobi"])
def test_jackson_gram_over_several_passes(name, q, monkeypatch):
    # with 5 nodes in the first pass the Gram takes several passes, each
    # from the endpoints, and reads the default first pass's Gram
    N, first_nodes = 4, []
    G = gram_matrix(make_family(name, reference_params(name), QBase(q)), N)[0]
    integral = families_module.jackson_integral

    def recorded(f, *args, **kw):
        return integral(lambda x: first_nodes.append(x[:, 0].copy()) or f(x), *args, **kw)

    monkeypatch.setattr(orthogonality, "_jackson_block", lambda q: 5)
    monkeypatch.setattr(families_module, "jackson_integral", recorded)
    fam = make_family(name, reference_params(name), QBase(q))
    got = gram_matrix(fam, N)[0]
    assert len(first_nodes) > 2
    assert all(z.tolist() == list(fam.support) for z in first_nodes)
    assert np.max(np.abs(got - G)) <= 1e-14


@pytest.mark.parametrize("name", ["asc1", "big_q_jacobi"])
def test_jackson_gram_bytes_do_not_depend_on_the_blocks(name):
    # where an entry stops does not depend on how the nodes are blocked; the
    # Gram integrand takes the pointwise weight, which no block boundary moves
    base = QBase(0.8)
    fam = make_family(name, reference_params(name), base)
    d = np.abs(np.array([fam.d_n(n) for n in range(5)]))
    f, scale = lambda x: _outer(fam.pn_stack(4, x)) * fam.weight(x), np.outer(d, d)
    (lo, hi), default = fam.support, orthogonality._jackson_block
    got = []
    for block in (lambda q: 5, default, lambda q: 3 * default(q)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orthogonality, "_jackson_block", block)
            got.append(jackson_integral(f, lo, hi, base, scale=scale).tobytes())
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_reference_jackson_grams_make_one_integrand_call_per_integral(q):
    calls = []
    integral = families_module.jackson_integral

    def counted(f, *args, **kw):
        calls.append(0)

        def g(x):
            calls[-1] += 1
            return f(x)

        return integral(g, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families_module, "jackson_integral", counted)
        for name in ("asc1", "big_q_jacobi"):
            # N = 6: d_6^2 reads 5e-11 (asc1) and 5e-24 (big q-Jacobi) at q = 0.2,
            # so a first block sized for terms of size 1 stops short
            gram_matrix(make_family(name, reference_params(name), QBase(q)), 6)
    assert calls == [1, 1, 1]  # asc1's Gram; big q-Jacobi's d_0^2 anchor and Gram


def test_big_q_jacobi_anchor_settles_on_its_own_sum():
    # d_0^2 = 8.9e-10 on a support of width 2e-9: against a floor of 1 the
    # anchor stopped early and every norm of the ratio route was off by 1.3e-7
    fam = make_family("big_q_jacobi", {"a": 1e-9, "b": 0.5, "c": -1e-9}, QBase(0.5))
    G, _ = gram_matrix(fam, 3)
    assert np.max(np.abs(np.diag(G) - 1.0)) <= 1e-13


def test_jackson_node_cap_equals_node_by_node():
    # terms of size 1 never settle; q = 0.99 keeps the 10^4 nodes finite
    q, z = 0.99, 1.0
    table = _first_small_at(q, [JACKSON_NODE_CAP + 1], JACKSON_NODE_CAP)
    assert _same_outcome(_by_node_index(z, q, table[0]), z, QBase(q)) is None


def test_jackson_nonconvergent_tail_message_equals_node_by_node(base):
    # f = 1/t overflows where z q^k underflows; the nodes past it, in the
    # same block, divide by zero
    assert _same_outcome(lambda t: 1.0 / t, 1.0, base) is None
