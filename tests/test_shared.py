"""What a check run shares across suites: the family's per-n table
(`FamilySpec.coeffs`) and one StencilGrid per distinct (points, margin),
which is one grid on the requested points.

Sharing must not change what a suite reports, must not leak between a family
and its perturbed copy, and must evaluate each shared quantity once.
"""

import collections
import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from qladder import checks, families, hypergeometric_core, ladder
from qladder.checks import SUITE_NAMES, default_grid, run_suite, run_suites
from qladder.families import FamilyError, make_family, reference_params
from qladder.ladder import StencilGrid
from qladder.orthogonality import gram_matrix
from qladder.qkernel import QBase

from conftest import FAMILY_NAMES, REFERENCE_Q
from pointwise import report_to_dict


def _fresh(name, perturbed=False):
    fam = make_family(name, reference_params(name), QBase(REFERENCE_Q))
    return fam.with_perturbation("beta", 1e-3) if perturbed else fam


def _exact(rep) -> str:
    """A report as JSON without its wall time: floats print as repr, so two
    equal strings mean bit-identical residuals and meta."""
    d = report_to_dict(rep)
    d.pop("wall_ms")
    return json.dumps(d)


def _grids(fam):
    return [v for v in fam._cache.values() if isinstance(v, StencilGrid)]


GRIDS = {"default": None, "0.4:2.6:4": (0.4, 2.6, 4)}


def _points(fam, grid):
    """The check points of a `--grid start:stop:count` as the CLI takes them
    (None: the family's default grid)."""
    if grid is None:
        return default_grid(fam)
    start, stop, count = grid
    return [fam.kind.s_from_grid_value(fam, start + (stop - start) * j / (count - 1))
            for j in range(count)]


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("perturbed", [False, True], ids=["plain", "perturbed"])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_suites_on_one_family_equal_suites_on_fresh_families(name, perturbed, grid):
    pts = _points(_fresh(name), grid)
    together = run_suites(_fresh(name, perturbed), "all", s_grid=pts)
    assert [r.suite for r in together] == list(SUITE_NAMES)
    for rep in together:
        alone = run_suite(_fresh(name, perturbed), rep.suite, s_grid=pts)
        assert _exact(rep) == _exact(alone), rep.suite


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_a_check_builds_one_stencil_grid_on_its_points(name, grid, monkeypatch):
    """Every suite on the requested points reads one grid there, margin 2,
    and no point set has two grids (the margin-1 grids are bootstrap's
    chains, the support and the theta grid; concordance's displays read the
    margin-2 grid on the default grid)."""
    fam = _fresh(name)
    pts = tuple(complex(s) for s in _points(fam, grid))
    builds, build = [], StencilGrid.__init__

    def counted_build(self, fam, s_grid, margin):
        builds.append((tuple(complex(s) for s in s_grid), margin))
        build(self, fam, s_grid, margin)

    monkeypatch.setattr(StencilGrid, "__init__", counted_build)
    run_suites(fam, "all", s_grid=pts)
    assert [b for b in builds if b[0] == pts] == [(pts, 2)]
    assert len({points for points, _ in builds}) == len(builds), builds


def test_shared_grid_arrays_are_read_only():
    fam = _fresh("q_dual_hahn")
    run_suites(fam, "all")
    grids = _grids(fam)
    assert grids
    arrays = [v for g in grids for v in vars(g).values() if isinstance(v, np.ndarray)]
    arrays += [row for g in grids for col in g._columns.values() for row in col]
    assert len(arrays) > 20
    assert not any(a.flags.writeable for a in arrays)
    g = StencilGrid.shared(fam, default_grid(fam), 1)
    for a in (g.sigma, g.u(2), g.p(3)):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0


def test_perturbed_copy_has_its_own_table_and_grids():
    fam = _fresh("q_dual_hahn")
    run_suites(fam, "all")
    pert = fam.with_perturbation("beta", 1e-3)
    run_suites(pert, "all")
    assert pert.coeffs is not fam.coeffs
    shared = {id(v) for v in fam._cache.values()} & {id(v) for v in pert._cache.values()}
    assert not shared
    grid = default_grid(fam)
    g0, g1 = StencilGrid.shared(fam, grid, 1), StencilGrid.shared(pert, grid, 1)
    assert g1 is not g0
    t = fam.coeffs
    for n in range(1, 5):
        assert pert.coeffs.beta(n) == t.beta_generic(n) + complex(1e-3)
        assert pert.coeffs.beta(n) != fam.coeffs.beta(n)
        # beta_n enters v(s,n) as -lambda_{2n}/[2n]_q beta_n
        shift = g1.v(n) - g0.v(n)
        np.testing.assert_allclose(shift, -t.lam_ratio(2 * n) * 1e-3, rtol=1e-6)
        # and the recurrence: P_1 = x - beta_0 moves by -1e-3 (monic)
        x = g0.x
        assert not np.array_equal(pert.pn_stack(n, x)[n], fam.pn_stack(n, x)[n])
        assert np.array_equal(g1.p(n), pert.pn_stack(n, x)[n])
        assert np.array_equal(g0.p(n), fam.pn_stack(n, x)[n])
    fresh = StencilGrid.shared(_fresh("q_dual_hahn", perturbed=True), grid, 1)
    assert all(np.array_equal(fresh.v(n), g1.v(n)) for n in range(1, 5))


def test_a_family_its_table_and_its_grids_are_freed_by_reference_counting():
    """Nothing a family caches refers back to it: with the cyclic collector
    off, the family, its per-n table and its stencil grids die with the last
    reference to the family (plain and perturbed, after every suite and, where
    a measure exists, a Gram matrix)."""
    gc.collect()
    gc.disable()
    try:
        alive, grids = [], 0
        for name in FAMILY_NAMES:
            for perturbed in (False, True):
                fam = _fresh(name, perturbed)
                run_suites(fam, "all")
                if fam.support is not None:
                    gram_matrix(fam, 4)
                refs = [weakref.ref(v) for v in (fam, fam.coeffs, *_grids(fam))]
                grids += len(refs) - 2
                del fam
                alive += [(name, perturbed, type(r()).__name__) for r in refs if r() is not None]
    finally:
        gc.enable()
    assert grids >= 12 and not alive, alive


def test_a_replaced_copy_has_its_own_table_norms_and_grids():
    """`dataclasses.replace` starts the copy with nothing cached, so a copy
    on a shorter support reads the norms of its own measure."""
    fam = _fresh("q_dual_hahn")
    grid = default_grid(fam)
    g, d0, M = StencilGrid.shared(fam, grid, 1), fam.norm_sq(0), fam.p_gram(2)[0]
    lo, hi = fam.support
    short = replace(fam, support=(lo, hi - 1))
    assert short.coeffs is not fam.coeffs and not short._cache
    assert StencilGrid.shared(short, grid, 1) is not g
    assert short.norm_sq(0) != d0 and not np.array_equal(short.p_gram(2)[0], M)
    assert fam.norm_sq(0) == d0 and StencilGrid.shared(fam, grid, 1) is g


def _counter(fn, counts, key):
    def counted(*args):
        counts[key(args)] += 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_each_shared_quantity_is_evaluated_once(name, monkeypatch):
    counts = {k: collections.Counter() for k in
              ("lam_ratio", "tau_k_coeffs", "gamma_n", "d_n_sq", "a_n", "norm_sq", "grid")}
    for module in (hypergeometric_core, families, ladder, checks):
        for fn in ("lam_ratio", "tau_k_coeffs"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, _counter(
                    getattr(hypergeometric_core, fn), counts[fn], lambda a: float(a[1])))
    build = StencilGrid.__init__

    def counted_build(self, fam, s_grid, margin):
        counts["grid"][tuple(complex(s) for s in s_grid), margin] += 1
        build(self, fam, s_grid, margin)

    monkeypatch.setattr(StencilGrid, "__init__", counted_build)
    compute = families.FamilySpec._compute

    def counted_compute(self, fn, ns):  # the norm_sq rows, counted per n
        ns = list(ns)
        if fn.__name__ == "norm_sq":
            counts["norm_sq"].update(ns)
        return compute(self, fn, ns)

    monkeypatch.setattr(families.FamilySpec, "_compute", counted_compute)
    fam = _fresh(name)
    one = lambda a: a[0]
    closed = replace(fam.closed, gamma_n=_counter(fam.closed.gamma_n, counts["gamma_n"], one),
                     d_n_sq=_counter(fam.closed.d_n_sq, counts["d_n_sq"], one))
    fam = replace(fam, closed=closed, a_n=_counter(fam.a_n, counts["a_n"], one))
    run_suites(fam, "all")
    for what, counter in counts.items():
        assert counter, what
        assert max(counter.values()) == 1, (what, counter.most_common(3))
    assert len(_grids(fam)) == len(counts["grid"])


def test_the_families_cover_every_norm_route():
    """So the once-per-n count of the `norm_sq` rows above covers both routes."""
    tabulated = {name for name in FAMILY_NAMES if _fresh(name).tabulated_norms}
    assert tabulated == {"asc1", "asc2", "askey_wilson", "continuous_q_hermite"}
    assert set(FAMILY_NAMES) - tabulated == {"big_q_jacobi", "q_dual_hahn"}


def _columns(fam):
    t = fam.coeffs
    return {"lam_ratio": t.lam_ratio, "lambda_n": t.lambda_n, "b_over_a": t.b_over_a,
            "beta_generic": t.beta_generic, "a_n": t.a_n, "B": t.B, "beta": t.beta,
            "gamma_monic": t.gamma_monic, "alpha": t.alpha, "gamma": t.gamma,
            "norm_sq": fam.norm_sq, "d_n": fam.d_n}


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_a_column_reads_python_numbers_and_the_same_bits_as_an_array(name):
    """One n reads a Python number, never a numpy scalar (Python and numpy
    divide complex numbers differently, so scalar arithmetic on a numpy
    scalar could move); an array read, on a table that grows in one step,
    equals the scalar reads on a table grown one n at a time, bit for bit."""
    ns = range(5)
    one_by_one, at_once = _columns(_fresh(name)), _columns(_fresh(name))
    for what, read in one_by_one.items():
        scalars = [read(n) for n in ns]
        assert all(type(v) in (float, complex) for v in scalars), (what, scalars)
        got = at_once[what](np.array(ns)[::-1])[::-1]
        assert got.dtype == complex
        assert repr([complex(v) for v in scalars]) == repr(got.tolist()), what
    t, fresh = _fresh(name).coeffs, _fresh(name).coeffs
    rows = [t.tau(k) for k in ns]
    assert all(type(v) is complex for row in rows for v in row)
    assert repr(rows) == repr([tuple(row) for row in fresh.tau(list(ns)).tolist()])


def test_grid_column_reads_a_stored_row_or_the_rows_stacked():
    fam = _fresh("asc1")
    g = StencilGrid.shared(fam, default_grid(fam), 1)
    stacked = g.p([3, 1, 3])
    assert g.p(3) is g._columns["p"][3]
    for row, n in zip(stacked, (3, 1, 3)):
        assert np.array_equal(row, g.p(n))
    assert stacked.dtype == complex and stacked.shape == (3,) + g.x.shape


def test_a_negative_n_is_refused():
    """The table, the norms and the grid have no row below n = 0 (P_{-1}
    would read P_0, gamma_{-1} and d_{-1} a value of no formula)."""
    asc1, qdh = _fresh("asc1"), _fresh("q_dual_hahn")
    g = StencilGrid.shared(asc1, default_grid(asc1), 1)
    reads = (lambda: asc1.coeffs.gamma(-1), lambda: g.p(np.array([-1])), lambda: g.u(-1),
             lambda: qdh.d_n(-1), lambda: qdh.norm_sq([0, -1]), lambda: qdh.coeffs.beta(-1))
    for read in reads:
        with pytest.raises(IndexError):
            read()


def test_a_norm_beyond_a_finite_family_raises_and_keeps_its_column():
    fam = _fresh("q_dual_hahn")
    top = fam.n_max
    lower = fam.d_n(range(top)).tolist()
    for _ in range(2):
        with pytest.raises(FamilyError, match="beyond the finite family"):
            fam.d_n(top + 1)
    assert repr(fam.d_n(range(top)).tolist()) == repr(lower)
    assert repr(fam.d_n(range(top + 1)).tolist()) == repr(
        _fresh("q_dual_hahn").d_n(range(top + 1)).tolist())
