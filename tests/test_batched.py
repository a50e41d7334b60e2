"""The ladder suites form the residuals of every n at once, on arrays over
n; the point-by-point references in tests/pointwise.py form them one n and
one point at a time.  Both must give the same cases, and a run must not
compute more StencilGrid coefficient arrays when it checks more n.
"""

import collections

import pytest

from qladder.checks import run_suite, run_suites
from qladder.families import make_family, reference_params
from qladder.ladder import StencilGrid
from qladder.qkernel import QBase

import pointwise as pw
from conftest import FAMILY_NAMES, REFERENCE_Q, assert_matches_reference

BATCHED = ("eigen", "ttrr_phi", "raising", "lowering", "uv_shift", "h_remark",
           "h_s_independence", "factorization", "poly_ladder", "bootstrap")
NS = range(1, 11)


def _family(name, perturbed):
    fam = make_family(name, reference_params(name), QBase(REFERENCE_Q))
    return fam.with_perturbation("beta", 1e-3) if perturbed else fam


@pytest.mark.parametrize("perturbed", [False, True], ids=["plain", "perturbed"])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_case_matches_the_pointwise_reference(name, perturbed):
    fam = _family(name, perturbed)
    for suite in BATCHED:
        got = run_suite(fam, suite, ns=NS).cases
        want = pw.run_suite_cases(_family(name, perturbed), suite, NS)
        assert [(c.n, c.s, c.note) for c in got] == [w[:2] + w[3:] for w in want], suite
        for case, (_, _, residual, _) in zip(got, want):
            assert_matches_reference(case.residual, residual, name)


def _array_computations(name, ns, monkeypatch):
    """{(grid in build order, array): coefficient-array computations} over
    run_suites(fam, "all") with the n range ns."""
    order, counts = {}, collections.Counter()
    build, compute = StencilGrid.__init__, StencilGrid._compute

    def counted_build(self, *args):
        order[id(self)] = len(order)
        build(self, *args)

    def counted_compute(self, fn, n):
        counts[order[id(self)], fn.__name__] += 1
        return compute(self, fn, n)

    monkeypatch.setattr(StencilGrid, "__init__", counted_build)
    monkeypatch.setattr(StencilGrid, "_compute", counted_compute)
    run_suites(_family(name, False), "all", ns=ns)
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_array_computations_do_not_grow_with_n(name, monkeypatch):
    few = _array_computations(name, range(1, 4), monkeypatch)
    many = _array_computations(name, range(1, 9), monkeypatch)
    assert few and few == many
