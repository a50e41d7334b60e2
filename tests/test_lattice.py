import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qladder import checks, cli
from qladder.families import make_family, reference_params
from qladder.ladder import StencilGrid
from qladder.lattice import DegenerateStepError, Lattice, LatticeTable
from qladder.qkernel import QBase, QKernelError, q_factorial, q_number

from conftest import FAMILY_NAMES, assert_matches_reference

from pointwise import (
    GridFunction,
    backward_diff,
    delta_x,
    forward_diff,
    kfold_forward_diff,
    nabla_x,
    nfold_backward_chain,
)

B = QBase(0.5)
EXP = Lattice(1.0, 0.0, 0.0, B)  # x(s) = q^s
AW = Lattice(0.5, 0.5, 0.0, B)  # x(s) = (q^s + q^{-s})/2


def theta_point(theta):
    return complex(0.0, 1.0) * theta / math.log(B.q)


def test_x_exponential():
    for s in (0.0, 0.7, -1.3):
        assert EXP.x(s) == pytest.approx(B.q**s, rel=1e-15)


def test_x_trigonometric_is_cosine():
    for theta in (0.4, 1.1, 2.7):
        s = theta_point(theta)
        assert AW.x(s) == pytest.approx(math.cos(theta), abs=1e-14)


def test_degenerate_lattice_rejected():
    with pytest.raises(QKernelError, match="degenerate"):
        Lattice(0.0, 0.0, 1.0, B)


def test_x_shifted():
    assert AW.x_shifted(0.0, 0.9) == pytest.approx(AW.x(0.9))
    # shift algebra x_k(s+1) = x_{k+2}(s), exact
    for k in (0.0, 1.0, 0.5, 3.5):
        for s in (0.3, 1.7):
            assert AW.x_shifted(k, s + 1.0) == AW.x_shifted(k + 2.0, s)
    # c1=1, c2=c3=0, k=1: q^{1/2} q^s
    s = 0.8
    assert EXP.x_shifted(1.0, s) == pytest.approx(math.sqrt(B.q) * B.q**s, rel=1e-14)


def test_delta_x_mid():
    s = 0.6
    want = B.q**s * (math.sqrt(B.q) - 1 / math.sqrt(B.q))
    assert EXP.delta_x_mid(s) == pytest.approx(want, rel=1e-14)
    # equals the unit step of the shifted lattice
    assert EXP.delta_x_mid(s + 0.5) == pytest.approx(delta_x(EXP, s), rel=1e-14)
    # theta = 0 on the trigonometric lattice is the flagged degenerate point
    assert abs(AW.delta_x_mid(theta_point(0.0))) < 1e-15


def test_forward_and_backward_diff_basics():
    f = GridFunction(EXP, lambda s: EXP.x(s))
    assert forward_diff(f, 0.4) == pytest.approx(1.0, rel=1e-14)
    assert backward_diff(f, 0.4) == pytest.approx(1.0, rel=1e-14)
    const = GridFunction(EXP, lambda s: 3.25)
    assert forward_diff(const, 0.4) == pytest.approx(0.0, abs=1e-14)


def test_forward_diff_of_x_squared():
    # Delta(x^2)/Delta x = [2]_q x_1(s) + (2 - [2]_q) c3
    two = q_number(2.0, B)
    for lat, c3 in ((EXP, 0.0), (Lattice(1.0, 0.25, 0.7, B), 0.7)):
        f = GridFunction(lat, lambda s: lat.x(s) ** 2)
        for s in (0.35, 1.6):
            want = two * lat.x_shifted(1.0, s) + (2.0 - two) * c3
            assert forward_diff(f, s) == pytest.approx(want, rel=1e-13)


def test_degenerate_step_flagged():
    f = GridFunction(AW, lambda s: AW.x(s))
    with pytest.raises(DegenerateStepError):
        forward_diff(f, theta_point(0.0) - 0.5)  # Delta x(-1/2) = x(1/2)-x(-1/2) = 0


def test_kfold_trivial_and_degree_drop():
    f = GridFunction(EXP, lambda s: EXP.x(s) ** 3)
    assert kfold_forward_diff(f, 0, 0.3) == pytest.approx(EXP.x(0.3) ** 3)
    assert abs(kfold_forward_diff(f, 4, 0.3)) < 1e-12


@pytest.mark.parametrize("lat", [EXP, Lattice(1.0, 0.25, -0.3, B), AW])
def test_exact_form_of_nminus1_fold(lat):
    # Delta^{(n-1)} x^n = [n]_q! x_{n-1}(s) + c3 [n-1]_q! (n - [n]_q)
    for n in range(1, 7):
        f = GridFunction(lat, lambda s, n=n: lat.x(s) ** n)
        for s in (0.27, 1.44):
            got = kfold_forward_diff(f, n - 1, s)
            want = q_factorial(n, B) * lat.x_shifted(n - 1.0, s) + complex(
                lat.c3
            ) * q_factorial(n - 1, B) * (n - q_number(float(n), B))
            assert got == pytest.approx(want, rel=1e-11)


def _divided_difference(xs, ys):
    co = list(ys)
    for level in range(1, len(xs)):
        for j in range(len(xs) - level):
            co[j] = (co[j + 1] - co[j]) / (xs[j + level] - xs[j])
    return co[0]


@pytest.mark.parametrize("lat", [EXP, AW])
def test_leading_term_of_kfold(lat):
    # Delta^{(k)} x^n - [n]_q!/[n-k]_q! x_k^{n-k} has degree <= n-k-1 in x_k:
    # its (n-k)-th divided difference over n-k+1 nodes vanishes
    for n in range(2, 7):
        for k in range(1, n):
            f = GridFunction(lat, lambda s, n=n: lat.x(s) ** n)
            lead = q_factorial(n, B) / q_factorial(n - k, B)
            nodes = [0.31 + 0.4 * j for j in range(n - k + 1)]
            xs = [lat.x_shifted(float(k), s) for s in nodes]
            gs = [
                kfold_forward_diff(f, k, s) - lead * lat.x_shifted(float(k), s) ** (n - k)
                for s in nodes
            ]
            resid = _divided_difference(xs, gs)
            scale = abs(_divided_difference(xs, [lead * x ** (n - k) for x in xs]))
            assert abs(resid) <= 1e-10 * max(scale, 1e-12)


def test_nfold_backward_chain_basics():
    f = GridFunction(EXP, lambda s: EXP.x_shifted(1.0, s))
    assert nfold_backward_chain(f, 1, 0.8) == pytest.approx(1.0, rel=1e-13)
    const = GridFunction(EXP, lambda s: 2.0)
    assert abs(nfold_backward_chain(const, 1, 0.8)) < 1e-14


def test_nfold_backward_chain_against_brute_force():
    # independent brute-force expansion of the nested quotients
    lat = Lattice(1.0, 0.3, 0.2, B)

    def brute(fn, n, s):
        # before processing level L the values live on offsets -L .. 0
        vals = {j: fn(complex(s) + j) for j in range(-n, 1)}
        for level in range(n, 0, -1):
            new = {}
            for j in range(-level + 1, 1):
                step = lat.x_shifted(float(level), complex(s) + j) - lat.x_shifted(
                    float(level), complex(s) + j - 1
                )
                new[j] = (vals[j] - vals[j - 1]) / step
            vals = new
        return vals[0]

    fn = lambda s: lat.x(s) ** 3 + 2.0 * lat.x(s)
    g = GridFunction(lat, fn)
    for n in (1, 2, 3):
        for s in (0.4, 1.1, 2.3, -0.7, 3.6):
            assert nfold_backward_chain(g, n, s) == pytest.approx(
                brute(fn, n, s), rel=1e-11
            )


@given(st.floats(min_value=-1.5, max_value=2.5), st.floats(min_value=-1.5, max_value=2.5))
@settings(max_examples=30)
def test_product_rule(sa, sb):
    # forward_diff(f g)(s) = f(s+1) forward_diff(g)(s) + g(s) forward_diff(f)(s)
    lat = Lattice(1.0, 0.2, -0.4, B)
    f = lambda s: lat.x(s) ** 2 + 1.0
    g = lambda s: lat.x(s) ** 3 - 0.5 * lat.x(s)
    s = 0.3 + 0.41 * sa + 0.13 * sb
    fg = GridFunction(lat, lambda t: f(t) * g(t))
    lhs = forward_diff(fg, s)
    rhs = f(complex(s) + 1.0) * forward_diff(GridFunction(lat, g), s) + g(s) * forward_diff(
        GridFunction(lat, f), s
    )
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_forward_fold_matches_pointwise(name, q):
    # the rows of the difference_calculus suite: its grid and lemma nodes
    fam = make_family(name, reference_params(name), QBase(q))
    lat = fam.lattice
    rows = [complex(s) for s in checks.default_grid(fam, 3)]
    rows += [rows[0] + 0.35 * j for j in range(1, 6)]
    table = LatticeTable(lat, rows, 0, 14)
    powers = np.array([[[lat.x(s + j) ** n for j in range(8)] for n in range(1, 7)]
                       for s in rows])
    folds = table.forward(powers, 7)
    for k, fold in enumerate(folds):
        for r, s in enumerate(rows):
            for n in range(1, 7):
                f = GridFunction(lat, lambda t, n=n: lat.x(t) ** n)
                assert_matches_reference(complex(fold[r, n - 1, 0]),
                                         kfold_forward_diff(f, k, s), name)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_backward_fold_matches_pointwise(name, q):
    # chains of every length 1..4 ending at each of three points, one fold
    fam = make_family(name, reference_params(name), QBase(q))
    lat = fam.lattice
    s0 = complex(checks.default_grid(fam, 1)[0])
    f = lambda t: lat.x(t) ** 3 - 2.0 * lat.x(t)
    table = LatticeTable(lat, [s0], -8, 8)
    ends = np.arange(3)[:, None]
    vals = np.array([[[f(s0 + e - 4 + i) for i in range(5)] for n in range(1, 5)]
                     for e in range(3)])
    chains = table.backward(vals[None], np.arange(1, 5), ends)
    for e in range(3):
        for n in range(1, 5):
            want = nfold_backward_chain(GridFunction(lat, f), n, s0 + e)
            assert_matches_reference(complex(chains[n][0, e, n - 1, -1]), want, name)


# the q-dual Hahn reference lattice is symmetric about s = -1/2: nabla x(0) = 0
QDH = make_family("q_dual_hahn", reference_params("q_dual_hahn"), QBase(0.5)).lattice


def test_forward_fold_raises_only_where_a_read_step_vanishes():
    assert QDH.is_degenerate_step(nabla_x(QDH, 0.0))
    f = GridFunction(QDH, lambda s: QDH.x(s) ** 3)
    vals = np.array([[f(-2.0 + j) for j in range(4)]])
    table = LatticeTable(QDH, [-2.0], 0, 8)
    # Delta x(-1) = x(0) - x(-1) is read from depth 2 on
    with pytest.raises(DegenerateStepError):
        kfold_forward_diff(f, 2, -2.0)
    with pytest.raises(DegenerateStepError, match=re.escape("x(0j) - x((-1+0j))")):
        table.forward(vals, 2)
    # depth 1 reads Delta x(-2) only; the stacked entries that divide by
    # the vanishing step are formed but not read
    assert table.forward(vals, 1)[1][0, 0] == kfold_forward_diff(f, 1, -2.0)


def test_backward_fold_raises_only_where_a_read_step_vanishes():
    f = GridFunction(QDH, lambda s: QDH.x(s) ** 3)
    vals = np.array([[f(-3.0 + i) for i in range(4)]])
    table = LatticeTable(QDH, [0.0], -8, 8)
    # nabla x_2(-1) = x(0) - x(-1) is read by every chain of length >= 2
    with pytest.raises(DegenerateStepError):
        nfold_backward_chain(f, 2, 0.0)
    with pytest.raises(DegenerateStepError, match=re.escape("x(0j) - x((-1+0j))")):
        table.backward(vals, 2)
    with pytest.raises(DegenerateStepError):
        table.backward(vals[:, None], np.array([1, 2]))
    # a chain of length 1 stacked on four values: its unread depth-2
    # entries divide by x(0) - x(-1)
    assert table.backward(vals, 1)[1][0, -1] == nfold_backward_chain(f, 1, 0.0)


def test_a_non_finite_x_table_raises():
    # q^s overflows on the exponential lattice; on the trigonometric one
    # q^s underflows to 0 and q^{-s} divides by it
    with pytest.raises(ArithmeticError):
        LatticeTable(EXP, [0.0, -2000.0], 0, 2)
    with pytest.raises(ArithmeticError):
        LatticeTable(AW, [2000.0], -1, 1)


@pytest.mark.parametrize("q", [0.05, 0.2, 0.5, 0.8])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_x_table_equals_the_scalar_x_bit_for_bit(name, q, monkeypatch, tmp_path):
    # the x tables of the rodrigues, pearson, difference_calculus and eval
    # paths and of a StencilGrid are one array call each; every entry must
    # equal Lattice.x at its point in every bit
    fam = make_family(name, reference_params(name), QBase(q))
    tables, init = [], LatticeTable.__init__

    def recording(self, *args):
        init(self, *args)
        tables.append((path, self))

    monkeypatch.setattr(LatticeTable, "__init__", recording)
    for path in ("rodrigues", "pearson", "difference_calculus"):
        try:
            checks.run_suite(fam, path)
        except (ValueError, ArithmeticError):
            pass  # at small q some suites refuse; the tables built so far are checked
    path = "eval"
    argv = ["eval", "--family", name, "--q", str(q), "--out", str(tmp_path / "eval.json")]
    for k, v in reference_params(name).items():
        argv += ["--param", f"{k}={v!r}"]
    cli.main(argv)
    path = "grid"
    grid = StencilGrid(fam, checks.default_grid(fam), 2)
    paths = {"rodrigues", "pearson", "difference_calculus", "eval", "grid"}
    if fam.closed.weight is None:
        paths.remove("pearson")  # skipped: no closed-form weight
    assert {p for p, _ in tables} == paths
    assert [t.x is grid._x_half for p, t in tables if p == "grid"] == [True]
    for path, table in tables:
        h = np.arange(table.h_lo, table.h_lo + table.x.shape[1])
        want = np.array([[fam.lattice.x(s + k / 2.0) for k in h.tolist()]
                         for s in table.rows.tolist()])
        assert np.array_equal(table.x.view(np.uint64), want.view(np.uint64)), (path, table.rows)
