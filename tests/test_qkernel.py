import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qladder.qkernel import (
    NonConvergedError,
    QBase,
    QKernelError,
    alpha_q,
    basic_hypergeometric,
    q_factorial,
    q_number,
    q_pochhammer,
    q_pochhammer_inf,
    q_pochhammer_multi,
    q_pochhammer_orbit,
)

import pointwise as pw

B25 = QBase(0.25)
B50 = QBase(0.5)

bases = st.floats(min_value=0.05, max_value=0.95).map(QBase)
ks = st.floats(min_value=-20.0, max_value=20.0)


def test_qbase_validation():
    with pytest.raises(QKernelError):
        QBase(0.0)
    with pytest.raises(QKernelError):
        QBase(-0.3)
    with pytest.raises(QKernelError):
        QBase(1.0)
    assert QBase(1.7).allows_infinite_products is False
    assert QBase(0.7).allows_infinite_products is True


def test_q_number_values():
    assert q_number(0.0, B25) == pytest.approx(0.0, abs=1e-15)
    assert q_number(1.0, B25) == pytest.approx(1.0, rel=1e-15)
    # q^{1/2} + q^{-1/2} = 0.5 + 2 at q = 1/4
    assert q_number(2.0, B25) == pytest.approx(2.5, rel=1e-14)


def test_alpha_q_values():
    assert alpha_q(0.0, B25) == pytest.approx(1.0, rel=1e-15)
    assert alpha_q(2.0, B25) == pytest.approx(2.125, rel=1e-14)


@given(bases, ks)
def test_q_number_odd(base, k):
    assert abs(q_number(k, base) + q_number(-k, base)) < 1e-13 * max(1.0, abs(q_number(k, base)))


@given(bases, ks)
def test_alpha_q_even_and_at_least_one(base, k):
    a, b = alpha_q(k, base), alpha_q(-k, base)
    assert a == pytest.approx(b, rel=1e-13)
    assert a >= 1.0 - 1e-13


@given(bases, st.floats(min_value=-10, max_value=10))
def test_q_number_duplication(base, k):
    # [2k]_q = 2 [k]_q alpha_q(k)
    lhs = q_number(2 * k, base)
    rhs = 2.0 * q_number(k, base) * alpha_q(k, base)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_q_factorial():
    assert q_factorial(0, B25) == 1.0
    assert q_factorial(1, B25) == pytest.approx(1.0)
    want = q_number(1.0, B25) * q_number(2.0, B25) * q_number(3.0, B25)
    assert q_factorial(3, B25) == pytest.approx(want, rel=1e-15)
    with pytest.raises(QKernelError):
        q_factorial(-1, B25)


def test_q_pochhammer_small_cases():
    assert q_pochhammer(0.7, B50, 0) == 1.0
    assert q_pochhammer(B50.q, B50, 1) == pytest.approx(1 - 0.5)
    assert q_pochhammer(0.5, B50, 2).real == pytest.approx(0.375, rel=1e-15)


@given(bases, st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
       st.integers(min_value=0, max_value=20))
def test_q_pochhammer_recurrence_exact(base, a, k):
    # (a;q)_{k+1} = (a;q)_k (1 - a q^k), exact for the incremental q-power
    # the evaluation itself forms
    aqk = complex(a)
    for _ in range(k):
        aqk *= base.q
    lhs = q_pochhammer(a, base, k + 1)
    rhs = q_pochhammer(a, base, k) * (1 - aqk)
    assert lhs == rhs


def test_q_pochhammer_inf_against_truncation():
    val = q_pochhammer_inf(0.5, B50)
    oracle = q_pochhammer(0.5, B50, 50)
    assert abs(val - oracle) <= 1e-12 * abs(oracle)
    assert q_pochhammer_inf(0.0, B50) == 1.0


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


def _numbers_and_array(a, base):
    """The kernel's (a;q)_inf of each element of `a` as a number, and of `a` as one array."""
    numbers = [q_pochhammer_inf(complex(v), base) for v in a.ravel()]
    assert all(type(v) is complex for v in numbers)
    return _bits(numbers), _bits(q_pochhammer_inf(a, base))


@pytest.mark.parametrize("q", [0.5, 0.1, 0.83])
def test_q_pochhammer_inf_array_equals_scalar_bit_for_bit(q):
    # mixed truncation lengths in one array, |a| < tol, a = 0, complex a and,
    # at q = 1/2, the zero factor of a = q^-3; the 2-d shape is kept.  Both
    # the numbers and the array equal the oracle's one-factor-at-a-time loop
    base = QBase(q)
    a = np.array([[0.3, -2.7, 1e-17, 0.0, 5.0, 123.4],
                  [-0.999, 1e-3, 8.0, -40.0, 0.75, 1e-15],
                  [0.37 - 0.2j, -2.5 + 1.25j, 1e-3 + 0.7j, -0.05 - 0.04j, 6.0 + 0.5j, 0.9j]])
    got = q_pochhammer_inf(a, base)
    assert got.shape == a.shape
    want = _bits([pw.q_pochhammer_inf(v, base) for v in a.ravel()])
    assert _numbers_and_array(a, base) == (want, want)
    if q == 0.5:
        assert got[1, 2] == 0.0


def test_q_pochhammer_inf_equals_the_oracle_on_random_arguments():
    # 2025 real and complex arguments of modulus up to 50 at q = 0.05..0.95
    rng = np.random.default_rng(30)
    for q in np.linspace(0.05, 0.95, 9):
        base = QBase(float(q))
        a = rng.normal(size=225) * 10.0 ** rng.uniform(-3, 1.7, size=225)
        a = a + np.where(np.arange(225) % 2, 1j, 0.0) * rng.normal(size=225)
        want = _bits([pw.q_pochhammer_inf(v, base) for v in a])
        assert _numbers_and_array(a, base) == (want, want)


def test_q_pochhammer_inf_array_in_several_blocks():
    # 1500 elements at q = 0.9 need about 350 factors, more than one block holds
    base = QBase(0.9)
    a = np.linspace(-3.0, 3.0, 1500) + np.where(np.arange(1500) % 3, 0.0, 0.25j)
    want = _bits([pw.q_pochhammer_inf(v, base) for v in a])
    assert _numbers_and_array(a, base) == (want, want)


def test_q_pochhammer_inf_array_non_finite_errors():
    base = QBase(0.5)
    # the product overflows: scalar and array raise the same error
    with pytest.raises(QKernelError, match="not finite"):
        q_pochhammer_inf(1e200, base)
    with pytest.raises(QKernelError, match="not finite"):
        q_pochhammer_inf(np.array([0.5, 1e200]), base)


@pytest.mark.parametrize("a, q", [(math.nan, 0.5), (math.inf, 0.5), (1.0, 1.0 - 1e-7)])
def test_a_run_that_never_ends_is_refused_before_any_factor(a, q, monkeypatch):
    # a non-finite a never truncates, and 1 - 1e-7 needs about 4e8 factors:
    # both refused from max|a| and q, for a number and an array alike
    import qladder.qkernel as qk

    orbits = []
    orbit = qk._q_orbit
    monkeypatch.setattr(qk, "_q_orbit", lambda *args: orbits.append(args) or orbit(*args))
    base = QBase(q)
    for value in (a, np.array([0.5, a])):
        with pytest.raises(NonConvergedError, match="did not truncate within"):
            q_pochhammer_inf(value, base)
    assert orbits == []


@pytest.mark.parametrize("q", [0.5, 0.1, 0.83])
def test_q_pochhammer_multi_is_one_stacked_pass_equal_to_the_oracle(q, monkeypatch):
    # numbers, or arrays with a number broadcast against them: one
    # q_pochhammer_inf call on the stacked parameters, and every entry the
    # product, from 1 in parameter order, of the oracle's (a_i;q)_inf
    import qladder.qkernel as qk

    base = QBase(q)
    x = np.array([[0.3, -2.7, 1e-17], [0.0, 5.0, -0.999]])
    passes = []
    product = qk.q_pochhammer_inf
    monkeypatch.setattr(qk, "q_pochhammer_inf",
                        lambda a, *rest: passes.append(a.shape) or product(a, *rest))

    def oracle(values):
        out = complex(1.0)
        for v in values:
            out *= pw.q_pochhammer_inf(v, base)
        return out

    values = (x, 0.45, -3.0 * x, np.array([1.5, -0.2, 8.0]))
    got = q_pochhammer_multi(values, base)
    assert passes == [(4, 2, 3)] and got.shape == x.shape
    want = [oracle([np.broadcast_to(v, x.shape)[index] for v in values])
            for index in np.ndindex(x.shape)]
    assert _bits(got) == _bits(want)
    numbers = (0.3, -2.7 + 0.5j, 0.0, 8.0, 0.45)
    got = q_pochhammer_multi(numbers, base)
    assert passes[1:] == [(5,)] and type(got) is complex
    assert _bits(got) == _bits(oracle(numbers))


def test_q_pochhammer_multi_array_non_finite_errors():
    base = QBase(0.5)
    with pytest.raises(NonConvergedError):
        q_pochhammer_multi((np.array([0.5, 0.25]), np.nan), base)
    with pytest.raises(QKernelError, match="not finite"):
        q_pochhammer_multi((np.array([0.5, 0.25]), 1e200), base)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
def test_q_pochhammer_orbit_equals_each_node_product(q):
    # (a q^k;q)_inf at the nodes a q^k of one run; a = 1 is big q-Jacobi's
    # (x/c;q)_inf at x = c, whose first factor vanishes; 40 at q = 0.9 needs
    # a run longer than the nodes, 1e-17 none at all
    base, size = QBase(q), 60
    a = np.array([[1.0, 0.37 - 0.2j, -2.5], [40.0, -0.999, 1e-17]])
    got = q_pochhammer_orbit(a, base, size)
    assert got.shape == a.shape + (size,) and got[0, 0, 0] == 0.0
    for index in np.ndindex(a.shape):
        node = complex(a[index])
        for k in range(size):
            want = pw.q_pochhammer_inf(node, base)
            assert abs(got[index + (k,)] - want) <= 1e-14 * abs(want)
            node *= q


def test_q_pochhammer_orbit_refuses_what_the_product_refuses():
    with pytest.raises(QKernelError, match="q<1"):
        q_pochhammer_orbit(np.array([0.5]), QBase(1.1), 4)
    with pytest.raises(NonConvergedError):
        q_pochhammer_orbit(np.array([0.5, np.inf]), B50, 4)
    with pytest.raises(QKernelError, match="not finite"):
        q_pochhammer_orbit(np.array([0.5, 1e200]), B50, 4)
    # past the factor cap: 1 - 1e-7 needs about 4e8 factors
    with pytest.raises(NonConvergedError, match="within"):
        q_pochhammer_orbit(np.array([1.0]), QBase(1.0 - 1e-7), 3)


def test_qbase_pow_array_equals_scalar():
    base = QBase(0.3)
    e = np.array([0.5, -2.25, 3.0 + 0.0j, 1.5 - 0.7j])
    assert _bits(base.pow(e)) == _bits([base.pow(complex(v)) for v in e])


def test_q_pochhammer_inf_requires_q_below_one():
    with pytest.raises(QKernelError, match="q<1"):
        q_pochhammer_inf(0.5, QBase(1.1))


def test_series_n_zero_terminates_to_one():
    assert basic_hypergeometric(0, (), (), 2.7, B50) == 1.0


def test_series_two_term_hand_expansion():
    # 1phi0 with upper q^{-1}: 1 + (1 - q^{-1}) z / (1 - q)
    q = 0.5
    z = 0.7
    want = 1 + (1 - 1 / q) * z / (1 - q)
    assert basic_hypergeometric(1, (), (), z, B50) == pytest.approx(want, rel=1e-14)


def test_series_lower_parameter_guard():
    q = 0.5
    # lower parameter q^{-2} hits zero in the denominator at k = 2 < n
    with pytest.raises(QKernelError, match="division by zero"):
        basic_hypergeometric(5, (0.3,), (q**-2,), 0.4, B50)


def _first_scalar_failure(ns, upper, lower, z, base):
    """The error of the scalar loop's first failing entry, n outer and point
    inner: upper, lower and z hold one value per point."""
    for n in ns:
        for j in range(len(z)):
            try:
                pw.basic_hypergeometric(n, [a[j] for a in upper], [b[j] for b in lower], z[j], base)
            except QKernelError as e:
                return type(e), str(e)
    return None


def test_batched_series_equals_the_scalar_loop_bit_for_bit():
    # an n column against a row of real parameter sets: every entry is the
    # scalar loop's value, bits and signed zeros included
    rng = np.random.default_rng(5)
    for q in (0.2, 0.5, 0.8):
        base = QBase(q)
        upper = rng.uniform(-3.0, 3.0, size=(2, 9))
        lower = rng.uniform(-3.0, 3.0, size=(1, 9))
        z = rng.uniform(-2.0, 2.0, size=9)
        ns = np.arange(11)[:, None]
        for power in ((upper, lower), (upper[:1], lower), (upper, ())):  # s - r + 1 = -1, 0, -2
            got = basic_hypergeometric(ns, tuple(power[0]), tuple(power[1]), z, base)
            want = [[pw.basic_hypergeometric(n, power[0][:, j], [b[j] for b in power[1]], z[j],
                                             base) for j in range(9)] for n in range(11)]
            assert _bits(got) == _bits(want)


def test_batched_series_on_complex_data_within_rounding():
    # a product of two complex factors may round apart (a fused multiply-add)
    rng = np.random.default_rng(6)
    base = QBase(0.6)
    upper = rng.uniform(-2.0, 2.0, size=9) + 1j * rng.uniform(-2.0, 2.0, size=9)
    lower = rng.uniform(-2.0, 2.0, size=9) + 1j * rng.uniform(-2.0, 2.0, size=9)
    z = rng.uniform(-1.0, 1.0, size=9) + 1j * rng.uniform(-1.0, 1.0, size=9)
    got = basic_hypergeometric(np.arange(11)[:, None], (upper,), (lower,), z, base)
    for n in range(11):
        for j in range(9):
            want = pw.basic_hypergeometric(n, (upper[j],), (lower[j],), z[j], base)
            assert abs(got[n, j] - want) <= 1e-13 * max(1.0, abs(want)), (n, j)


def test_q_pochhammer_over_an_order_array_equals_the_scalar_bit_for_bit():
    base = QBase(0.7)
    a = np.array([0.3, -1.7, 2.5, 0.0])
    k = np.arange(9)[:, None]
    want = [[q_pochhammer(float(v), base, m) for v in a] for m in range(9)]
    assert _bits(q_pochhammer(a, base, k)) == _bits(want)
    with pytest.raises(QKernelError, match="nonnegative"):
        q_pochhammer(0.3, base, np.array([2, -1]))


def test_batched_series_raises_the_scalar_loops_first_failure():
    q = 0.5
    # the lower parameter q^{-4} is reached only from n = 5, q^{-2} from n = 3
    ns, lower, upper = (1, 3, 5), [np.array([q**-4, q**-2])], [np.array([0.3, 0.3])]
    want = _first_scalar_failure(ns, upper, lower, [0.4, 0.4], B50)
    assert want == (QKernelError, "lower parameter (4+0j) hits q^{-2}: division by zero in series")
    with pytest.raises(QKernelError) as err:
        basic_hypergeometric(np.array(ns)[:, None], upper, lower, 0.4, B50)
    assert (type(err.value), str(err.value)) == want
    # an overflowing sum: the first non-finite entry, as require_finite names it
    z = [1e160, 1e170]
    want = _first_scalar_failure((2, 4), upper, (), z, B50)
    assert want[1].startswith("basic hypergeometric series is not finite")
    with pytest.raises(QKernelError) as err:
        basic_hypergeometric(np.array([[2], [4]]), upper, (), np.array(z), B50)
    assert (type(err.value), str(err.value)) == want


# Closed forms of terminating series (Gasper & Rahman, Basic Hypergeometric
# Series, 2nd ed., appendix II), checked against products written out here
# rather than through qkernel.

def _poch(a, q, k):
    return math.prod(1.0 - a * q**j for j in range(k))


def _series_terms(n, upper, lower, z, q):
    """|term k| of _r phi_s(q^{-n}, upper; lower; q, z), k = 0..n."""
    upper = (q**-n,) + tuple(upper)
    power = len(lower) - len(upper) + 1
    return [abs(math.prod(_poch(a, q, k) for a in upper)
                / math.prod(_poch(b, q, k) for b in (q,) + tuple(lower))
                * z**k * ((-1) ** k * q ** (k * (k - 1) / 2)) ** power)
            for k in range(n + 1)]


def _closed_form_cases(seed, count=300):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q = rng.uniform(0.05, 0.95)
        n = int(rng.integers(0, 11))
        params = rng.uniform(0.2, 3.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        yield q, n, params


def _worst_relative_to_terms(cases):
    """The largest and the median |series - closed form| / sum of |terms|."""
    errors = [abs(got - want) / math.fsum(terms) for got, want, terms in cases]
    return max(errors), float(np.median(errors))


def test_series_q_chu_vandermonde():
    # II.6: 2phi1(q^{-n}, b; c; q, q) = (c/b;q)_n / (c;q)_n b^n
    cases = []
    for q, n, (b, c, _) in _closed_form_cases(1):
        want = _poch(c / b, q, n) / _poch(c, q, n) * b**n
        got = basic_hypergeometric(n, (b,), (c,), q, QBase(q))
        cases.append((got, want, _series_terms(n, (b,), (c,), q, q)))
    worst, median = _worst_relative_to_terms(cases)
    assert worst <= 1e-13 and median <= 1e-15


def test_series_q_pfaff_saalschutz():
    # II.12: 3phi2(q^{-n}, a, b; c, a b q^{1-n}/c; q, q)
    #        = (c/a, c/b;q)_n / (c, c/(a b);q)_n
    cases = []
    for q, n, (a, b, c) in _closed_form_cases(2):
        lower = (c, a * b * q ** (1 - n) / c)
        want = (_poch(c / a, q, n) * _poch(c / b, q, n)
                / (_poch(c, q, n) * _poch(c / (a * b), q, n)))
        got = basic_hypergeometric(n, (a, b), lower, q, QBase(q))
        cases.append((got, want, _series_terms(n, (a, b), lower, q, q)))
    worst, median = _worst_relative_to_terms(cases)
    assert worst <= 1e-13 and median <= 1e-15


def test_series_q_hermite_is_the_q_binomial_sum():
    # the 2phi0 case (s - r + 1 = -1): H_n(cos theta|q) = sum_k [n k]_q e^{i(n-2k) theta}
    from qladder.families import eval_series, make_family

    rng = np.random.default_rng(3)
    cases = []
    for _ in range(200):
        q, n, theta = rng.uniform(0.05, 0.95), int(rng.integers(0, 11)), rng.uniform(0.0, math.pi)
        binomials = [_poch(q, q, n) / (_poch(q, q, k) * _poch(q, q, n - k)) for k in range(n + 1)]
        want = sum(c * cmath.exp(1j * (n - 2 * k) * theta) for k, c in enumerate(binomials))
        got = eval_series(make_family("continuous_q_hermite", {}, QBase(q)), n, theta)
        cases.append((got, want, binomials))
    worst, median = _worst_relative_to_terms(cases)
    assert worst <= 1e-13 and median <= 1e-15
