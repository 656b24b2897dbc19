import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickstar.exact import QC, conj, is_exact, to_complex


def test_construction_and_parts():
    x = QC(Fraction(1, 3), Fraction(-2, 7))
    assert x.re == Fraction(1, 3)
    assert x.im == Fraction(-2, 7)
    assert x.real == x.re and x.imag == x.im


def test_integral_floats_coerce_nonintegral_refuse():
    assert QC(2.0) == QC(2)
    with pytest.raises(TypeError):
        QC(0.1)


def test_immutability():
    x = QC(1)
    with pytest.raises(AttributeError):
        x.re = Fraction(2)


def test_copy_deepcopy_and_pickle_round_trips():
    for x in (QC(Fraction(-7, 3)), QC(Fraction(1, 6), Fraction(-5, 4))):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is QC and y == x
            assert (y.re, y.im) == (x.re, x.im) and hash(y) == hash(x)


def test_field_arithmetic_is_exact():
    a = QC(Fraction(1, 3), Fraction(1, 7))
    b = QC(Fraction(-2, 5), Fraction(3, 11))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (QC(1) / a) == QC(1)
    assert -a + a == QC(0)


def test_mixed_exact_scalars_stay_exact():
    a = QC(Fraction(1, 3))
    assert a + 1 == QC(Fraction(4, 3))
    assert 2 * a == QC(Fraction(2, 3))
    assert a / Fraction(1, 3) == QC(1)
    assert is_exact(a + Fraction(1, 2))


def test_float_contact_demotes_to_complex():
    a = QC(Fraction(1, 2))
    for result in (a + 0.25, a * (1 + 2j), 0.25 - a, (1 + 2j) / a):
        assert isinstance(result, complex)
    assert a + 0.25 == pytest.approx(0.75)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QC(1) / QC(0)


def test_integer_powers():
    x = QC(Fraction(1, 2), Fraction(1, 3))
    assert x ** 0 == QC(1)
    assert x ** 3 == x * x * x


def test_conjugate_and_abs():
    x = QC(3, -4)
    assert conj(x) == QC(3, 4)
    assert abs(x) == 5.0
    assert conj(1 + 2j) == 1 - 2j
    assert conj(Fraction(1, 3)) == Fraction(1, 3)


def test_equality_and_hash_agree_with_rationals():
    assert QC(2) == 2 == Fraction(2)
    assert hash(QC(2)) == hash(Fraction(2))
    assert QC(1, 1) == 1 + 1j
    assert QC(1, 1) != QC(1, 2)


def test_equality_with_floats_is_exact():
    # a float or complex compares by its exact value, as a Fraction does
    assert QC(1) == 1.0 and 1.0 == QC(1) and QC(1) == 1 + 0j
    assert QC(Fraction(1, 2), -3) == complex(0.5, -3)
    third = QC(Fraction(1, 3))
    assert third != 1 / 3 and 1 / 3 != third and third != complex(1 / 3)
    for bad in (math.nan, math.inf, -math.inf, complex(0, math.nan), complex(math.inf, 0)):
        assert QC(1) != bad and bad != QC(1)
    assert len({QC(1), 1.0, 1 + 0j}) == 1


@settings(max_examples=200, deadline=None)
@given(r=st.fractions(), x=st.floats(allow_nan=False, allow_infinity=False))
def test_qc_compares_with_a_float_as_a_fraction_does(r, x):
    for y in (x, complex(x), complex(0, x)):
        assert (QC(r) == y) == (r == y) == (y == QC(r))
    assert QC(Fraction(x)) == x == complex(x) and QC(0, Fraction(x)) == complex(0, x)


def test_bool_and_to_complex():
    assert not QC(0)
    assert QC(0, 1)
    assert to_complex(QC(1, -1)) == 1 - 1j
    assert to_complex(2) == 2 + 0j


def test_is_exact_classification():
    assert is_exact(QC(1)) and is_exact(3) and is_exact(Fraction(1, 2))
    assert not is_exact(0.5) and not is_exact(1 + 0j)


# property tests against a reference model: a pair of Fractions -------------

fractions = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))
small_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
qcs = st.builds(QC, fractions, fractions) | st.builds(QC, small_fractions, small_fractions)
scalars = st.integers(-10**6, 10**6) | fractions


def model(x):
    """(re, im) as Fractions; int and Fraction operands are real."""
    return (x.re, x.im) if isinstance(x, QC) else (Fraction(x), Fraction(0))


def model_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


MODEL_OPS = {
    operator.add: lambda x, y: (x[0] + y[0], x[1] + y[1]),
    operator.sub: lambda x, y: (x[0] - y[0], x[1] - y[1]),
    operator.mul: lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    operator.truediv: model_div,
}


def assert_normal(x):
    """d > 0, gcd(a, b, d) = 1, and zero is (0, 0, 1)."""
    a, b, d = x._a, x._b, x._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    if not x:
        assert (a, b, d) == (0, 0, 1)


@settings(max_examples=300, deadline=None)
@given(x=qcs, y=qcs | scalars, op=st.sampled_from(sorted(MODEL_OPS, key=repr)),
       swap=st.booleans())
def test_qc_field_operations_match_the_fraction_pair_model(x, y, op, swap):
    left, right = (y, x) if swap else (x, y)
    if op is operator.truediv and model(right) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            op(left, right)
        return
    out = op(left, right)
    assert isinstance(out, QC)
    assert model(out) == MODEL_OPS[op](model(left), model(right))
    assert_normal(out)


@settings(max_examples=200, deadline=None)
@given(x=qcs, n=st.integers(0, 7))
def test_qc_negation_power_and_conjugate_match_the_model(x, n):
    re, im = model(x)
    assert model(-x) == (-re, -im)
    assert model(conj(x)) == model(x.conjugate()) == (re, -im)
    want = (Fraction(1), Fraction(0))
    for _ in range(n):
        want = MODEL_OPS[operator.mul](want, (re, im))
    assert model(x ** n) == want
    for y in (-x, conj(x), x ** n):
        assert_normal(y)


@settings(max_examples=200, deadline=None)
@given(re=fractions, im=fractions)
def test_qc_is_normal_from_the_constructor_and_keeps_its_repr(re, im):
    x = QC(re, im)
    assert_normal(x)
    assert (x.re, x.im) == (x.real, x.imag) == (re, im)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert repr(x) == f"QC({re!r}, {im!r})"
    assert bool(x) == (re != 0 or im != 0)
    assert_normal(x - x)
    assert x - x == QC() == 0


@settings(max_examples=200, deadline=None)
@given(r=scalars)
def test_qc_equality_and_hash_agree_with_rationals(r):
    x = QC(r)
    assert x == r and r == x and x == Fraction(r)
    assert hash(x) == hash(r) == hash(Fraction(r))
    assert x != r + 1 and QC(r, 1) != r


@settings(max_examples=200, deadline=None)
@given(a=st.integers(-2**40, 2**40), b=st.integers(-2**40, 2**40), k=st.integers(0, 60))
def test_qc_equality_and_hash_agree_with_complex(a, b, k):
    # dyadic parts are exact in binary floating point
    re, im = Fraction(a, 2**k), Fraction(b, 2**k)
    z = complex(float(re), float(im))
    x = QC(re, im)
    assert x == z and z == x
    assert hash(x) == hash(z)
    assert x.to_complex() == z
    assert len({x, z, x + 0}) == 1
