"""Exact coefficient arithmetic: ring axioms, closure, zero handling."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dipoleft.algebra import (
    Coefficient,
    Expression,
    ExpressionError,
    Term,
    _powmap,
    canonicalize,
)

NAMES = ["e", "alpha", "m", "thetaF"]
LOGS = ["log(4pi)", "log(Lambda/m)"]


def random_coefficient(rng: random.Random) -> Coefficient:
    c = Coefficient(
        re=Fraction(rng.randint(-6, 6), rng.randint(1, 7)),
        im=Fraction(rng.randint(-6, 6), rng.randint(1, 7)),
    )
    for name in rng.sample(NAMES, rng.randint(0, 2)):
        c = c.with_consts(**{name: rng.randint(-2, 2)})
    if rng.random() < 0.3:
        c = c.with_log(rng.choice(LOGS))
    if rng.random() < 0.3:
        c = c.with_eps(rng.randint(-1, 1))
    return c


def as_expr(c: Coefficient) -> Expression:
    return Expression.scalar(c)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240817)
    for _ in range(1000):
        a, b, c = (as_expr(random_coefficient(rng)) for _ in range(3))
        assert canonicalize((a + b) + c) == canonicalize(a + (b + c))
        assert canonicalize((a * b) * c) == canonicalize(a * (b * c))
        assert canonicalize(a * (b + c)) == canonicalize(a * b + a * c)
        assert canonicalize(a * b) == canonicalize(b * a)


def test_zero_coefficient_deletes_term():
    expr = Expression.of(Term(Coefficient()), Term(Coefficient.one()))
    assert len(canonicalize(expr).terms) == 1


def test_addition_requires_matching_monomial():
    a = Coefficient.monomial(1, 1, e=1)
    b = Coefficient.monomial(1, 1, m=1)
    with pytest.raises(ExpressionError):
        a.plus(b)


def test_multiplication_merges_exponents():
    a = Coefficient.monomial(1, 2, e=1, alpha=1)
    b = Coefficient.monomial(2, 3, e=1, alpha=-1)
    prod = a * b
    assert prod.re == Fraction(1, 3)
    assert dict(prod.consts) == {"e": 2}


def test_gaussian_product_is_complex_multiplication():
    a = Coefficient(re=Fraction(1), im=Fraction(2))
    b = Coefficient(re=Fraction(3), im=Fraction(-1))
    prod = a * b
    assert (prod.re, prod.im) == (Fraction(5), Fraction(5))


def test_exact_division_inverts_product():
    rng = random.Random(7)
    for _ in range(200):
        a = random_coefficient(rng)
        b = random_coefficient(rng)
        if b.is_zero():
            continue
        assert (a * b).divide(b) == a


def test_substitute_const_applies_power():
    coeff = Coefficient.monomial(1, 1, CF=2)
    value = Coefficient.monomial(-1, 8, e=2, pi=-1)
    out = coeff.substitute_const("CF", value)
    assert out.re == Fraction(1, 64)
    assert dict(out.consts) == {"e": 4, "pi": -2}


def test_substitute_const_negative_power():
    coeff = Coefficient.monomial(3, 1, X=-1)
    out = coeff.substitute_const("X", Coefficient.monomial(1, 2, pi=1))
    assert out.re == Fraction(6)
    assert dict(out.consts) == {"pi": -1}


# Reference arithmetic: the textbook Gaussian formulas, every part and
# monomial computed in full.


def _textbook(re, im, consts, logs, eps_power) -> Coefficient:
    return Coefficient(re, im, _powmap(consts), _powmap(logs), eps_power)


def textbook_mul(x: Coefficient, y: Coefficient) -> Coefficient:
    return _textbook(
        x.re * y.re - x.im * y.im,
        x.re * y.im + x.im * y.re,
        x.consts + y.consts,
        x.logs + y.logs,
        x.eps_power + y.eps_power,
    )


def textbook_divide(x: Coefficient, y: Coefficient) -> Coefficient:
    norm = y.re * y.re + y.im * y.im
    return _textbook(
        (x.re * y.re + x.im * y.im) / norm,
        (x.im * y.re - x.re * y.im) / norm,
        x.consts + tuple((n, -e) for n, e in y.consts),
        x.logs + tuple((n, -e) for n, e in y.logs),
        x.eps_power - y.eps_power,
    )


def k_fold_substitute(x: Coefficient, name: str, value: Coefficient) -> Coefficient:
    k = x.const_power(name)
    out = _textbook(x.re, x.im, x.consts + ((name, -k),), x.logs, x.eps_power)
    factor = value if k >= 0 else textbook_divide(Coefficient.one(), value)
    for _ in range(abs(k)):
        out = textbook_mul(out, factor)
    return out


_parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool),
)
_monomials = st.one_of(
    st.just(()), st.dictionaries(st.sampled_from(NAMES), st.integers(-4, 4)).map(_powmap)
)
_log_monomials = st.one_of(
    st.just(()), st.dictionaries(st.sampled_from(LOGS), st.integers(-2, 2)).map(_powmap)
)
coefficients = st.builds(
    Coefficient, _parts, _parts, _monomials, _log_monomials, st.integers(-2, 2)
)


def assert_same(got: Coefficient, want: Coefficient) -> None:
    assert got == want
    assert repr(got) == repr(want)


@given(coefficients, coefficients, _parts)
def test_arithmetic_matches_the_textbook_gaussian_formulas(x, y, factor):
    assert_same(x * y, textbook_mul(x, y))
    assert_same(-x, _textbook(-x.re, -x.im, x.consts, x.logs, x.eps_power))
    assert_same(
        x.gaussian_scaled(factor),
        _textbook(x.re * factor, x.im * factor, x.consts, x.logs, x.eps_power),
    )
    like = Coefficient(y.re, y.im, x.consts, x.logs, x.eps_power)
    assert_same(
        x.plus(like), _textbook(x.re + y.re, x.im + y.im, x.consts, x.logs, x.eps_power)
    )
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.divide(y)
    else:
        assert_same(x.divide(y), textbook_divide(x, y))


@given(coefficients, st.sampled_from(NAMES), st.integers(-6, 6), coefficients)
def test_substitute_const_equals_the_k_fold_product(x, name, k, value):
    x = x.with_consts(**{name: k - x.const_power(name)})
    assume(k >= 0 or not value.is_zero())
    assert_same(x.substitute_const(name, value), k_fold_substitute(x, name, value))


@pytest.mark.parametrize("k", [10**5, -(10**5)])
def test_substitute_const_at_a_large_power(k):
    # (3i/2 * x)^k with k a multiple of 4: i^k = 1
    value = Coefficient.imaginary(3, 2).with_consts(x=1)
    out = Coefficient.monomial(1, 1, e=k, alpha=1).substitute_const("e", value)
    # 3^k has 47,713 digits: too many for repr under the default int-to-str limit
    assert out == Coefficient.monomial(Fraction(3, 2) ** k, 1, alpha=1, x=k)
