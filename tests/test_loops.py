"""Loop integration entry point, dimreg value of I0 and cutoff table."""

import math
from fractions import Fraction

import pytest

from dipoleft.algebra import (
    LOG_4PI,
    LOG_LAMBDA,
    LOG_MU,
    Coefficient,
    Expression,
    FieldSlot,
    Metric,
    Momentum,
    Term,
    canonicalize,
)
from dipoleft.loops import (
    UnsupportedReductionError,
    cutoff_scalar_closed_form,
    cutoff_scalar_leading,
    cutoff_tensor_bracket,
    evaluate_cutoff,
    integrate,
    laurent_expand,
)
from dipoleft.oracle import euclidean_scalar_integral

ONE = Coefficient.one()


def _momenta(*labels: str) -> tuple[Momentum, ...]:
    return tuple(Momentum("p", label) for label in labels)


def test_integrate_odd_rank_vanishes():
    assert integrate(Term(ONE, factors=_momenta("a")), "m").is_zero()


@pytest.mark.parametrize("mass, symbol", [("m", "I0"), ("M", "I0[M]")], ids=["m", "M"])
def test_integrate_rank_zero_gives_bubble(mass, symbol):
    term = Term(Coefficient.rational(3), factors=(FieldSlot("F", "a", "b"),))
    expected = Term(
        Coefficient.imaginary(3).with_consts(**{symbol: 1}), factors=term.factors
    )
    assert integrate(term, mass) == Expression.of(expected)


def test_integrate_rank_two_is_cutoff_tensor():
    term = Term(ONE, factors=(FieldSlot("F", "a", "c"),) + _momenta("a", "b"))
    assert integrate(term, "m") == evaluate_cutoff(term, "m")


def test_integrate_massless_bracket_is_quadratic_only():
    (only,) = integrate(Term(ONE, factors=_momenta("a", "b")), "0").terms
    assert only == Term(
        Coefficient.monomial(1, 16, pi=-2, Lambda=2), factors=(Metric("a", "b"),)
    )


def test_integrate_rank_four_unsupported():
    with pytest.raises(UnsupportedReductionError):
        integrate(Term(ONE, factors=_momenta("a", "b", "c", "d")), "m")


def expected_laurent() -> Expression:
    base = Coefficient.monomial(1, 16, pi=-2)
    return canonicalize(
        Expression.of(
            Term(base.gaussian_scaled(Fraction(2)).with_eps(-1)),
            Term(base.with_log(LOG_MU)),
            Term(base.with_log(LOG_4PI)),
            Term((-base).with_consts(gammaE=1)),
        )
    )


def test_laurent_expansion_exact():
    assert laurent_expand() == expected_laurent()


def test_laurent_pole_part():
    (pole,) = [t for t in laurent_expand().terms if t.coeff.eps_power < 0]
    assert pole.coeff == Coefficient.monomial(1, 8, pi=-2).with_eps(-1)


def test_laurent_linear_in_logs_single_pole():
    expansion = laurent_expand()
    poles = [t for t in expansion.terms if t.coeff.eps_power]
    assert len(poles) == 1 and poles[0].coeff.eps_power == -1
    for t in expansion.terms:
        assert sum(exp for _, exp in t.coeff.logs) <= 1


def test_cutoff_rank_two_bracket_exact():
    result = evaluate_cutoff(Term(ONE, factors=_momenta("a", "b")), "m")
    expected = canonicalize(
        Expression.of(
            Term(Coefficient.monomial(1, 16, pi=-2, Lambda=2), factors=(Metric("a", "b"),)),
            Term(
                Coefficient.monomial(1, 4, pi=-2, m=2).with_log(LOG_LAMBDA),
                factors=(Metric("a", "b"),),
            ),
        )
    )
    assert result == expected


def test_cutoff_quadratic_coefficient():
    bracket = cutoff_tensor_bracket()
    (quad,) = [t for t in bracket.terms if t.coeff.const_power("Lambda") == 2]
    assert quad.coeff == Coefficient.monomial(1, 16, pi=-2, Lambda=2)


def test_scheme_independence_of_the_log():
    # coefficient of 2/eps in the pole == coefficient of 2 log(Lambda/m) in
    # the cutoff scalar's leading log == 1/(16 pi^2)
    (pole,) = [t for t in laurent_expand().terms if t.coeff.eps_power < 0]
    pole_unit = pole.coeff.gaussian_scaled(Fraction(1, 2)).with_eps(1)
    (leading,) = cutoff_scalar_leading().terms
    log_unit = leading.coeff.gaussian_scaled(Fraction(1, 2)).with_log(LOG_LAMBDA, -1)
    assert pole_unit == log_unit == Coefficient.monomial(1, 16, pi=-2)


def test_cutoff_scalar_closed_form_matches_quadrature():
    for mass, cutoff in [(1.0, 1e3), (0.5, 200.0), (2.0, 1e4)]:
        exact = cutoff_scalar_closed_form(mass, cutoff)
        approx = euclidean_scalar_integral(mass, cutoff)
        assert abs(exact - approx) <= 1e-10 * abs(exact)


def test_cutoff_scalar_closed_form_near_threshold():
    value = cutoff_scalar_closed_form(1.0, 1.0 + 1e-10)
    target = (math.log(2.0) - 0.5) / (16 * math.pi**2)
    assert abs(value - target) <= 1e-8 * abs(target)


def test_cutoff_scalar_closed_form_domain():
    with pytest.raises(ValueError):
        cutoff_scalar_closed_form(1.0, 0.5)
