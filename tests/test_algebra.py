"""Canonical forms, contraction and dimension substitution."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipoleft.algebra import (
    Coefficient,
    Epsilon,
    Expression,
    FieldSlot,
    Metric,
    Momentum,
    StructuralError,
    Term,
    canonicalize,
    contract,
    substitute_dimension,
)

ONE = Coefficient.one()


def expr_of(*terms):
    return canonicalize(Expression.of(*terms))


def test_epsilon_antisymmetry_one_swap():
    swapped = expr_of(Term(ONE, factors=(Epsilon(("nu", "mu", "rho", "sigma")),)))
    reference = expr_of(Term(Coefficient.rational(-1), factors=(Epsilon(("mu", "nu", "rho", "sigma")),)))
    assert swapped == reference


def test_epsilon_repeated_index_is_zero():
    assert expr_of(Term(ONE, factors=(Epsilon(("mu", "mu", "rho", "sigma")),))).is_zero()


def test_like_terms_cancel_to_empty_expression():
    t = Term(ONE, factors=(Metric("mu", "nu"),))
    minus = Term(Coefficient.rational(-1), factors=(Metric("mu", "nu"),))
    assert expr_of(t, minus).is_zero()


def test_metric_is_symmetric_in_canonical_form():
    assert expr_of(Term(ONE, factors=(Metric("nu", "mu"),))) == expr_of(
        Term(ONE, factors=(Metric("mu", "nu"),))
    )


def test_field_slot_antisymmetry_and_diagonal():
    flipped = expr_of(Term(ONE, factors=(FieldSlot("F", "nu", "mu"),)))
    reference = expr_of(Term(Coefficient.rational(-1), factors=(FieldSlot("F", "mu", "nu"),)))
    assert flipped == reference
    assert expr_of(Term(ONE, factors=(FieldSlot("F", "mu", "mu"),))).is_zero()


def test_arity_violation_names_the_term():
    bad = Term(ONE, factors=(Metric("a", "a"), Metric("a", "b")))
    with pytest.raises(StructuralError, match="'a'"):
        canonicalize(Expression.of(bad))


def test_dummy_relabeling_merges_pair_swapped_terms():
    # eps X Y == eps Y X after relabeling: the epsilon pair swap is even.
    ab = Term(
        ONE,
        factors=(Epsilon(("i", "j", "k", "l")), FieldSlot("F", "i", "j"), FieldSlot("b", "k", "l")),
    )
    ba = Term(
        ONE,
        factors=(Epsilon(("i", "j", "k", "l")), FieldSlot("b", "i", "j"), FieldSlot("F", "k", "l")),
    )
    merged = expr_of(ab, ba)
    assert len(merged.terms) == 1
    assert merged.terms[0].coeff.re == 2


def test_identical_slot_pair_merges_regardless_of_input_order():
    term = Term(
        ONE,
        factors=(Epsilon(("i", "j", "k", "l")), FieldSlot("F", "i", "j"), FieldSlot("F", "k", "l")),
    )
    reversed_factors = Term(ONE, factors=tuple(reversed(term.factors)))
    assert expr_of(term) == expr_of(reversed_factors)


def test_canonicalize_idempotent_on_engine_shapes():
    rng = random.Random(11)
    labels = ["a", "b", "c", "d", "e", "f", "g", "h"]
    for _ in range(300):
        rng.shuffle(labels)
        factors = [
            Epsilon(tuple(labels[:4])),
            FieldSlot("F", labels[0], labels[1]),
            FieldSlot("b", labels[2], labels[3]),
            Metric(labels[4], labels[5]),
        ]
        expr = Expression.of(Term(ONE, factors=tuple(factors)))
        once = canonicalize(expr)
        assert canonicalize(once) == once


@settings(max_examples=150, deadline=None)
@given(
    perm=st.permutations(range(4)),
    labels=st.permutations(["a", "b", "c", "d"]),
)
def test_canonicalize_commutes_with_term_reordering(perm, labels):
    terms = [
        Term(Coefficient.rational(k + 1), factors=(Epsilon(tuple(labels)), Metric("x", labels[k])))
        for k in range(4)
    ]
    shuffled = [terms[i] for i in perm]
    assert canonicalize(Expression(tuple(terms))) == canonicalize(Expression(tuple(shuffled)))


def _pipeline_shape_factors(shape, labels):
    """eps X Y and eps X X with four dummies, or a dummy-free product."""
    i, j, k, l, m, n = labels
    if shape == "eps X Y":
        return [Epsilon((i, j, k, l)), FieldSlot("F", i, j), FieldSlot("b", k, l)]
    if shape == "eps X X":
        return [Epsilon((i, j, k, l)), FieldSlot("F", i, k), FieldSlot("F", j, l)]
    return [Epsilon((i, j, k, l)), Metric(n, m), FieldSlot("F", "z", "w"), Momentum("p", "y")]


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from(["eps X Y", "eps X X", "free"]),
    labels=st.permutations(["a", "b", "c", "d", "e", "f"]),
    order=st.permutations(range(4)),
    sign=st.sampled_from([1, -1]),
)
def test_canonical_form_is_idempotent_and_ignores_factor_order(shape, labels, order, sign):
    factors = _pipeline_shape_factors(shape, labels)
    shuffled = [factors[i] for i in order if i < len(factors)]
    coeff = Coefficient.rational(sign)
    once = canonicalize(Expression.of(Term(coeff, factors=tuple(factors))))
    assert canonicalize(once) == once
    assert canonicalize(Expression.of(Term(coeff, factors=tuple(shuffled)))) == once
    reference = _pipeline_shape_factors(shape, ["a", "b", "c", "d", "e", "f"])
    if shape != "free":  # dummies renamed: the same tensor, the same form
        assert once == canonicalize(Expression.of(Term(coeff, factors=tuple(reference))))


def test_contract_metric_chain():
    # eta(mu,nu) eta(nu,rho) with nu dummy -> eta(mu,rho)
    expr = expr_of(Term(ONE, factors=(Metric("mu", "nu"), Metric("nu", "rho"))))
    assert contract(expr) == expr_of(Term(ONE, factors=(Metric("mu", "rho"),)))


def test_contract_metric_trace_gives_dimension():
    expr = expr_of(Term(ONE, factors=(Metric("mu", "mu"),)))
    contracted = contract(expr)
    assert contracted == expr_of(Term(ONE.with_consts(d=1)))
    assert substitute_dimension(contracted, 4) == expr_of(Term(Coefficient.rational(4)))


def test_contract_two_metrics_fully_paired():
    expr = expr_of(Term(ONE, factors=(Metric("a", "b"), Metric("a", "b"))))
    assert contract(expr) == expr_of(Term(ONE.with_consts(d=1)))


def test_contract_symmetric_times_antisymmetric_vanishes():
    expr = expr_of(
        Term(ONE, factors=(Metric("al", "be"), Epsilon(("al", "be", "rho", "sigma"))))
    )
    assert contract(expr).is_zero()


def test_contract_relabels_momentum_partners():
    expr = expr_of(
        Term(ONE, factors=(Metric("a", "x"), Momentum("p", "a"), Momentum("q", "x")))
    )
    contracted = contract(expr)
    (term,) = contracted.terms
    assert {type(f) for f in term.factors} == {Momentum}
    labels = [f.i for f in term.factors]
    assert labels[0] == labels[1]


def test_substitute_dimension_with_negative_powers():
    expr = expr_of(Term(ONE.with_consts(d=-1)))
    assert substitute_dimension(expr, 4) == expr_of(Term(Coefficient.rational(1, 4)))


def test_expression_product_keeps_open_indices_and_shifts_closed_ones():
    # 'x' is open on both sides and must contract across the product; the
    # internally closed pair in the right factor is renamed away.
    left = Expression.of(Term(ONE, factors=(Metric("x", "a"), Metric("a", "y"))))
    right = Expression.of(Term(ONE, factors=(Metric("x", "a"), Metric("a", "z"))))
    product = contract(canonicalize(left * right))
    assert product == expr_of(Term(ONE, factors=(Metric("y", "z"),)))
