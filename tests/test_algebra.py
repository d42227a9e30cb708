"""Canonical forms, contraction and dimension substitution."""

import copy
import inspect
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipoleft.action import (
    AbsorbDirective,
    FlavorSpec,
    ModelSpec,
    QuantizationResult,
    SlotSpec,
    check_quantization,
)
from dipoleft.algebra import (
    G5,
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
    gamma,
    substitute_dimension,
)
from dipoleft.modelfile import Diagnostic, ModelFileError
from dipoleft.selftest import SuiteReport

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


def _canonicity_shape(shape, labels):
    """The shapes of the canonicity probes, on eight dummy labels: the two
    pipeline shapes, three with several dummies of one signature, and one
    with a gamma word; as (factors, word)."""
    a, b, c, d, e, f, g, h = labels
    X = lambda i, j: FieldSlot("X", i, j)  # noqa: E731
    Y = lambda i, j: FieldSlot("Y", i, j)  # noqa: E731
    return {
        "eps X Y": ([Epsilon((a, b, c, d)), X(a, b), Y(c, d)], None),
        "eps X X": ([Epsilon((a, b, c, d)), X(a, c), X(b, d)], None),
        "eta eta X Y": ([X(a, b), Y(c, d), Metric(a, c), Metric(b, d)], None),
        "eps X eta Y k": (
            [Epsilon((a, b, c, d)), X(a, e), Metric(b, f), Y(e, f), Momentum("k", c), Momentum("q", d)],
            None,
        ),
        "eps eps X Y X Y": (
            [Epsilon((a, b, c, d)), Epsilon((e, f, g, h)), X(a, e), Y(b, f), X(c, g), Y(d, h)],
            None,
        ),
        "word X eta p": (
            [X(a, b), Metric(c, d), Metric(e, "z"), Momentum("p", c), Momentum("p", e)],
            (gamma(a), gamma(d), G5, gamma(b)),
        ),
    }[shape]


_CANONICITY_SHAPES = ["eps X Y", "eps X X", "eta eta X Y", "eps X eta Y k", "eps eps X Y X Y", "word X eta p"]


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from(_CANONICITY_SHAPES),
    names=st.permutations(["a", "b", "c", "d", "e", "f", "g", "h", "$0", "$1"]),
    rnd=st.randoms(use_true_random=False),
    sign=st.sampled_from([1, -1]),
)
def test_canonical_form_ignores_dummy_names_and_factor_order(shape, names, rnd, sign):
    factors, word = _canonicity_shape(shape, "abcdefgh")
    renamed, renamed_word = _canonicity_shape(shape, names[:8])
    rnd.shuffle(renamed)
    coeff = Coefficient.rational(sign)
    once = canonicalize(Expression.of(Term(coeff, factors=tuple(factors), word=word)))
    assert len(once.terms) == 1
    assert canonicalize(once) == once
    assert canonicalize(Expression.of(Term(coeff, factors=tuple(renamed), word=renamed_word))) == once


@pytest.mark.parametrize(
    "factors",
    [
        (FieldSlot("X", "a", "b"), Metric("a", "b")),
        (Epsilon(("a", "b", "c", "d")), Metric("a", "b"), FieldSlot("X", "c", "d")),
    ],
    ids=["X eta", "eps eta X"],
)
def test_symmetric_times_antisymmetric_canonicalizes_to_zero(factors):
    assert expr_of(Term(ONE, factors=factors)).is_zero()


def test_pair_equal_after_renaming_merges_with_coefficient_two():
    # renaming 2 <-> 3 in the second term flips the sign of Y: the pair is
    # twice the first term, not zero
    first = (FieldSlot("X", "0", "1"), FieldSlot("Y", "2", "3"), Metric("0", "2"), Metric("1", "3"))
    second = (FieldSlot("X", "0", "1"), FieldSlot("Y", "2", "3"), Metric("0", "3"), Metric("1", "2"))
    merged = expr_of(Term(ONE, factors=first), Term(Coefficient.rational(-1), factors=second))
    assert merged == expr_of(Term(Coefficient.rational(2), factors=first))


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


# ---------------------------------------------------------------------------
# The value types' contract: repr, equality, hash, immutability, copies
# ---------------------------------------------------------------------------

_HALF = Coefficient(Fraction(1, 2), Fraction(-3), (("e", 2),), (("log(4pi)", 1),), -1)
_TERM = Term(ONE, (Metric("a", "b"),), (gamma("a"), G5))
_FLAVOR = FlavorSpec("psi", "m", 1, Coefficient.monomial(1, 2, e=1), ((1, "F"), (-1, "b")))
_ABSORB = AbsorbDirective("e", "CF", Coefficient.monomial(-1, 8, pi=-1))
_E_HALF_TEXT = (
    "Coefficient(re=Fraction(1, 2), im=Fraction(0, 1), consts=(('e', 1),), logs=(), eps_power=0)"
)
_CF_SCALE_TEXT = (
    "Coefficient(re=Fraction(-1, 8), im=Fraction(0, 1), consts=(('pi', -1),), logs=(), eps_power=0)"
)
_VALUES = [
    (
        _HALF,
        "Coefficient(re=Fraction(1, 2), im=Fraction(-3, 1), consts=(('e', 2),), "
        "logs=(('log(4pi)', 1),), eps_power=-1)",
    ),
    (Metric("a", "b"), "Metric(i='a', j='b')"),
    (Epsilon(("a", "b", "c", "d")), "Epsilon(idx=('a', 'b', 'c', 'd'))"),
    (Momentum("k", "mu"), "Momentum(name='k', i='mu')"),
    (FieldSlot("F", "mu", "nu"), "FieldSlot(slot='F', i='mu', j='nu')"),
    (
        _TERM,
        "Term(coeff=Coefficient(re=Fraction(1, 1), im=Fraction(0, 1), consts=(), logs=(), "
        "eps_power=0), factors=(Metric(i='a', j='b'),), word=(('g', 'a'), ('g5',)))",
    ),
    (Expression(), "Expression(terms=())"),
    # the model, diagnostic and report types of action, modelfile and oracle
    (SlotSpec("b"), "SlotSpec(name='b', potential=None)"),
    (
        _FLAVOR,
        "FlavorSpec(name='psi', mass='m', chirality=1, coeff=" + _E_HALF_TEXT
        + ", combo=((1, 'F'), (-1, 'b')))",
    ),
    (_ABSORB, "AbsorbDirective(coupling='e', finite_name='CF', scale=" + _CF_SCALE_TEXT + ")"),
    (
        ModelSpec((SlotSpec("F", "A"), SlotSpec("b")), (_FLAVOR,), (_ABSORB,), ("e",)),
        "ModelSpec(slots=(SlotSpec(name='F', potential='A'), SlotSpec(name='b', potential=None)), "
        "flavors=(FlavorSpec(name='psi', mass='m', chirality=1, coeff=" + _E_HALF_TEXT
        + ", combo=((1, 'F'), (-1, 'b'))),), absorb=(AbsorbDirective(coupling='e', finite_name='CF', "
        "scale=" + _CF_SCALE_TEXT + "),), constants=('e',))",
    ),
    (
        check_quantization(Fraction(1, 3), 3),
        "QuantizationResult(theta_over_pi=Fraction(1, 3), nf=3, charge_multiplier=9, "
        "classification='TRI-nontrivial')",
    ),
    (
        Diagnostic("syntax", 5, "unknown directive 'bogus'"),
        "Diagnostic(code='syntax', line=5, message=\"unknown directive 'bogus'\")",
    ),
    (
        SuiteReport(42, 500, 1.5e-16, ("tr(g0 g1)",)),
        "SuiteReport(seed=42, count=500, max_deviation=1.5e-16, failures=('tr(g0 g1)',))",
    ),
]
_FIELDS = {
    Coefficient: ("re", "im", "consts", "logs", "eps_power"),
    Metric: ("i", "j"),
    Epsilon: ("idx",),
    Momentum: ("name", "i"),
    FieldSlot: ("slot", "i", "j"),
    Term: ("coeff", "factors", "word"),
    Expression: ("terms",),
    SlotSpec: ("name", "potential"),
    FlavorSpec: ("name", "mass", "chirality", "coeff", "combo"),
    AbsorbDirective: ("coupling", "finite_name", "scale"),
    ModelSpec: ("slots", "flavors", "absorb", "constants"),
    QuantizationResult: ("theta_over_pi", "nf", "charge_multiplier", "classification"),
    Diagnostic: ("code", "line", "message"),
    SuiteReport: ("seed", "count", "max_deviation", "failures"),
}
# the defaults of each type's trailing fields; a type not named has none
_DEFAULTS = {
    Coefficient: {"re": Fraction(0), "im": Fraction(0), "consts": (), "logs": (), "eps_power": 0},
    Term: {"factors": (), "word": None},
    Expression: {"terms": ()},
    SlotSpec: {"potential": None},
    ModelSpec: {"absorb": (), "constants": ()},
}
_IDS = [type(value).__name__ for value, _ in _VALUES]


@pytest.mark.parametrize("value, text", _VALUES, ids=_IDS)
def test_value_repr_is_pinned(value, text):
    # error texts and the pinned trace digest embed these reprs
    assert repr(value) == text
    assert repr(Expression((_TERM,))) == f"Expression(terms=({_VALUES[5][1]},))"


@pytest.mark.parametrize("value, _text", _VALUES, ids=_IDS)
def test_value_hash_is_the_hash_of_its_field_tuple(value, _text):
    # so no set or dict order moves
    fields = tuple(getattr(value, name) for name in _FIELDS[type(value)])
    assert hash(value) == hash(fields)


def test_values_of_different_types_with_equal_fields_differ():
    assert Metric("a", "b") != Momentum("a", "b")
    assert Metric("a", "b") == Metric("a", "b")
    assert Metric("a", "b") != ("a", "b")
    assert len({Metric("a", "b"), Momentum("a", "b"), Metric("a", "b")}) == 2
    # a SlotSpec has two fields and a Diagnostic three: each meets a type of its arity
    assert SlotSpec("a", "b") != Metric("a", "b")
    assert Diagnostic("a", "b", "c") != FieldSlot("a", "b", "c")
    assert Diagnostic("e", "CF", _ABSORB.scale) != _ABSORB
    assert QuantizationResult(1, 2, 3.0, ()) != SuiteReport(1, 2, 3.0, ())
    assert len({SlotSpec("a", "b"), Metric("a", "b"), SlotSpec("a", "b")}) == 2


@pytest.mark.parametrize("value, _text", _VALUES, ids=_IDS)
def test_value_fields_cannot_be_assigned_or_deleted(value, _text):
    name = _FIELDS[type(value)][0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


def test_value_keyword_construction_and_defaults():
    assert Coefficient() == Coefficient(Fraction(0), Fraction(0), (), (), 0)
    imaginary = Coefficient(Fraction(0), Fraction(2), (), (), 1)
    assert Coefficient(im=Fraction(2), eps_power=1) == imaginary
    assert Term(coeff=ONE) == Term(ONE, (), None)
    assert Term(ONE, word=(G5,)).factors == ()
    assert Expression() == Expression(terms=()) == Expression.zero()
    assert Metric(j="b", i="a") == Metric("a", "b")
    assert FieldSlot(slot="F", i="mu", j="nu") == FieldSlot("F", "mu", "nu")
    assert Momentum(name="k", i="mu").name == "k"
    assert Epsilon(idx=("a", "b", "c", "d")).idx == ("a", "b", "c", "d")
    assert SlotSpec(name="b") == SlotSpec("b", None) == SlotSpec("b", potential=None)
    assert not SlotSpec("b").exact and SlotSpec("F", potential="A").exact
    assert ModelSpec(slots=(), flavors=()) == ModelSpec((), (), (), ())
    assert ModelSpec((), (), constants=("e",)).absorb == ()
    flavor = FlavorSpec(combo=_FLAVOR.combo, coeff=_FLAVOR.coeff, chirality=1, mass="m", name="psi")
    assert flavor == _FLAVOR
    assert AbsorbDirective(scale=_ABSORB.scale, finite_name="CF", coupling="e") == _ABSORB
    assert Diagnostic(line=5, message="m", code="c") == Diagnostic("c", 5, "m")
    assert SuiteReport(failures=(), max_deviation=0.0, count=1, seed=2) == SuiteReport(2, 1, 0.0, ())
    result = QuantizationResult(classification="x", charge_multiplier=9, nf=3, theta_over_pi=1)
    assert result == QuantizationResult(1, 3, 9, "x")
    # the signature help() shows: every field, in order, with its default
    for cls, names in _FIELDS.items():
        params = inspect.signature(cls).parameters
        assert tuple(params) == names
        assert {p.kind for p in params.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        defaults = {n: p.default for n, p in params.items() if p.default is not p.empty}
        assert repr(defaults) == repr(_DEFAULTS.get(cls, {})), cls


@pytest.mark.parametrize("value, _text", _VALUES, ids=_IDS)
def test_value_rejects_an_unknown_missing_or_extra_field(value, _text):
    cls, fields = type(value), {name: getattr(value, name) for name in _FIELDS[type(value)]}
    assert cls(**fields) == value
    # Python's own texts, naming the class's __init__
    named = rf"{cls.__name__}\.__init__\(\)"
    with pytest.raises(TypeError, match=named):
        cls(**fields, extra=1)
    with pytest.raises(TypeError, match=named):
        cls(*fields.values(), None)
    with pytest.raises(TypeError, match=named):
        cls(*fields.values(), **{next(iter(fields)): None})
    if cls not in (Coefficient, Expression):  # every field of these two has a default
        del fields[next(iter(fields))]
        with pytest.raises(TypeError, match=named):
            cls(**fields)


def test_diagnostic_texts_are_pinned():
    # the CLI prints each diagnostic after "<file>:"
    first = Diagnostic("syntax", 5, "unknown directive 'bogus'")
    assert str(first) == "line 5: syntax: unknown directive 'bogus'"
    error = ModelFileError([first, Diagnostic("missing-dim", 0, "model file must declare 'dim 4'")])
    assert error.diagnostics[0] is first
    assert str(error) == (
        "line 5: syntax: unknown directive 'bogus'; line 0: missing-dim: model file must declare 'dim 4'"
    )


def test_suite_report_lines_are_pinned():
    failed = SuiteReport(42, 500, 1.5e-16, ("tr(g0 g1)",))
    assert not failed.passed
    assert failed.lines() == [
        "equivalence suite: seed=42 count=500 max_deviation=1.500e-16", "FAIL tr(g0 g1)", "result: fail"
    ]
    assert SuiteReport(7, 5, 0.0, ()).passed
    assert SuiteReport(7, 5, 0.0, ()).lines()[-1] == "result: pass"


@pytest.mark.parametrize("value, _text", _VALUES, ids=_IDS)
@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_value_survives_pickle_and_copy(value, _text, round_trip):
    copied = round_trip(value)
    assert type(copied) is type(value)
    assert copied == value
    assert repr(copied) == repr(value)
    assert hash(copied) == hash(value)
