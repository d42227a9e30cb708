"""Gamma-string traces and dipole vertex expansion."""

import gc
import hashlib
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipoleft import dirac
from dipoleft.algebra import (
    G5,
    Coefficient,
    Epsilon,
    Expression,
    FieldSlot,
    Metric,
    StructuralError,
    Term,
    canonicalize,
    contract,
    gamma,
    normalize_word,
    substitute_dimension,
)
from dipoleft.dirac import (
    FOUR_DIM,
    SYMBOLIC_DIM,
    SchemeError,
    commutator,
    expand_vertex,
    trace,
    trace_word,
)
from dipoleft.oracle import evaluate_expression_numeric, numeric_trace

ONE = Coefficient.one()


def test_trace_of_identity_is_four():
    assert trace_word(()) == canonicalize(Expression.scalar(Coefficient.rational(4)))


def test_trace_two_gammas():
    expected = canonicalize(
        Expression.of(Term(Coefficient.rational(4), factors=(Metric("mu", "nu"),)))
    )
    assert trace_word((gamma("mu"), gamma("nu"))) == expected


@pytest.mark.parametrize("length", [1, 3, 5, 7])
def test_odd_words_trace_to_zero(length):
    word = tuple(gamma(f"x{k}") for k in range(length))
    assert trace_word(word).is_zero()
    assert trace_word(word + (G5,), FOUR_DIM).is_zero()


def test_gamma5_four_trace_gives_epsilon():
    word = (G5, gamma("mu"), gamma("nu"), gamma("rho"), gamma("sigma"))
    expected = canonicalize(
        Expression.of(
            Term(Coefficient.imaginary(-4), factors=(Epsilon(("mu", "nu", "rho", "sigma")),))
        )
    )
    assert trace_word(word, FOUR_DIM) == expected


def test_gamma5_short_traces_vanish():
    assert trace_word((G5,), FOUR_DIM).is_zero()
    assert trace_word((G5, gamma("a"), gamma("b")), FOUR_DIM).is_zero()


def test_gamma5_requires_four_dimensional_mode():
    word = (G5, gamma("a"), gamma("b"), gamma("c"), gamma("d"))
    with pytest.raises(SchemeError):
        trace_word(word, SYMBOLIC_DIM)


@pytest.mark.parametrize("g5", [(), (G5,)])
def test_unknown_dim_mode_is_a_scheme_error_naming_the_mode(g5):
    # an unknown mode used to trace a plain word as if it were symbolic-d
    word = (gamma("a"), gamma("b")) + g5
    message = "unknown dim_mode 'bogus'; pass 'symbolic-d' or 'four'"
    with pytest.raises(SchemeError, match=message):
        trace_word(word, "bogus")
    with pytest.raises(SchemeError, match=message):
        trace(Expression.of(Term(ONE, word=word)), "bogus")


def test_trace_passes_a_term_without_a_word_through():
    plain = Term(Coefficient.rational(3), factors=(Metric("a", "b"),))
    assert trace(Expression.of(plain)) == Expression.of(plain)


@pytest.mark.parametrize("g5", [(), (G5,)])
def test_label_used_three_times_names_the_word(g5):
    word = tuple(gamma(label) for label in "abaa") + g5
    with pytest.raises(StructuralError) as raised:
        trace_word(word, FOUR_DIM)
    assert str(raised.value) == (
        f"index label(s) ['a'] occur more than twice in gamma word {word!r}"
    )


def test_double_gamma5_squares_away():
    word = (G5, gamma("mu"), G5, gamma("nu"))
    # g5 g^mu g5 = -g^mu, so this equals -tr(g^mu g^nu)
    expected = canonicalize(
        Expression.of(Term(Coefficient.rational(-4), factors=(Metric("mu", "nu"),)))
    )
    assert trace_word(word, SYMBOLIC_DIM) == expected


def test_commutator_pair_gamma5_trace():
    prod = commutator("mu", "nu") * commutator("rho", "sigma")
    prod = prod * Expression.of(Term(ONE, word=(G5,)))
    expected = canonicalize(
        Expression.of(
            Term(Coefficient.imaginary(-16), factors=(Epsilon(("mu", "nu", "rho", "sigma")),))
        )
    )
    assert trace(prod, FOUR_DIM) == expected


def test_contracted_commutator_trace_vanishes_at_four_dimensions():
    contraction = Expression.of(Term(ONE, factors=(Metric("al", "be"),)))
    middle = Expression.of(Term(ONE, word=(gamma("al"),)))
    outer = Expression.of(Term(ONE, word=(gamma("be"),)))
    prod = commutator("mu", "nu") * middle * commutator("rho", "sigma") * outer * contraction
    traced = contract(trace(prod, SYMBOLIC_DIM))
    assert not traced.is_zero()  # proportional to d - 4
    assert substitute_dimension(traced, 4).is_zero()


@settings(max_examples=80, deadline=None)
@given(
    length=st.sampled_from([2, 4, 6, 8]),
    rotation=st.integers(min_value=0, max_value=7),
)
def test_trace_cyclicity_structural(length, rotation):
    word = tuple(gamma(f"x{k}") for k in range(length))
    k = rotation % len(word)
    rotated = word[k:] + word[:k]
    assert trace_word(word, SYMBOLIC_DIM) == trace_word(rotated, SYMBOLIC_DIM)


def test_trace_cyclicity_short_g5_structural():
    word = (gamma("a"), gamma("b"), gamma("c"), gamma("d"), G5)
    for k in range(len(word)):
        rotated = word[k:] + word[:k]
        assert trace_word(word, FOUR_DIM) == trace_word(rotated, FOUR_DIM)


def test_trace_cyclicity_long_g5_by_value():
    # Beyond four gammas the eps/eta representation is overcomplete (Schouten),
    # so rotations may land on a different but equal-valued canonical form;
    # cyclicity is checked pointwise on index assignments.
    rng = random.Random(23)
    for length in (6, 8):
        labels = [f"x{k}" for k in range(length)]
        word = tuple(gamma(l) for l in labels) + (G5,)
        for k in (1, 3, length):
            rotated = word[k:] + word[:k]
            base = trace_word(word, FOUR_DIM)
            turned = trace_word(rotated, FOUR_DIM)
            for _ in range(30):
                assignment = {l: rng.randrange(4) for l in labels}
                lhs = evaluate_expression_numeric(base, assignment)
                rhs = evaluate_expression_numeric(turned, assignment)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_symbolic_traces_match_matrix_oracle_on_random_words():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(0, 8)
        labels = [f"x{k}" for k in range(n)]
        word = [gamma(l) for l in labels]
        for _ in range(rng.randint(0, 2)):
            word.insert(rng.randint(0, len(word)), G5)
        word_t = tuple(word)
        has_g5 = sum(1 for w in word_t if w == G5) % 2 == 1
        assignment = {l: rng.randrange(4) for l in labels}
        sym = evaluate_expression_numeric(
            trace_word(word_t, FOUR_DIM if has_g5 else SYMBOLIC_DIM), assignment
        )
        num = numeric_trace(word_t, assignment)
        assert abs(sym - num) <= 1e-10 * max(1.0, abs(num))


# The recursive construction trace_word used before it enumerated pairings
# directly: nested Expression products, summed level by level.  Kept here
# only as a reference for the flat enumeration.


def _product_pairing_trace(labels):
    if not labels:
        return Expression.scalar(Coefficient.rational(4))
    first, rest = labels[0], labels[1:]
    out = Expression.zero()
    sign = 1
    for j, partner in enumerate(rest):
        metric = Expression.of(
            Term(Coefficient.rational(sign), factors=(Metric(first, partner),))
        )
        out = out + metric * _product_pairing_trace(rest[:j] + rest[j + 1 :])
        sign = -sign
    return out


def _product_g5_trace(labels):
    if len(labels) < 4:
        return Expression.zero()
    if len(labels) == 4:
        return Expression.of(Term(Coefficient.imaginary(-4), factors=(Epsilon(labels),)))
    a, b, c = labels[:3]
    rest = labels[3:]
    out = Expression.zero()
    for coeff, pair, keep in ((ONE, (a, b), c), (Coefficient.rational(-1), (a, c), b), (ONE, (b, c), a)):
        metric = Expression.of(Term(coeff, factors=(Metric(*pair),)))
        out = out + metric * _product_g5_trace((keep,) + rest)
    # eps^{abcs} against the plain trace of (s, rest): s pairs with each rest[j]
    sign = Coefficient.imaginary(-1)
    for j, partner in enumerate(rest):
        eps_term = Expression.of(Term(sign, factors=(Epsilon((a, b, c, partner)),)))
        out = out + eps_term * _product_pairing_trace(rest[:j] + rest[j + 1 :])
        sign = -sign
    return out


def _product_trace_word(word):
    sign, normalized = normalize_word(word)
    labels = tuple(letter[1] for letter in normalized if letter != G5)
    if len(labels) % 2:
        return Expression.zero()
    has_g5 = bool(normalized) and normalized[-1] == G5
    result = _product_g5_trace(labels) if has_g5 else _product_pairing_trace(labels)
    return canonicalize(-result if sign < 0 else result)


@st.composite
def gamma_words(draw):
    """Words of 0-8 gammas, each label used at most twice, with 0-2 g5."""
    length = draw(st.integers(min_value=0, max_value=8))
    labels = draw(st.permutations(["a", "a", "b", "b", "c", "c", "d", "d", "e", "f"]))[:length]
    word = [gamma(label) for label in labels]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        word.insert(draw(st.integers(min_value=0, max_value=len(word))), G5)
    return tuple(word)


@settings(max_examples=200, deadline=None)
@given(word=gamma_words(), symbolic=st.booleans())
def test_trace_word_matches_recursive_product_construction(word, symbolic):
    odd_g5 = sum(1 for letter in word if letter == G5) % 2
    scheme = SYMBOLIC_DIM if symbolic and not odd_g5 else FOUR_DIM
    assert repr(trace_word(word, scheme)) == repr(_product_trace_word(word))


# Labels whose sorted order is unrelated to the order a word is drawn in:
# "x10" sorts before "x2" and "$0" and "Z" before every lower-case label.
DISTINCT_LABELS = ["a", "b", "c", "d", "mu", "nu", "rho", "x10", "x2", "$0", "Z"]


@st.composite
def distinct_words(draw):
    """Words of 0-10 distinct labels in shuffled order, with 0-2 g5."""
    length = draw(st.integers(min_value=0, max_value=10))
    labels = draw(st.permutations(DISTINCT_LABELS))[:length]
    word = [gamma(label) for label in labels]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        word.insert(draw(st.integers(min_value=0, max_value=len(word))), G5)
    return tuple(word)


@settings(max_examples=150, deadline=None)
@given(word=distinct_words())
def test_distinct_label_trace_is_built_canonical(word):
    # the canonicalized recursive product construction, against the leaves
    # as built, with canonicalize unreachable from trace_word
    expected = repr(_product_trace_word(word))

    def unreachable(expr):
        raise AssertionError("canonicalize called on a word of distinct labels")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dirac, "canonicalize", unreachable)
        traced = trace_word(word, FOUR_DIM)
    assert repr(traced) == expected


@settings(max_examples=80, deadline=None)
@given(
    labels=st.permutations(DISTINCT_LABELS[:10]),
    half_length=st.integers(min_value=0, max_value=5),
    rotation=st.integers(min_value=0, max_value=9),
)
def test_plain_trace_of_shuffled_labels_under_reversal_and_rotation(labels, half_length, rotation):
    # the least label sits anywhere in the word, so each pairing's sign
    # depends on the labels between its two positions
    word = tuple(gamma(label) for label in labels[: 2 * half_length])
    traced = trace_word(word)
    k = rotation % len(word) if word else 0
    assert trace_word(word[::-1]) == traced
    assert trace_word(word[k:] + word[:k]) == traced
    if not word:
        return
    # g^a g^b + g^b g^a = 2 eta^{ab} ties the trace to the word's order;
    # the trace of the sorted word passes both checks above
    i = rotation % (len(word) - 1)
    swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
    eta = Expression.of(Term(Coefficient.rational(2), factors=(Metric(labels[i], labels[i + 1]),)))
    expected = canonicalize(eta * trace_word(word[:i] + word[i + 2 :]))
    assert canonicalize(traced + trace_word(swapped)) == expected


@pytest.mark.parametrize(
    "length, g5, terms",
    [(0, 0, 1), (2, 0, 1), (4, 0, 3), (6, 0, 15), (8, 0, 105), (10, 0, 945),
     (4, 1, 1), (6, 1, 6), (8, 1, 33), (10, 1, 204),
     (12, 0, 10395), (12, 1, 1557)],
)
def test_trace_word_term_counts(length, g5, terms):
    word = tuple(gamma(f"x{k}") for k in range(length)) + (G5,) * g5
    assert len(trace_word(word, FOUR_DIM if g5 else SYMBOLIC_DIM).terms) == terms


@pytest.mark.parametrize("g5", [0, 1])
def test_length_12_traces_of_shuffled_labels_match_matrix_oracle(g5):
    # twelve distinct labels whose sorted order is unrelated to the word's;
    # the g5 words put it at a seeded position
    rng = random.Random(12 + g5)
    labels = DISTINCT_LABELS + ["k"]
    rng.shuffle(labels)
    word = [gamma(label) for label in labels]
    if g5:
        word.insert(rng.randint(0, len(word)), G5)
    word = tuple(word)
    traced = trace_word(word, FOUR_DIM if g5 else SYMBOLIC_DIM)
    nonzero = 0
    for _ in range(4):
        # values in pairs, plus 0..3 once each with g5, so most traces are nonzero
        values = [0, 1, 2, 3] if g5 else []
        values += [v for v in rng.choices(range(4), k=(12 - len(values)) // 2) for _ in "ab"]
        rng.shuffle(values)
        assignment = dict(zip(labels, values))
        sym = evaluate_expression_numeric(traced, assignment)
        num = numeric_trace(word, assignment)
        assert abs(sym - num) <= 1e-10 * max(1.0, abs(num))
        nonzero += abs(num) > 0.5
    assert nonzero


def test_plain_trace_leaves_share_their_metric_objects():
    # one Metric object per label pair serves every leaf, which the numeric
    # evaluator's cache by id relies on: 45 pairs of 10 labels, 945 terms
    traced = trace_word(tuple(gamma(f"x{k}") for k in range(10)))
    assert len(traced.terms) == 945
    assert len({id(f) for term in traced.terms for f in term.factors}) <= 45


@pytest.mark.parametrize("length", [6, 8, 10])
def test_g5_trace_of_distinct_labels_repeats_no_label(length):
    # the eps branch names its partner label directly: no term has a dummy
    word = tuple(gamma(f"x{k}") for k in range(length)) + (G5,)
    for term in trace_word(word, FOUR_DIM).terms:
        assert sorted(term.labels()) == sorted(f"x{k}" for k in range(length))


def test_trace_word_keeps_free_labels_that_look_like_canonical_dummies():
    # free labels spelled like canonical dummies ($0, $1, ...) stay free:
    # no term is renamed or merged away
    word = tuple(gamma(f"${k}") for k in range(6)) + (G5,)
    plain = tuple(gamma(f"x{k}") for k in range(6)) + (G5,)
    traced = trace_word(word, FOUR_DIM)
    assert len(traced.terms) == len(trace_word(plain, FOUR_DIM).terms) == 6
    assignment = {f"${k}": k % 4 for k in range(6)}
    value = evaluate_expression_numeric(traced, assignment)
    assert abs(value - numeric_trace(word, assignment)) < 1e-12


def test_trace_contracts_spectator_indices():
    # tr(g^a g^b g^c g^d) X(a,b) Y(c,d) = -8 X(a,b) Y(a,b), no metric left
    spectators = (FieldSlot("X", "a", "b"), FieldSlot("Y", "c", "d"))
    word = tuple(gamma(x) for x in "abcd")
    traced = trace(Expression.of(Term(ONE, factors=spectators, word=word)))
    expected = Term(Coefficient.rational(-8), factors=(FieldSlot("X", "a", "b"), FieldSlot("Y", "a", "b")))
    assert traced == canonicalize(Expression.of(expected))


# ---------------------------------------------------------------------------
# The pairing table
# ---------------------------------------------------------------------------


def _reference_pairings(ranks):
    """Perfect matchings of ``ranks``, least first paired with each other
    rank ascending, as pair lists: the Pfaffian's expansion order."""
    if not ranks:
        yield []
        return
    first, rest = ranks[0], ranks[1:]
    for j, partner in enumerate(rest):
        for sub in _reference_pairings(rest[:j] + rest[j + 1 :]):
            yield [(first, partner)] + sub


def _crossings(pairs):
    spans = [tuple(sorted(pair)) for pair in pairs]
    return sum(a < c < b < d or c < a < d < b for (a, b), (c, d) in combinations(spans, 2))


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8, 10])
def test_pairing_table_lists_every_matching_once_in_expansion_order(n):
    table = dirac._pairing_table(n)
    expected = list(_reference_pairings(list(range(n))))
    assert len(table) == len(expected) == math.prod(range(n - 1, 0, -2))
    ids = list(combinations(range(n), 2))
    for (mask, parity, get), pairs in zip(table, expected):
        assert mask == sum(1 << ids.index(pair) for pair in pairs)
        assert parity == _crossings(pairs) % 2
        assert get(tuple(ids)) == tuple(pairs)


# few labels, so that ties are common; "x10" sorts before "x2"
PAIRING_LABELS = ["a", "b", "mu", "x10", "x2"]


@settings(max_examples=120, deadline=None)
@given(
    labels=st.integers(min_value=0, max_value=5).flatmap(
        lambda k: st.lists(st.sampled_from(PAIRING_LABELS), min_size=2 * k, max_size=2 * k)
    ),
)
def test_pairing_leaf_signs_count_crossings_in_word_positions(labels):
    # ties included: rank order breaks a tie by position, and a plain
    # trace's leaves are the pairings in rank order, as metrics of the
    # labels, each sign bit its crossing count in word positions
    order = sorted(range(len(labels)), key=labels.__getitem__)
    plain = [(s, tuple((m.i, m.j) for m in f)) for s, f in dirac._leaves(tuple(labels), False)]
    assert plain == [
        (_crossings(pairs) % 2, tuple((labels[p], labels[q]) for p, q in pairs))
        for pairs in _reference_pairings(order)
    ]


# ---------------------------------------------------------------------------
# The g5 table
# ---------------------------------------------------------------------------


def _double_factorial(n):
    return math.prod(range(n, 0, -2))


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8, 10])
def test_g5_table_sizes_follow_the_reduction_identity(n):
    # L(n) = 3 L(n-2) + (n-3) (n-5)!!: three metric branches and n - 3 eps
    # partners, each with the pairings of the other n - 4 positions
    quads, pairs, leaves = dirac._g5_table(n)
    expected = 0
    for m in range(4, n + 1, 2):
        expected = 3 * expected + (m - 3) * _double_factorial(m - 5)
    assert len(leaves) == expected == {0: 0, 2: 0, 4: 1, 6: 6, 8: 33, 10: 204}[n]
    for sign, k, ids in leaves:
        assert sign in (0, 1)
        positions = [*quads[k], *(p for i in ids for p in pairs[i])]
        assert sorted(positions) == list(range(n))


def _ints_only(value):
    if isinstance(value, tuple):
        return all(map(_ints_only, value))
    return type(value) is int


def test_g5_table_holds_only_ints_and_is_built_once_per_length():
    tables = [dirac._g5_table(n) for n in range(0, 11, 2)]
    assert all(map(_ints_only, tables))
    misses = dirac._g5_table.cache_info().misses
    for length in (4, 6, 8, 10):
        word = (G5,) + tuple(gamma(f"y{k}") for k in reversed(range(length)))
        trace_word(word, FOUR_DIM)
        assert dirac._g5_table(length) is tables[length // 2]
    assert dirac._g5_table.cache_info().misses == misses


@settings(max_examples=150, deadline=None)
@given(
    labels=st.integers(min_value=2, max_value=5).flatmap(
        lambda k: st.permutations(PAIRING_LABELS + ["c", "nu", "x1", "z", "$0"]).map(
            lambda p: p[: 2 * k]
        )
    ),
    at=st.integers(min_value=0, max_value=10),
)
def test_g5_trace_of_distinct_labels_is_canonical_as_built(labels, at):
    word = [gamma(label) for label in labels]
    word.insert(at % (len(word) + 1), G5)
    traced = trace_word(tuple(word), FOUR_DIM)
    assert traced.terms
    assert canonicalize(traced) == traced


# ---------------------------------------------------------------------------
# Vertex expansion
# ---------------------------------------------------------------------------


def _expected_vertex(chirality: int, coeff: Coefficient) -> Expression:
    half_i = Coefficient.imaginary(1, 2)
    g5_part = Coefficient.imaginary(-chirality)
    slot = (FieldSlot("F", "mu", "nu"),)
    return canonicalize(
        Expression.of(
            Term(coeff * half_i, factors=slot, word=(gamma("mu"), gamma("nu"))),
            Term(-(coeff * half_i), factors=slot, word=(gamma("nu"), gamma("mu"))),
            Term(coeff * half_i * g5_part, factors=slot, word=(gamma("mu"), gamma("nu"), G5)),
            Term(-(coeff * half_i * g5_part), factors=slot, word=(gamma("nu"), gamma("mu"), G5)),
        )
    )


def test_expand_vertex_positive_chirality():
    assert expand_vertex(+1, "F", "mu", "nu") == _expected_vertex(+1, ONE)


def test_expand_vertex_chirality_flip_negates_only_g5_part():
    plus = expand_vertex(+1, "F", "mu", "nu")
    minus = expand_vertex(-1, "F", "mu", "nu")
    for term_plus, term_minus in zip(plus.terms, minus.terms):
        assert term_plus.factors == term_minus.factors
        assert term_plus.word == term_minus.word
        if term_plus.word and G5 in term_plus.word:
            assert term_plus.coeff == -term_minus.coeff
        else:
            assert term_plus.coeff == term_minus.coeff


# ---------------------------------------------------------------------------
# One way into a trace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "expr",
    [Expression.zero(), Expression.of(Term(ONE, factors=(Metric("a", "b"),)))],
    ids=["zero", "word-free-term"],
)
def test_unknown_dim_mode_is_a_scheme_error_without_a_gamma_word(expr):
    with pytest.raises(SchemeError, match="unknown dim_mode 'bogus'; pass 'symbolic-d' or 'four'"):
        trace(expr, "bogus")


def _trace_and_evaluate_every_length():
    for length in range(11):
        labels = [f"x{k}" for k in range(length)]
        assignment = {label: k % 4 for k, label in enumerate(labels)}
        plain = tuple(gamma(label) for label in labels)
        for word, mode in ((plain, SYMBOLIC_DIM), ((G5,) + plain, FOUR_DIM)):
            evaluate_expression_numeric(trace_word(word, mode), assignment)
            numeric_trace(word, assignment)


def test_tracing_and_evaluating_leaves_no_reference_cycles():
    # the memoized leaves are freed by reference counting alone, never left
    # for the cyclic collector
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _trace_and_evaluate_every_length()  # warm up: imports and module caches
        gc.collect()
        _trace_and_evaluate_every_length()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_g5_trace_leaves_share_their_metric_objects():
    traced = trace_word(tuple(gamma(f"x{k}") for k in range(10)) + (G5,), FOUR_DIM)
    metrics = {id(f) for term in traced.terms for f in term.factors if type(f) is Metric}
    assert len(metrics) <= 45


def test_g5_trace_leaves_share_one_epsilon_object_per_quadruple():
    traced = trace_word(tuple(gamma(f"x{k}") for k in range(10)) + (G5,), FOUR_DIM)
    eps = {id(term.factors[0]): term.factors[0].idx for term in traced.terms}
    assert all(type(term.factors[0]) is Epsilon for term in traced.terms)
    assert len(eps) == len(set(eps.values())) <= 44


@pytest.mark.parametrize("g5, terms", [(0, 945), (1, 204)])
def test_length_10_trace_leaves_hold_at_most_two_coefficient_objects(g5, terms):
    # the numeric evaluator reads each coefficient object once, by id
    word = tuple(gamma(f"x{k}") for k in range(10)) + (G5,) * g5
    traced = trace_word(word, FOUR_DIM if g5 else SYMBOLIC_DIM)
    assert len(traced.terms) == terms
    assert len({id(term.coeff) for term in traced.terms}) <= 2


def _pinned_words(count=600, seed=2505):
    """Words of 0-10 gammas with 0-2 g5 inserted anywhere; every odd word
    copies one or two labels onto other positions, so some labels repeat
    (a few three times, which is an error)."""
    rng = random.Random(seed)
    for k in range(count):
        length = rng.randint(0, 10)
        labels = rng.sample([f"x{i}" for i in range(12)] + ["mu", "nu", "$0", "Z"], length)
        if k % 2 and length > 1:
            for _ in range(rng.randint(1, 2)):
                i, j = rng.sample(range(length), 2)
                labels[i] = labels[j]
        word = [gamma(label) for label in labels]
        for _ in range(rng.randint(0, 2)):
            word.insert(rng.randint(0, len(word)), G5)
        yield tuple(word)


def test_trace_word_output_is_pinned():
    # any change of leaf order, sign, dummy name or error text changes the digest
    digest = hashlib.sha256()
    for word in _pinned_words():
        for mode in (SYMBOLIC_DIM, FOUR_DIM):
            try:
                out = repr(trace_word(word, mode))
            except (SchemeError, StructuralError) as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(out.encode() + b"\n")
    assert digest.hexdigest() == "84767dca76dd8ff4e6a0b8e2daf1790df920ce96fd0f5840208769d9fda8b035"
