"""Gamma-string expansion and spinor traces.

Conventions, fixed once and enforced by the numeric oracle:

    metric (+,-,-,-),  eps(0,1,2,3) = +1,  g5 = i g0 g1 g2 g3,
    tr(1) = 4,         tr(g^m g^n g^r g^s g5) = -4i eps^{mnrs}.

A word's trace is a flat list of terms, one per leaf of its expansion,
built canonical for distinct labels; ``trace`` contracts what it returns.
Traces without g5 are 4 times the signed sum over the (2n-1)!! pairings
of their 2n labels into metric factors, which holds at symbolic
dimension.  Traces with g5 are strictly four-dimensional: words longer
than four gammas are reduced with

    g^m g^n g^r = eta^{mn} g^r - eta^{mr} g^n + eta^{nr} g^m
                  + i eps^{mnrs} g_s g5,

whose sign is pinned by the conventions above; every leaf is -4i times a
sign, a metric for each reduction step and one eps, followed in the eps
branch by a pairing.  The eps branch's contracted s is paired at once with
each later label, so the leaves carry only the word's own labels.  Every
trace has one way in: the mode is checked first, then ``_leaves`` builds
the word's tables (positions in label order, a metric per position pair,
a pairing memo per position set, shared by every eps branch) and runs one
recursion over position masks.  Each leaf is one tuple concatenation onto
a memoized shorter leaf, and leaves share their factor objects, which the
numeric oracle relies on.  The recursions are module-level functions
handed the tables: as closures in ``_leaves`` they sat in reference
cycles (6,306 objects for a plain and a g5 trace of ten gammas), keeping
every memoized leaf alive until the cyclic collector ran.  A g5 trace at
symbolic dimension, or an unknown ``dim_mode``, is a hard error, never a
silent choice.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import combinations
from operator import attrgetter

from .algebra import (
    G5,
    Coefficient,
    Expression,
    FieldSlot,
    Metric,
    StructuralError,
    TensorFactor,
    Term,
    Word,
    _factor_of,
    _keyed,
    canonicalize,
    contract,
    gamma,
    normalize_word,
)

SYMBOLIC_DIM = "symbolic-d"
FOUR_DIM = "four"


class SchemeError(ValueError):
    """A gamma5 trace at symbolic d, a trace in an unknown ``dim_mode``, or a
    loop kernel at a d neither 4 nor symbolic."""


class ModelError(ValueError):
    """A model or assignment the engine cannot use: an undeclared slot, an
    unsupported dimension or chirality, a term of unrecognized tensor
    structure, an ambiguous absorb or a bad ``--set``."""


def commutator(mu: str, nu: str) -> Expression:
    """[g^mu, g^nu] as a two-term expression of gamma words."""
    return Expression.of(
        Term(Coefficient.one(), word=(gamma(mu), gamma(nu))),
        Term(Coefficient.rational(-1), word=(gamma(nu), gamma(mu))),
    )


def expand_vertex(chirality: int, slot: str, mu: str, nu: str) -> Expression:
    """Unit dipole vertex (1 - i*chi*g5) * sigma^{mu nu} * X_slot(mu,nu).

    The chirality projector is expanded into its unit part and its g5 part;
    every returned term carries the field-slot factor on the open (mu, nu)
    pair.
    """
    if chirality not in (+1, -1):
        raise ModelError(f"chirality must be +1 or -1, got {chirality!r}")
    sigma = commutator(mu, nu).scaled(Coefficient.imaginary(1, 2))  # (i/2)[g^mu, g^nu]
    g5_factor = Expression.of(Term(Coefficient.imaginary(-chirality), word=(G5,)))
    # (1 - i*chi*g5) sigma = sigma + (-i*chi) sigma g5
    vertex = sigma + sigma * g5_factor
    slot_factor = Expression.of(Term(Coefficient.one(), factors=(FieldSlot(slot, mu, nu),)))
    return canonicalize(vertex * slot_factor)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


# The coefficient of each leaf, by (word has g5, word sign), then leaf sign:
# 4 times the sign without g5, -4i times it with g5.
_FOUR, _MINUS_FOUR = Coefficient.rational(4), Coefficient.rational(-4)
_FOUR_I, _MINUS_FOUR_I = Coefficient.imaginary(4), Coefficient.imaginary(-4)
_LEAF_COEFFS = {
    (False, 1): {1: _FOUR, -1: _MINUS_FOUR},
    (False, -1): {1: _MINUS_FOUR, -1: _FOUR},
    (True, 1): {1: _MINUS_FOUR_I, -1: _FOUR_I},
    (True, -1): {1: _FOUR_I, -1: _MINUS_FOUR_I},
}


_LOWER_LABEL = attrgetter("i")  # a metric's lower label, the key its leaf is sorted by


def _check_mode(dim_mode: str) -> None:
    if dim_mode not in (SYMBOLIC_DIM, FOUR_DIM):
        raise SchemeError(f"unknown dim_mode {dim_mode!r}; pass {SYMBOLIC_DIM!r} or {FOUR_DIM!r}")


def _leaves(labels: tuple[str, ...], has_g5: bool) -> list[tuple[int, tuple[TensorFactor, ...]]]:
    """Every leaf of an even label tuple's trace, as (sign, factors), from
    one set of tables (each metric with its lower label first) passed down."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    metrics = {(p, q): Metric(labels[p], labels[q]) for p, q in combinations(order, 2)}
    memo, mask = {0: [(1, ())]}, (1 << len(labels)) - 1
    if has_g5:
        return _g5_pairings_of(labels, order, metrics, memo, {}, mask)
    return _pairings_of(order, metrics, memo, mask)


def _pairings_of(order: list[int], metrics: dict, memo: dict, mask: int) -> list:
    """Every perfect pairing of the word positions in ``mask``, as (sign,
    metric factors), built once per mask.

    The Pfaffian is expanded along the least remaining label, paired with
    each other remaining label in ascending order; the sign is the parity
    of the remaining labels between the two in the word.  Each pair costs
    one metric lookup and one sign, each leaf one tuple.  Each metric and
    each leaf's metrics come out ascending and, for distinct labels, so do
    the (2n-1)!! leaves: ``canonicalize``'s form and order.
    """
    if mask not in memo:
        p, *rest = [q for q in order if mask >> q & 1]
        memo[mask] = leaves = []
        for q in rest:
            between = mask & ((1 << q) - (2 << p) if p < q else (1 << p) - (2 << q))
            sub = _pairings_of(order, metrics, memo, mask ^ 1 << p ^ 1 << q)
            leaves += _prefixed((metrics[p, q],), sub, between.bit_count() % 2)
    return memo[mask]


def _prefixed(head: tuple, sub: list, flip: int) -> list:
    """``sub``'s leaves with ``head`` before their factors, signs negated if ``flip``."""
    if flip:
        return [(-s, head + f) for s, f in sub]
    return [(s, head + f) for s, f in sub]


def _g5_pairings_of(
    labels: tuple[str, ...], order: list[int], metrics: dict, memo: dict, g5_memo: dict, mask: int
) -> list:
    """tr(g^{a1}...g^{an} g5) at d = 4 over the word positions in ``mask``,
    n even, as (sign, (eps, *metrics)) leaves built once per mask.

    The trace is -4i times the signed sum of the leaves.  Words of four or
    more gammas apply the reduction identity to their first three labels.
    Its three metric branches recurse on the word two gammas shorter, empty
    below four, and insert their metric into each shorter leaf by lower
    label.  Its eps branch, +i eps^{abcs} g_s g5, leaves the inserted g5 to
    hop over the odd-length remainder (sign -1) and square away: a plain
    trace against eps^{abc s} with net coefficient -i.  Its first pairing
    step contracts s with each later label r_j in turn, sign (-1)^j, so a
    leaf is eps^{abc r_j} times a ``_pairings_of`` leaf of the other
    labels: no label is added, and a word of distinct labels gives leaves
    without dummies: 1, 6, 33 and 204 for 4, 6, 8 and 10 gammas.  Metrics
    and eps have their labels sorted, eps's parity folded into the sign
    (both by ``algebra._keyed``, which also drops an eps with a repeated
    label), and each leaf's metrics are in ascending order.
    """
    if mask in g5_memo:
        return g5_memo[mask]
    g5_memo[mask] = leaves = []
    positions = [p for p in range(len(labels)) if mask >> p & 1]
    if len(positions) < 4:
        return leaves
    a, b, c, *rest = positions
    for sign, p, q in ((1, a, b), (-1, a, c), (1, b, c)):
        metric = metrics[p, q] if (p, q) in metrics else metrics[q, p]
        m, lower = (metric,), metric.i
        sub = _g5_pairings_of(labels, order, metrics, memo, g5_memo, mask ^ 1 << p ^ 1 << q)
        for s, f in sub:
            k = bisect_right(f, lower, 1, key=_LOWER_LABEL)
            leaves.append((sign * s, f[:k] + m + f[k:]))
    for j, r in enumerate(rest):
        key, parity = _keyed("Epsilon", "", (labels[a], labels[b], labels[c], labels[r]))
        if parity:
            sub = _pairings_of(order, metrics, memo, mask ^ 1 << a ^ 1 << b ^ 1 << c ^ 1 << r)
            leaves += _prefixed((_factor_of(key),), sub, (parity < 0) ^ (j % 2))
    return leaves


def trace_word(word: Word, dim_mode: str = SYMBOLIC_DIM) -> Expression:
    """Spinor trace of a single gamma word; result has tensor factors only.

    One Term per leaf: 4 times each signed pairing without g5, -4i times
    each signed leaf of the reduction identity with g5.  The leaves of
    distinct labels never merge, so they are the canonical form as built,
    the g5 ones once sorted by their factors (eps, then metric pairs).  A
    word with a repeated label is canonicalized, which merges leaves and
    names dummies; a label used more than twice is a StructuralError
    naming the word, raised before any leaf is built.  A ``dim_mode`` other
    than SYMBOLIC_DIM and FOUR_DIM is a SchemeError, raised first.
    """
    _check_mode(dim_mode)
    sign, normalized = normalize_word(word)
    has_g5 = bool(normalized) and normalized[-1] == G5
    labels = tuple(letter[1] for letter in normalized if letter != G5)
    if has_g5 and dim_mode != FOUR_DIM:
        raise SchemeError(
            "gamma5 traces are defined only at d = 4; "
            "pass dim_mode='four' to accept the four-dimensional scheme"
        )
    distinct = len(set(labels)) == len(labels)
    if not distinct:
        bad = sorted(label for label, c in Counter(labels).items() if c > 2)
        if bad:
            raise StructuralError(
                f"index label(s) {bad} occur more than twice in gamma word {word!r}"
            )
    if len(labels) % 2:
        return Expression.zero()
    leaves = _leaves(labels, has_g5)
    if has_g5 and distinct:
        leaves.sort(key=lambda leaf: (leaf[1][0].idx, [(m.i, m.j) for m in leaf[1][1:]]))
    coeffs = _LEAF_COEFFS[has_g5, sign]
    terms = tuple([Term(coeffs[s], f) for s, f in leaves])
    return Expression(terms) if distinct else canonicalize(Expression(terms))


def trace(expr: Expression, dim_mode: str = SYMBOLIC_DIM) -> Expression:
    """Trace every pending gamma word in expr, times its spectator factors,
    and contract: no returned term holds a metric carrying a dummy.  An
    unknown ``dim_mode`` is a SchemeError, raised first."""
    _check_mode(dim_mode)
    terms: list[Term] = []
    for term in expr.terms:
        if term.word is None:
            terms.append(term)
            continue
        traced = trace_word(term.word, dim_mode)
        rest = Expression.of(Term(term.coeff, factors=term.factors))
        terms.extend((rest * traced).terms)
    return contract(Expression(tuple(terms)))
