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
the word's positions in rank order (by label, ties by position) and a
metric per position pair.  A plain trace's leaves, in ranks, do not depend
on the word: ``_pairing_table`` lists each length's pairings once per
process, which the eps branches of a g5 trace read too.  Leaves share
their factor objects, which the numeric oracle relies on.  The g5
recursion is a module-level function, so its memoized leaves sit in no
reference cycle.  A g5 trace at symbolic d, or an unknown ``dim_mode``, is
a hard error."""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import combinations
from operator import attrgetter, itemgetter

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


# The coefficient of each leaf by whether its word has g5, then by its sign
# bit: 4 times the sign without g5, -4i times it with g5.
_LEAF_COEFFS = {
    False: (Coefficient.rational(4), Coefficient.rational(-4)),
    True: (Coefficient.imaginary(-4), Coefficient.imaginary(4)),
}
_LOWER_LABEL = attrgetter("i")  # a metric's lower label, the key its leaf is sorted by


def _check_mode(dim_mode: str) -> None:
    if dim_mode not in (SYMBOLIC_DIM, FOUR_DIM):
        raise SchemeError(f"unknown dim_mode {dim_mode!r}; pass {SYMBOLIC_DIM!r} or {FOUR_DIM!r}")


def _leaves(labels: tuple[str, ...], has_g5: bool) -> list[tuple[int, tuple[TensorFactor, ...]]]:
    """Every leaf of an even label tuple's trace, as (sign bit, factors).
    A plain word reads its length's pairing table in rank order: with
    ``inv`` the mask of rank pairs whose positions are reversed, a leaf's
    sign is (-1)^(popcount(inv) + parity + popcount(inv & mask)), the rank
    order's sign times the pairing's in ranks times -1 per reversed pair.
    Tables cost 0.3-0.5 ms on first use up to length 8, 2-3 ms more for 10."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    metrics = {(p, q): Metric(labels[p], labels[q]) for p, q in combinations(order, 2)}
    if has_g5:
        return _g5_pairings_of(labels, order, metrics, {}, (1 << len(labels)) - 1)
    return _pairings(order, metrics)


@lru_cache(maxsize=None)
def _pairing_table(n: int) -> tuple[tuple[int, int, itemgetter], ...]:
    """The pairings of ranks 0..n-1, n even, as (mask, parity, get), kept
    for the process (0.23 MB for n = 10): the Pfaffian's expansion along
    rank 0, paired with each s ascending at sign (-1)^(s-1), from table
    n - 2.  Rank pair k, in ``combinations`` order, is bit k of ``mask``;
    ``parity`` counts crossing pairs mod 2; ``get`` reads the pairs, k
    ascending, from a tuple in k order, as a tuple even for n = 2."""
    ids = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
    table = [] if n else [(0, 0, itemgetter(slice(0)))]
    for s in range(1, n):
        moved = tuple(ids[pair] for pair in combinations([r for r in range(1, n) if r != s], 2))
        for sub_mask, sub_parity, sub_get in _pairing_table(n - 2):
            pair_ids = (ids[0, s], *sub_get(moved))
            get = itemgetter(*pair_ids) if n > 2 else itemgetter(slice(1))
            table.append((sum(1 << k for k in pair_ids), sub_parity ^ (s - 1) & 1, get))
    return tuple(table)


def _pairings(order: list[int], metrics: dict, head: tuple = (), flip: int = 0) -> list:
    """(sign bit ^ ``flip``, ``head`` + metrics) per pairing of the positions
    ``order`` lists by rank.  Each metric and each leaf's metrics come out
    ascending and, for distinct labels, so do the (2n-1)!! leaves:
    ``canonicalize``'s form and order."""
    row, inv = [], 0
    for k, pair in enumerate(combinations(order, 2)):
        row.append(metrics[pair])
        inv |= (pair[0] > pair[1]) << k
    row, flip = tuple(row), flip ^ inv.bit_count() & 1
    return [
        (flip ^ parity ^ (inv & mask).bit_count() & 1, head + get(row))
        for mask, parity, get in _pairing_table(len(order))
    ]


def _g5_pairings_of(
    labels: tuple[str, ...], order: list[int], metrics: dict, g5_memo: dict, mask: int
) -> list:
    """tr(g^{a1}...g^{an} g5) at d = 4 over the word positions in ``mask``,
    n even, as (sign bit, (eps, *metrics)) leaves built once per mask.

    The trace is -4i times the signed sum of the leaves.  Words of four or
    more gammas apply the reduction identity to their first three labels.
    Its three metric branches recurse on the word two gammas shorter, empty
    below four, and insert their metric into each shorter leaf by lower
    label.  Its eps branch, +i eps^{abcs} g_s g5, leaves the inserted g5 to
    hop over the odd-length remainder (sign -1) and square away: a plain
    trace against eps^{abc s} with net coefficient -i.  Its first pairing
    step contracts s with each later label r_j, sign (-1)^j, so a leaf is
    eps^{abc r_j} times a ``_pairings`` leaf of the other labels, and
    distinct labels give leaves without dummies (1, 6, 33 and 204 for 4,
    6, 8 and 10 gammas).  ``algebra._keyed`` sorts eps's labels, folding
    their parity into the sign, and drops an eps with a repeated label."""
    if mask in g5_memo:
        return g5_memo[mask]
    g5_memo[mask] = leaves = []
    positions = [p for p in range(len(labels)) if mask >> p & 1]
    if len(positions) < 4:
        return leaves
    a, b, c, *rest = positions
    for flip, p, q in ((0, a, b), (1, a, c), (0, b, c)):
        metric = metrics[p, q] if (p, q) in metrics else metrics[q, p]
        m, lower = (metric,), metric.i
        sub = _g5_pairings_of(labels, order, metrics, g5_memo, mask ^ 1 << p ^ 1 << q)
        for s, f in sub:
            k = bisect_right(f, lower, 1, key=_LOWER_LABEL)
            leaves.append((flip ^ s, f[:k] + m + f[k:]))
    ranked = [q for q in order if q > c and mask >> q & 1]  # rest, in rank order
    for j, r in enumerate(rest):
        key, parity = _keyed("Epsilon", "", (labels[a], labels[b], labels[c], labels[r]))
        if parity:
            others = [q for q in ranked if q != r]
            leaves += _pairings(others, metrics, (_factor_of(key),), (parity < 0) ^ j & 1)
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
    coeffs = _LEAF_COEFFS[has_g5][::sign]  # a word sign of -1 swaps them
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
