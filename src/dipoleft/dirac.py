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
trace has one way in: the mode is checked first, then ``_leaves`` reads
its length's table, which does not depend on the word, and instantiates
it on the word's positions in rank order (by label, ties by position).
``_pairing_table`` lists each length's pairings of ranks, and
``_g5_table`` the g5 leaves over positions, its eps branches read from
the pairing table; each is built once per process.  Leaves share their
factor objects, which the numeric oracle relies on.  A g5 trace at
symbolic d, or an unknown ``dim_mode``, is a hard error."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from operator import itemgetter

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


def _check_mode(dim_mode: str) -> None:
    if dim_mode not in (SYMBOLIC_DIM, FOUR_DIM):
        raise SchemeError(f"unknown dim_mode {dim_mode!r}; pass {SYMBOLIC_DIM!r} or {FOUR_DIM!r}")


def _leaves(labels: tuple[str, ...], has_g5: bool) -> list[tuple[int, tuple[TensorFactor, ...]]]:
    """Every leaf of an even label tuple's trace, as (sign bit, factors),
    read from its length's table, each metric ordered by label rank (by
    label, ties by position) and built once per word.  A plain word reads
    the pairing table in rank order: with ``inv`` the mask of rank pairs
    whose positions are reversed, a leaf's sign is (-1)^(popcount(inv) +
    parity + popcount(inv & mask)), the rank order's sign times the
    pairing's in ranks times -1 per reversed pair.  A g5 word reads the g5
    table: each eps quadruple is keyed once, its parity flipping its
    leaves' signs and a repeated label dropping them; each leaf's metrics
    are ordered by lower label, and the leaves by their factors' ranks.
    The two tables cost 0.4 ms on first use up to length 8 and 2 ms more
    for 10 (Python 3.11, x86_64)."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    if has_g5:
        return _g5_leaves(labels, order)
    row, inv = [], 0
    for k, (p, q) in enumerate(combinations(order, 2)):
        row.append(Metric(labels[p], labels[q]))
        inv |= (p > q) << k
    row, flip = tuple(row), inv.bit_count() & 1
    return [
        (flip ^ parity ^ (inv & mask).bit_count() & 1, get(row))
        for mask, parity, get in _pairing_table(len(labels))
    ]


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


@lru_cache(maxsize=None)
def _g5_table(n: int) -> tuple[tuple, tuple, tuple]:
    """tr(g^{p0}...g^{p(n-1)} g5) at d = 4 over word positions 0..n-1, n
    even, as (quads, pairs, leaves), kept for the process: each leaf is
    (sign bit, k, ids), one eps on the positions ``quads[k]`` and a metric
    on each position pair ``pairs[i]`` for i in ``ids``.

    The trace is -4i times the signed sum of the leaves.  Words of four or
    more gammas apply the reduction identity to their first three
    positions.  Its three metric branches read table n - 2 on the other
    positions, empty below four.  Its eps branch, +i eps^{abcs} g_s g5,
    leaves the inserted g5 to hop over the odd-length remainder (sign -1)
    and square away: a plain trace against eps^{abc s} with net
    coefficient -i.  Its first pairing step contracts s with each later
    position r_j, sign (-1)^j, so a leaf is eps^{abc r_j} times a pairing
    of the other positions, from ``_pairing_table``: 1, 6, 33 and 204
    leaves for 4, 6, 8 and 10 gammas, none of them with a dummy."""
    quads: dict[tuple, int] = {}
    pairs: dict[tuple, int] = {}
    leaves = []

    def add(sign: int, quad: tuple, leaf_pairs) -> None:
        ids = tuple(pairs.setdefault(pair, len(pairs)) for pair in leaf_pairs)
        leaves.append((sign, quads.setdefault(quad, len(quads)), ids))

    if n >= 4:
        sub_quads, sub_pairs, sub_leaves = _g5_table(n - 2)
        for flip, p, q in ((0, 0, 1), (1, 0, 2), (0, 1, 2)):
            at = [r for r in range(n) if r != p and r != q]
            for s, k, ids in sub_leaves:
                moved = ((at[i], at[j]) for i, j in map(sub_pairs.__getitem__, ids))
                add(flip ^ s, tuple(at[i] for i in sub_quads[k]), ((p, q), *moved))
        for r in range(3, n):
            others = tuple(combinations([s for s in range(3, n) if s != r], 2))
            for _, parity, get in _pairing_table(n - 4):
                add(parity ^ (r - 3) & 1, (0, 1, 2, r), get(others))
    return tuple(quads), tuple(pairs), tuple(leaves)


def _g5_leaves(labels: tuple[str, ...], order: list[int]) -> list:
    """The g5 table of ``labels``' length, instantiated: see ``_leaves``.
    Rank pair (i, j) has code i*n + j, so codes order metrics as
    ``canonicalize`` orders their keys."""
    n = len(labels)
    quads, pairs, table = _g5_table(n)
    rank = sorted(range(n), key=order.__getitem__)
    eps = []
    for quad in quads:
        key, parity = _keyed("Epsilon", "", itemgetter(*quad)(labels))
        eps.append((key, _factor_of(key), parity < 0) if parity else None)
    codes, metric_at = [], [None] * (n * n)
    for p, q in pairs:
        i, j = (rank[p], rank[q]) if rank[p] < rank[q] else (rank[q], rank[p])
        codes.append(i * n + j)
        metric_at[i * n + j] = Metric(labels[order[i]], labels[order[j]])
    keys, leaves, code, metric = [], [], codes.__getitem__, metric_at.__getitem__
    for s, k, ids in table:
        if eps[k] is not None:
            key, factor, flip = eps[k]
            ranked = sorted(map(code, ids))
            keys.append((key, *ranked))
            leaves.append((s ^ flip, (factor, *map(metric, ranked))))
    return [leaves[i] for i in sorted(range(len(leaves)), key=keys.__getitem__)]


def trace_word(word: Word, dim_mode: str = SYMBOLIC_DIM) -> Expression:
    """Spinor trace of a single gamma word; result has tensor factors only.

    One Term per leaf: 4 times each signed pairing without g5, -4i times
    each signed leaf of the reduction identity with g5.  The leaves of
    distinct labels never merge, and ``_leaves`` orders them and their
    factors as ``canonicalize`` would, g5 ones from the g5 table too, so
    they are the canonical form as built.  A word with a repeated label
    is canonicalized, which merges leaves and names dummies; a label used
    more than twice is a StructuralError naming the word, raised before
    any leaf is built.  A ``dim_mode`` other than SYMBOLIC_DIM and
    FOUR_DIM is a SchemeError, raised first.
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
