"""Gamma-string expansion and spinor traces.

Conventions, fixed once and enforced by the numeric oracle:

    metric (+,-,-,-),  eps(0,1,2,3) = +1,  g5 = i g0 g1 g2 g3,
    tr(1) = 4,         tr(g^m g^n g^r g^s g5) = -4i eps^{mnrs}.

A trace is built as a flat list of terms, one per leaf of its expansion,
then canonicalized once.  Traces without g5 are 4 times the signed sum over
the (2n-1)!! pairings of their 2n labels into metric factors, which holds
at symbolic dimension.  Traces with g5 are strictly four-dimensional:
words longer than four gammas are reduced with

    g^m g^n g^r = eta^{mn} g^r - eta^{mr} g^n + eta^{nr} g^m
                  + i eps^{mnrs} g_s g5,

whose sign is pinned by the conventions above; every leaf is -4i times a
sign, a metric for each reduction step and one eps, followed in the eps
branch by a pairing.  Requesting a g5 trace at symbolic dimension is a
hard error, never a silent choice.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .algebra import (
    G5,
    Coefficient,
    Epsilon,
    Expression,
    FieldSlot,
    Metric,
    TensorFactor,
    Term,
    Word,
    canonicalize,
    gamma,
    normalize_word,
)

SYMBOLIC_DIM = "symbolic-d"
FOUR_DIM = "four"


class SchemeError(ValueError):
    """A gamma5 trace was requested at symbolic dimension."""


class ModelError(ValueError):
    """A vertex references an undeclared field slot."""


def commutator(mu: str, nu: str) -> Expression:
    """[g^mu, g^nu] as a two-term expression of gamma words."""
    return Expression.of(
        Term(Coefficient.one(), word=(gamma(mu), gamma(nu))),
        Term(Coefficient.rational(-1), word=(gamma(nu), gamma(mu))),
    )


def sigma_tensor(mu: str, nu: str) -> Expression:
    """(i/2)[g^mu, g^nu], the antisymmetric dipole tensor."""
    return commutator(mu, nu).scaled(Coefficient.imaginary(1, 2))


def expand_vertex(
    chirality: int,
    coeff: Coefficient,
    combo: Sequence[tuple[int, str]],
    mu: str = "mu",
    nu: str = "nu",
    declared_slots: Iterable[str] | None = None,
) -> Expression:
    """Dipole vertex coeff * (1 - i*chi*g5) * sigma^{mu nu} * sum_s sign_s X_s(mu,nu).

    The chirality projector is expanded into its unit part and its g5 part;
    every returned term carries one field-slot factor on the open (mu, nu)
    pair.  An empty combo gives the zero expression.
    """
    if chirality not in (+1, -1):
        raise ModelError(f"chirality must be +1 or -1, got {chirality!r}")
    if declared_slots is not None:
        known = set(declared_slots)
        for _, name in combo:
            if name not in known:
                raise ModelError(f"unknown slot name {name!r} in vertex combo")
    sigma = sigma_tensor(mu, nu)
    g5_factor = Expression.of(Term(Coefficient.imaginary(-chirality), word=(G5,)))
    # (1 - i*chi*g5) sigma = sigma + (-i*chi) sigma g5
    vertex = sigma + sigma * g5_factor
    terms: list[Term] = []
    for sign, slot in combo:
        slot_factor = Expression.of(
            Term(Coefficient.rational(sign), factors=(FieldSlot(slot, mu, nu),))
        )
        terms.extend((vertex * slot_factor).scaled(coeff).terms)
    return canonicalize(Expression(tuple(terms)))


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def _pairings(labels: tuple[str, ...]) -> Iterator[tuple[int, tuple[Metric, ...]]]:
    """Every perfect pairing of an even label tuple, as (sign, metric factors).

    The first label pairs with each later one in turn, signs alternating
    from +1, and the remaining labels pair recursively: the (2n-1)!!
    pairings of 2n labels, in the order of the recursive trace expansion.
    """
    if not labels:
        yield 1, ()
        return
    first, rest = labels[0], labels[1:]
    for j, partner in enumerate(rest):
        metric = Metric(first, partner)
        sign = -1 if j % 2 else 1
        for sub_sign, sub in _pairings(rest[:j] + rest[j + 1 :]):
            yield sign * sub_sign, (metric,) + sub


def _g5_pairings(
    labels: tuple[str, ...], depth: int = 0
) -> Iterator[tuple[int, tuple[TensorFactor, ...]]]:
    """tr(g^{a1}...g^{an} g5) at d = 4, n even, as (sign, factors) leaves.

    The trace is -4i times the signed sum of the leaves.  Words of four
    gammas give one eps leaf; longer words apply the reduction identity to
    their first three labels.  Its three metric branches recurse on the
    word two gammas shorter.  Its eps branch, +i eps^{abcs} g_s g5, leaves
    the inserted g5 to hop over the odd-length remainder (sign -1) and
    square away: a plain trace against eps^{abc s} with net coefficient -i,
    so each pairing of (s, rest) is a leaf.  The contracted s is the aux
    label ``!t<depth>``, distinct at every depth.  That gives 1, 6, 33 and
    204 leaves for 4, 6, 8 and 10 gammas.
    """
    n = len(labels)
    if n < 4:
        return
    if n == 4:
        yield 1, (Epsilon(labels),)
        return
    a, b, c = labels[:3]
    rest = labels[3:]
    for sign, pair, keep in ((1, (a, b), c), (-1, (a, c), b), (1, (b, c), a)):
        metric = Metric(*pair)
        for sub_sign, sub in _g5_pairings((keep,) + rest, depth + 1):
            yield sign * sub_sign, (metric,) + sub
    aux = f"!t{depth}"
    eps = Epsilon((a, b, c, aux))
    for sub_sign, sub in _pairings((aux,) + rest):
        yield sub_sign, (eps,) + sub


def trace_word(word: Word, dim_mode: str = SYMBOLIC_DIM) -> Expression:
    """Spinor trace of a single gamma word; result has tensor factors only.

    One Term per leaf of the enumeration, canonicalized once: 4 times each
    signed pairing without g5, -4i times each signed leaf of the reduction
    identity with g5.
    """
    sign, normalized = normalize_word(word)
    has_g5 = bool(normalized) and normalized[-1] == G5
    labels = tuple(letter[1] for letter in normalized if letter != G5)
    if has_g5 and dim_mode != FOUR_DIM:
        raise SchemeError(
            "gamma5 traces are defined only at d = 4; "
            "pass dim_mode='four' to accept the four-dimensional scheme"
        )
    if len(labels) % 2:
        return Expression.zero()
    if has_g5:
        leaves, unit = _g5_pairings(labels), Coefficient.imaginary(-4 * sign)
    else:
        leaves, unit = _pairings(labels), Coefficient.rational(4 * sign)
    coeffs = {1: unit, -1: -unit}
    terms = tuple(Term(coeffs[s], factors=factors) for s, factors in leaves)
    return canonicalize(Expression(terms))


def trace(expr: Expression, dim_mode: str = SYMBOLIC_DIM) -> Expression:
    """Trace every pending gamma word in expr; spectator factors pass through."""
    terms: list[Term] = []
    for term in expr.terms:
        if term.word is None:
            terms.append(term)
            continue
        traced = trace_word(term.word, dim_mode)
        rest = Expression.of(Term(term.coeff, factors=term.factors))
        terms.extend((rest * traced).terms)
    return canonicalize(Expression(tuple(terms)))
