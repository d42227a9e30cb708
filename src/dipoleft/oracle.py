"""The floating-point oracle: gamma tables and an as-written evaluator.

The Dirac representation is fixed for reproducibility; anything with
metric (+,-,-,-) and eps(0,1,2,3) = +1 would do.  It is held once, as
exact monomial tables that ``numeric_trace`` multiplies.  Everything here
is pure Python.

A symbolic trace is evaluated as written, the way ``trace_word`` returns
it: eta = diag(1,-1,-1,-1), eps^{0123} = +1, d = 4, and a label occurring
twice summed over 0..3 with one index lowered.  The evaluator uses none of
the engine's algebra (no contraction, dimension substitution or
canonicalization), so a fault there cannot cancel against the same fault
in the value it is checked against.  Each factor and coefficient object is
read once per call, and an index value must be an int in 0..3.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import Mapping

from .algebra import Coefficient, G5, Expression, Metric, Epsilon, Term, Word

ETA = (1.0, -1.0, -1.0, -1.0)  # diagonal of the metric eta


# eps at each permutation of 0..3: the sign of its inversion count.
_EPSILON = {
    p: -1 if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 else 1
    for p in itertools.permutations(range(4))
}


def _epsilon_value(indices: tuple[int, ...]) -> int:
    return _EPSILON.get(indices, 0)


# The Dirac representation, g0 = diag(1, 1, -1, -1) and g^k = [[0, s_k], [-s_k, 0]],
# as monomial tables: each matrix has one entry i^p per row, in column c; a row is (c, p).
_PHASE = (1, 1j, -1, -1j)  # i^p
_GAMMA_TABLES = (
    ((0, 0), (1, 0), (2, 2), (3, 2)),
    ((3, 0), (2, 0), (1, 2), (0, 2)),
    ((3, 3), (2, 1), (1, 1), (0, 3)),
    ((2, 0), (3, 2), (0, 2), (1, 0)),
)


def _times(rows: list, table: tuple) -> list:
    """Rows of the monomial product A B: A's row in column c goes on through B's row c."""
    return [(table[c][0], p + table[c][1]) for c, p in rows]


_G5_TABLE = tuple(  # g5 = i g0 g1 g2 g3
    (c, p % 4) for c, p in functools.reduce(_times, _GAMMA_TABLES, [(r, 1) for r in range(4)]))


def _check_indices(assignment: dict[str, int]) -> None:
    """Reject an index value that is not an int in 0..3 (a bool is not one)."""
    for label, value in assignment.items():
        if type(value) is not int or not 0 <= value <= 3:
            raise ValueError(f"index {label!r} has value {value!r}, not an int in 0..3")


def numeric_trace(word: Word, assignment: dict[str, int]) -> complex:
    """Trace of the explicit matrix product for concretely assigned indices: the
    exact product of monomial tables, summing i^p over the rows left on the diagonal."""
    _check_indices(assignment)
    rows = [(r, 0) for r in range(4)]
    try:
        for letter in word:
            rows = _times(rows, _G5_TABLE if letter == G5 else _GAMMA_TABLES[assignment[letter[1]]])
    except KeyError as missing:
        raise ValueError(f"free index {missing.args[0]!r} has no assigned value") from None
    return complex(sum(_PHASE[p % 4] for r, (c, p) in enumerate(rows) if c == r))


def _check_term(term: Term) -> None:
    """Reject a pending word, then a coefficient other than a Gaussian rational times d^k."""
    if term.word is not None:
        raise ValueError("numeric evaluation handles traced terms only")
    coeff = term.coeff
    if coeff.logs or coeff.eps_power or any(name != "d" for name, _ in coeff.consts):
        raise ValueError(f"coefficient {coeff!r} is not a pure Gaussian rational")


_AT_FOUR = {"d": 4.0}  # the one constant ``_check_term`` lets through


def _number(coeff: Coefficient, consts: Mapping[str, float], logs: Mapping[str, float]) -> complex:
    """A coefficient's value, each constant read from ``consts`` and each log atom from ``logs``."""
    return (
        complex(coeff.re, coeff.im)
        * math.prod(consts[n] ** k for n, k in coeff.consts)
        * math.prod(logs[a] ** k for a, k in coeff.logs)
    )


def _factor_entry(f, assignment: dict[str, int], bits: dict[str, int]) -> tuple:
    """(is_eps, labels, label bits, value) of an eta or eps factor; the value
    at ``assignment`` is None unless its labels are distinct and assigned."""
    if type(f) is Metric:
        i, j = f.i, f.j
        mask = bits.setdefault(i, 1 << len(bits)) | bits.setdefault(j, 1 << len(bits))
        a, b = assignment.get(i), assignment.get(j)
        if i == j or a is None or b is None:
            return False, (i, j), mask, None
        return False, (i, j), mask, ETA[a] if a == b else 0.0
    if type(f) is Epsilon:
        idx = f.idx
        mask = 0
        for x in idx:
            mask |= bits.setdefault(x, 1 << len(bits))
        values = tuple(assignment.get(x) for x in idx)
        if mask.bit_count() < 4 or None in values:
            return True, idx, mask, None
        return True, idx, mask, 1.0 * _epsilon_value(values)
    raise ValueError(f"factor {f!r} has no numeric value")


def _summed(entries: list[tuple], assignment: dict[str, int]) -> float:
    """Product of a term's factor entries, summed over the 4^k values of its
    k labels used twice, with one index of each lowered by eta; each label
    used once is read from ``assignment``."""
    counts = collections.Counter(x for _, idx, _, _ in entries for x in idx)
    dummies = []
    for label, count in counts.items():
        if count == 2:
            dummies.append(label)
        elif count > 2:
            raise ValueError(f"index {label!r} occurs {count} times")
        elif label not in assignment:
            raise ValueError(f"free index {label!r} has no assigned value")
    values = dict(assignment)
    total = 0.0
    for trial in itertools.product(range(4), repeat=len(dummies)):
        values.update(zip(dummies, trial))
        value = math.prod(ETA[v] for v in trial)  # a term without factors is 1
        for is_eps, idx, _, _ in entries:
            v = tuple(values[x] for x in idx)
            value *= _epsilon_value(v) if is_eps else (ETA[v[0]] if v[0] == v[1] else 0.0)
            if not value:
                break
        total += value
    return total


def evaluate_term_numeric(term: Term, assignment: dict[str, int]) -> complex:
    """Value of one term as written: its number times the sum over its
    dummies of every factor, without the fast path of
    ``evaluate_expression_numeric``; see there."""
    _check_indices(assignment)
    _check_term(term)
    bits: dict[str, int] = {}
    value = _summed([_factor_entry(f, assignment, bits) for f in term.factors], assignment)
    return _number(term.coeff, _AT_FOUR, {}) * value if value else 0j


def evaluate_expression_numeric(expr: Expression, assignment: dict[str, int]) -> complex:
    """Value of an expression as written, at the free-index values ``assignment``.

    Every factor is read with upper indices, eta = diag(1,-1,-1,-1) and
    eps^{0123} = +1, and each power of d is 4.  A label occurring twice in
    a term is summed over 0..3 with one index lowered by eta; a label
    occurring once takes its value from ``assignment``, whose values must
    each be an int in 0..3.  No engine algebra runs: the expression is
    neither contracted nor canonicalized, so the value checks the form
    ``trace_word`` returns.  Terms with a pending gamma word, log atoms,
    eps poles, a constant other than d, or a factor other than eta and eps
    raise ``ValueError``.

    Each factor and coefficient object is read once per call and kept by
    identity (``trace_word``'s leaves share them): a factor's labels and
    value, a coefficient's check, and its number once a term of it is
    nonzero.  One walk multiplies a term's factor values while its labels
    are distinct and assigned; else the term is summed over its dummies, as
    in ``evaluate_term_numeric``.  Terms add left to right.
    """
    _check_indices(assignment)
    scalars: dict[int, complex | None] = {}  # None: checked, number not yet needed
    entries: dict[int, tuple] = {}
    bits: dict[str, int] = {}

    def entry(f) -> tuple:
        entries[id(f)] = found = _factor_entry(f, assignment, bits)
        return found

    total = 0j
    for term in expr.terms:
        key = id(term.coeff)
        if term.word is not None or key not in scalars:
            _check_term(term)
            scalars[key] = None
        value, seen = 1.0, 0
        for f in term.factors:
            _, _, mask, v = entries.get(id(f)) or entry(f)
            if v is None or seen & mask:
                row = [entries.get(id(f)) or entry(f) for f in term.factors]
                value = _summed(row, assignment)
                break
            seen |= mask
            value *= v
        if value:
            if (number := scalars[key]) is None:
                number = scalars[key] = _number(term.coeff, _AT_FOUR, {})
            total += number * value
    return total
