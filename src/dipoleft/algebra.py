"""Exact symbolic algebra for tensor expressions.

Everything here is exact: coefficients are Gaussian rationals times a
monomial in named constants, times formal logarithm atoms, times an
integer power of the pole parameter eps = 4 - d.  Tensor structure is a
multiset of factors (metric, Levi-Civita, momenta, antisymmetric field
slots) with string-labelled indices.  An index appearing twice in a term
is a contracted dummy; once, a free index.  The spacetime dimension d is
carried as a distinguished constant and only ever substituted explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Union

# Names the engine owns; model files may not declare them as constants.
RESERVED_NAMES = frozenset({"pi", "I0", "Z", "d", "eps", "gammaE", "Lambda"})

# Formal logarithm atoms closed under the algebra in scope.
LOG_MU = "log(mu^2/m^2)"
LOG_4PI = "log(4pi)"
LOG_LAMBDA = "log(Lambda/m)"

_DUMMY_PREFIX = "$"


class StructuralError(ValueError):
    """An expression violates index arity (some label occurs more than twice)."""


class ExpressionError(ValueError):
    """Operation applied to an expression outside its contract."""


def _powmap(items: Mapping[str, int] | Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    if isinstance(items, Mapping):
        items = items.items()
    merged: dict[str, int] = {}
    for name, exp in items:
        merged[name] = merged.get(name, 0) + exp
        if merged[name] == 0:
            del merged[name]
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class Coefficient:
    """Gaussian rational times a monomial in constants, log atoms and eps powers."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)
    consts: tuple[tuple[str, int], ...] = ()
    logs: tuple[tuple[str, int], ...] = ()
    eps_power: int = 0

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Coefficient":
        return Coefficient()

    @staticmethod
    def one() -> "Coefficient":
        return Coefficient(re=Fraction(1))

    @staticmethod
    def rational(num: int | Fraction, den: int = 1) -> "Coefficient":
        return Coefficient(re=Fraction(num, den))

    @staticmethod
    def imaginary(num: int | Fraction, den: int = 1) -> "Coefficient":
        return Coefficient(im=Fraction(num, den))

    @staticmethod
    def monomial(num: int | Fraction, den: int = 1, /, **powers: int) -> "Coefficient":
        return Coefficient(re=Fraction(num, den), consts=_powmap(powers))

    def with_consts(self, **powers: int) -> "Coefficient":
        return replace(self, consts=_powmap(list(self.consts) + list(powers.items())))

    def with_log(self, atom: str, power: int = 1) -> "Coefficient":
        return replace(self, logs=_powmap(list(self.logs) + [(atom, power)]))

    def with_eps(self, power: int) -> "Coefficient":
        return replace(self, eps_power=self.eps_power + power)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def monomial_key(self) -> tuple:
        return (self.consts, self.logs, self.eps_power)

    def const_power(self, name: str) -> int:
        return dict(self.consts).get(name, 0)

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        return Coefficient(
            re=re,
            im=im,
            consts=_powmap(self.consts + other.consts),
            logs=_powmap(self.logs + other.logs),
            eps_power=self.eps_power + other.eps_power,
        )

    def __neg__(self) -> "Coefficient":
        return replace(self, re=-self.re, im=-self.im)

    def plus(self, other: "Coefficient") -> "Coefficient":
        """Sum of two coefficients sharing the same monomial part."""
        if self.monomial_key() != other.monomial_key():
            raise ExpressionError("cannot add coefficients with different monomial parts")
        return replace(self, re=self.re + other.re, im=self.im + other.im)

    def divide(self, other: "Coefficient") -> "Coefficient":
        """Exact division by a nonzero coefficient (monomial exponents subtract)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero coefficient")
        norm = other.re * other.re + other.im * other.im
        re = (self.re * other.re + self.im * other.im) / norm
        im = (self.im * other.re - self.re * other.im) / norm
        inv_consts = tuple((n, -e) for n, e in other.consts)
        inv_logs = tuple((n, -e) for n, e in other.logs)
        return Coefficient(
            re=re,
            im=im,
            consts=_powmap(self.consts + inv_consts),
            logs=_powmap(self.logs + inv_logs),
            eps_power=self.eps_power - other.eps_power,
        )

    def gaussian_scaled(self, factor: Fraction) -> "Coefficient":
        return replace(self, re=self.re * factor, im=self.im * factor)

    def substitute_const(self, name: str, value: "Coefficient") -> "Coefficient":
        """Replace a named constant by a monomial coefficient, exactly."""
        k = self.const_power(name)
        if k == 0:
            return self
        stripped = replace(self, consts=_powmap(list(self.consts) + [(name, -k)]))
        factor = value if k > 0 else Coefficient.one().divide(value)
        out = stripped
        for _ in range(abs(k)):
            out = out * factor
        return out


# ---------------------------------------------------------------------------
# Tensor factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """Symmetric metric component eta(i, j)."""

    i: str
    j: str


@dataclass(frozen=True)
class Epsilon:
    """Totally antisymmetric rank-4 tensor component, eps(0,1,2,3) = +1."""

    idx: tuple[str, str, str, str]


@dataclass(frozen=True)
class Momentum:
    """One component of a loop or external momentum."""

    name: str
    i: str


@dataclass(frozen=True)
class FieldSlot:
    """Antisymmetric 2-form slot: X(s, i, j) = -X(s, j, i)."""

    slot: str
    i: str
    j: str


TensorFactor = Union[Metric, Epsilon, Momentum, FieldSlot]

# Scan order for canonical dummy naming: structure-rich factors anchor first,
# fully antisymmetric anonymous factors last.
_SCAN_CLASS = {FieldSlot: 0, Momentum: 1, Metric: 2, Epsilon: 3}


def _factor_labels(f: TensorFactor) -> tuple[str, ...]:
    if isinstance(f, Metric):
        return (f.i, f.j)
    if isinstance(f, Epsilon):
        return f.idx
    if isinstance(f, Momentum):
        return (f.i,)
    return (f.i, f.j)


def _factor_name(f: TensorFactor) -> str:
    if isinstance(f, FieldSlot):
        return f.slot
    if isinstance(f, Momentum):
        return f.name
    return ""


def _relabel_factor(f: TensorFactor, mapping: Mapping[str, str]) -> TensorFactor:
    def m(label: str) -> str:
        return mapping.get(label, label)

    if isinstance(f, Metric):
        return Metric(m(f.i), m(f.j))
    if isinstance(f, Epsilon):
        return Epsilon(tuple(m(x) for x in f.idx))
    if isinstance(f, Momentum):
        return Momentum(f.name, m(f.i))
    return FieldSlot(f.slot, m(f.i), m(f.j))


def _sort_with_parity(labels: Iterable[str]) -> tuple[tuple[str, ...], int]:
    items = list(labels)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return tuple(items), sign


# ---------------------------------------------------------------------------
# Gamma-string letters (the ordered word lives on the Term)
# ---------------------------------------------------------------------------

G5 = ("g5",)


def gamma(label: str) -> tuple[str, str]:
    return ("g", label)


Word = tuple[tuple, ...]


def normalize_word(word: Word) -> tuple[int, Word]:
    """Push every gamma5 to the right, squaring pairs away; returns (sign, word)."""
    sign = 1
    g5_seen = 0
    gammas: list[tuple] = []
    for letter in word:
        if letter == G5:
            g5_seen += 1
        else:
            if g5_seen % 2:
                sign = -sign
            gammas.append(letter)
    if g5_seen % 2:
        gammas.append(G5)
    return sign, tuple(gammas)


def word_labels(word: Word) -> tuple[str, ...]:
    return tuple(letter[1] for letter in word if letter != G5)


# ---------------------------------------------------------------------------
# Terms and expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    coeff: Coefficient
    factors: tuple[TensorFactor, ...] = ()
    word: Optional[Word] = None

    def labels(self) -> Iterator[str]:
        for f in self.factors:
            yield from _factor_labels(f)
        if self.word is not None:
            yield from word_labels(self.word)

    def structural_key(self) -> tuple:
        return (self.factors, self.word, self.coeff.monomial_key())


@dataclass(frozen=True)
class Expression:
    terms: tuple[Term, ...] = ()

    @staticmethod
    def zero() -> "Expression":
        return Expression()

    @staticmethod
    def scalar(coeff: Coefficient) -> "Expression":
        return Expression((Term(coeff),))

    @staticmethod
    def of(*terms: Term) -> "Expression":
        return Expression(tuple(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Expression") -> "Expression":
        return Expression(self.terms + other.terms)

    def __neg__(self) -> "Expression":
        return Expression(tuple(replace(t, coeff=-t.coeff) for t in self.terms))

    def __sub__(self, other: "Expression") -> "Expression":
        return self + (-other)

    def __mul__(self, other: "Expression") -> "Expression":
        out = []
        for a in self.terms:
            for b in other.terms:
                b = _shift_internal_dummies(a, b)
                word: Optional[Word] = None
                if a.word is not None or b.word is not None:
                    word = (a.word or ()) + (b.word or ())
                out.append(
                    Term(
                        coeff=a.coeff * b.coeff,
                        factors=a.factors + b.factors,
                        word=word,
                    )
                )
        return Expression(tuple(out))

    def scaled(self, coeff: Coefficient) -> "Expression":
        return Expression(tuple(replace(t, coeff=coeff * t.coeff) for t in self.terms))


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


def _local_normalize(term: Term) -> Optional[Term]:
    """Apply per-factor index conventions; None means the term is zero."""
    coeff = term.coeff
    factors: list[TensorFactor] = []
    for f in term.factors:
        if isinstance(f, Metric):
            if f.i > f.j:
                f = Metric(f.j, f.i)
        elif isinstance(f, Epsilon):
            if len(set(f.idx)) < 4:
                return None
            idx, sign = _sort_with_parity(f.idx)
            if sign < 0:
                coeff = -coeff
            f = Epsilon(idx)
        elif isinstance(f, FieldSlot):
            if f.i == f.j:
                return None
            if f.i > f.j:
                coeff = -coeff
                f = FieldSlot(f.slot, f.j, f.i)
        factors.append(f)
    word = term.word
    if word is not None:
        sign, word = normalize_word(word)
        if sign < 0:
            coeff = -coeff
    return Term(coeff=coeff, factors=tuple(factors), word=word)


def _validate_arity(term: Term) -> set[str]:
    counts: dict[str, int] = {}
    for label in term.labels():
        counts[label] = counts.get(label, 0) + 1
    bad = [label for label, c in counts.items() if c > 2]
    if bad:
        raise StructuralError(
            f"index label(s) {sorted(bad)} occur more than twice in term {term!r}"
        )
    return {label for label, c in counts.items() if c == 2}


def _scan_sort_key(f: TensorFactor) -> tuple:
    return (_SCAN_CLASS[type(f)], _factor_name(f), _factor_labels(f))


def canonicalize_term(term: Term) -> Optional[Term]:
    """Canonical form of a single term; None when it is identically zero.

    Per-factor index conventions are applied first.  A term without dummy
    labels (labels occurring twice) is then final up to the order of its
    factors.  Only a term with dummies runs the relabel loop: dummies are
    renamed $0, $1, ... in scan order and the conventions reapplied, until
    a pass leaves the term unchanged; a term already in canonical form
    stops after one pass.
    """
    if term.coeff.is_zero():
        return None
    normalized = _local_normalize(term)
    if normalized is None:
        return None
    term = normalized
    dummies = _validate_arity(term)
    if not dummies:
        return replace(term, factors=tuple(sorted(term.factors, key=_scan_sort_key)))
    previous = (term.factors, term.word, term.coeff.re, term.coeff.im)
    for _ in range(16):
        mapping: dict[str, str] = {}

        def assign(label: str) -> None:
            if label in dummies and label not in mapping:
                mapping[label] = f"{_DUMMY_PREFIX}{len(mapping)}"

        if term.word is not None:
            for label in word_labels(term.word):
                assign(label)
        for f in sorted(term.factors, key=_scan_sort_key):
            for label in _factor_labels(f):
                assign(label)

        new_factors = tuple(_relabel_factor(f, mapping) for f in term.factors)
        new_word = term.word
        if new_word is not None:
            new_word = tuple(
                letter if letter == G5 else gamma(mapping.get(letter[1], letter[1]))
                for letter in new_word
            )
        term = Term(coeff=term.coeff, factors=new_factors, word=new_word)
        term = _local_normalize(term)
        if term is None:
            return None
        dummies = {mapping.get(d, d) for d in dummies}
        state = (term.factors, term.word, term.coeff.re, term.coeff.im)
        if state == previous:
            break
        previous = state
    else:  # pragma: no cover - safety net
        raise RuntimeError(f"canonical relabeling did not converge for {term!r}")
    return replace(term, factors=tuple(sorted(term.factors, key=_scan_sort_key)))


def canonicalize(expr: Expression) -> Expression:
    """Canonicalize every term, merge like terms, drop zeros, order deterministically."""
    buckets: dict[tuple, Coefficient] = {}
    shapes: dict[tuple, Term] = {}
    for raw in expr.terms:
        term = canonicalize_term(raw)
        if term is None:
            continue
        key = term.structural_key()
        if key in buckets:
            buckets[key] = buckets[key].plus(term.coeff)
        else:
            buckets[key] = term.coeff
            shapes[key] = term
    out = []
    for key in sorted(buckets, key=_term_order_key):
        coeff = buckets[key]
        if coeff.is_zero():
            continue
        out.append(replace(shapes[key], coeff=coeff))
    return Expression(tuple(out))


def _term_order_key(key: tuple) -> tuple:
    factors, word, monomial = key
    return (
        tuple((type(f).__name__, _factor_name(f), _factor_labels(f)) for f in factors),
        word or (),
        monomial,
    )


# ---------------------------------------------------------------------------
# Contraction and substitution
# ---------------------------------------------------------------------------


def _contract_term(term: Term) -> Optional[Term]:
    factors = list(term.factors)
    coeff = term.coeff
    word = term.word
    changed = True
    while changed:
        changed = False
        counts: dict[str, int] = {}
        for f in factors:
            for label in _factor_labels(f):
                counts[label] = counts.get(label, 0) + 1
        if word is not None:
            for label in word_labels(word):
                counts[label] = counts.get(label, 0) + 1
        for pos, f in enumerate(factors):
            if not isinstance(f, Metric):
                continue
            if f.i == f.j and counts.get(f.i, 0) == 2:
                # both slots of this metric paired with each other: trace = d
                coeff = coeff.with_consts(d=1)
                del factors[pos]
                changed = True
                break
            for a, b in ((f.i, f.j), (f.j, f.i)):
                if counts.get(a, 0) == 2 and a != b:
                    del factors[pos]
                    mapping = {a: b}
                    factors = [_relabel_factor(g, mapping) for g in factors]
                    if word is not None:
                        word = tuple(
                            letter if letter == G5 else gamma(mapping.get(letter[1], letter[1]))
                            for letter in word
                        )
                    changed = True
                    break
            if changed:
                break
    return Term(coeff=coeff, factors=tuple(factors), word=word)


def contract(expr: Expression) -> Expression:
    """Absorb every metric factor carrying a dummy index; eta(i,i) gives d."""
    return canonicalize(Expression(tuple(_contract_term(t) for t in expr.terms)))


def substitute_dimension(expr: Expression, value: int | Fraction = 4) -> Expression:
    """Replace the distinguished dimension constant d by an exact rational."""
    value = Fraction(value)
    out = []
    for term in expr.terms:
        k = term.coeff.const_power("d")
        if k == 0:
            out.append(term)
            continue
        coeff = term.coeff.with_consts(d=-k).gaussian_scaled(value**k)
        out.append(replace(term, coeff=coeff))
    return canonicalize(Expression(tuple(out)))


def fresh_labels(prefix: str, count: int) -> list[str]:
    """Distinct engine-internal index labels; never collide with user labels."""
    return [f"!{prefix}{i}" for i in range(count)]


def _shift_internal_dummies(a: Term, b: Term) -> Term:
    """Rename b's internally contracted labels away from any label used in a.

    A label occurring twice within b is a closed contraction of b and may be
    renamed freely; a label occurring once is an open index meant to contract
    across the product, so it must survive untouched.
    """
    counts: dict[str, int] = {}
    for label in b.labels():
        counts[label] = counts.get(label, 0) + 1
    a_labels = set(a.labels())
    clashes = [label for label, c in counts.items() if c == 2 and label in a_labels]
    if not clashes:
        return b
    taken = a_labels | set(counts)
    mapping: dict[str, str] = {}
    serial = 0
    for label in clashes:
        while f"!u{serial}" in taken:
            serial += 1
        mapping[label] = f"!u{serial}"
        serial += 1
    factors = tuple(_relabel_factor(f, mapping) for f in b.factors)
    word = b.word
    if word is not None:
        word = tuple(
            letter if letter == G5 else gamma(mapping.get(letter[1], letter[1]))
            for letter in word
        )
    return Term(coeff=b.coeff, factors=factors, word=word)
