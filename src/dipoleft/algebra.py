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

import itertools
from collections import Counter
from fractions import Fraction
from operator import attrgetter
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


def _powmap(items: dict[str, int] | Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    if isinstance(items, dict):
        items = items.items()
    merged: dict[str, int] = {}
    for name, exp in items:
        merged[name] = merged.get(name, 0) + exp
        if merged[name] == 0:
            del merged[name]
    return tuple(sorted(merged.items()))


_ZERO = Fraction(0)


class _Value:
    """An immutable value made of named fields, on slots.

    It keeps the contract of the frozen dataclass it replaces, for this
    module's types and for the model, diagnostic and report types of
    ``action``, ``modelfile`` and ``selftest``: positional or keyword
    construction with defaults, a ``Name(field=value, ...)`` repr, equality
    only between instances of one class, a hash equal to ``hash`` of the
    field tuple, so no set or dict order moves, and an ``AttributeError``
    on assignment or deletion.  Each subclass lists its fields, in order,
    in ``__slots__``, and gives the defaults of its trailing fields as class
    keywords: ``class Term(_Value, factors=(), word=None)``.  Its
    ``__init__`` is compiled once, as ``dataclasses`` and ``namedtuple``
    compile theirs, and sets each field through its slot descriptor's
    ``__set__``, which ``__setattr__`` does not see; its ``__qualname__``
    is ``Name.__init__``, so a missing or unknown argument reads as it would
    from a hand-written one.  ``__reduce__`` rebuilds a value from its
    fields, so pickle and ``copy`` go through ``__init__`` too.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults: object) -> None:
        super().__init_subclass__()
        names = cls.__slots__
        get = attrgetter(*names)  # of one name, the value rather than a 1-tuple
        cls._fields = staticmethod(get if len(names) > 1 else lambda value: (get(value),))
        cls._format = f"{cls.__qualname__}({', '.join(f'{n}={{!r}}' for n in names)})"
        scope = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
        scope.update((f"_default_{n}", value) for n, value in defaults.items())
        params = ", ".join(f"{n}=_default_{n}" if n in defaults else n for n in names)
        body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
        exec(f"def __init__(self, {params}):{body}", scope)
        init = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __repr__(self) -> str:
        return self._format.format(*self._fields(self))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields(self)


def _merged(
    a: tuple[tuple[str, int], ...], b: tuple[tuple[str, int], ...]
) -> tuple[tuple[str, int], ...]:
    """The product of two normalized monomials, merged only when both carry one."""
    if not a:
        return b
    if not b:
        return a
    return _powmap(a + b)


class Coefficient(_Value, re=_ZERO, im=_ZERO, consts=(), logs=(), eps_power=0):
    """Gaussian rational times a monomial in constants, log atoms and eps powers.

    The arithmetic does only the ``Fraction`` work a value needs when one
    side has a single part: a product whose left factor is purely real or
    purely imaginary, a quotient by a purely real divisor, and a sum skip
    every zero part.  A product with a mixed-part left factor, or a
    quotient by a divisor with an imaginary part, uses the textbook
    formula.  Monomials are merged only when both sides carry one; that
    shortcut holds because every monomial is built normalized, through
    ``_powmap``.  Its fields are ``re``, ``im`` (``Fraction``), ``consts``
    and ``logs`` (sorted (name, power) pairs) and ``eps_power``; results
    are built with the constructor.
    """

    __slots__ = ("re", "im", "consts", "logs", "eps_power")

    # -- constructors -------------------------------------------------

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
        consts = _powmap(self.consts + tuple(powers.items()))
        return Coefficient(self.re, self.im, consts, self.logs, self.eps_power)

    def with_log(self, atom: str, power: int = 1) -> "Coefficient":
        logs = _powmap(self.logs + ((atom, power),))
        return Coefficient(self.re, self.im, self.consts, logs, self.eps_power)

    def with_eps(self, power: int) -> "Coefficient":
        return Coefficient(self.re, self.im, self.consts, self.logs, self.eps_power + power)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def monomial_key(self) -> tuple:
        return (self.consts, self.logs, self.eps_power)

    def const_power(self, name: str) -> int:
        return dict(self.consts).get(name, 0)

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            re = a * c if a and c else _ZERO
            im = a * d if a and d else _ZERO
        elif not a:
            re = -(b * d) if d else _ZERO
            im = b * c if c else _ZERO
        else:
            re, im = a * c - b * d, a * d + b * c
        return Coefficient(
            re,
            im,
            _merged(self.consts, other.consts),
            _merged(self.logs, other.logs),
            self.eps_power + other.eps_power,
        )

    def __neg__(self) -> "Coefficient":
        re, im = self.re, self.im
        return Coefficient(
            -re if re else _ZERO, -im if im else _ZERO, self.consts, self.logs, self.eps_power
        )

    def plus(self, other: "Coefficient") -> "Coefficient":
        """Sum of two coefficients sharing the same monomial part."""
        if self.monomial_key() != other.monomial_key():
            raise ExpressionError("cannot add coefficients with different monomial parts")
        re = self.re + other.re if self.re and other.re else self.re or other.re
        im = self.im + other.im if self.im and other.im else self.im or other.im
        return Coefficient(re, im, self.consts, self.logs, self.eps_power)

    def divide(self, other: "Coefficient") -> "Coefficient":
        """Exact division by a nonzero coefficient (monomial exponents subtract)."""
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero coefficient")
            re = a / c if a else _ZERO
            im = b / c if b else _ZERO
        else:
            norm = c * c + d * d
            re = (a * c + b * d) / norm
            im = (b * c - a * d) / norm
        inv_consts = tuple((n, -e) for n, e in other.consts)
        inv_logs = tuple((n, -e) for n, e in other.logs)
        return Coefficient(
            re,
            im,
            _merged(self.consts, inv_consts),
            _merged(self.logs, inv_logs),
            self.eps_power - other.eps_power,
        )

    def gaussian_scaled(self, factor: int | Fraction) -> "Coefficient":
        re, im = self.re, self.im
        return Coefficient(
            re * factor if re else _ZERO,
            im * factor if im else _ZERO,
            self.consts,
            self.logs,
            self.eps_power,
        )

    def substitute_const(self, name: str, value: "Coefficient") -> "Coefficient":
        """Replace a named constant by a monomial coefficient, exactly.

        The k-th power of the value (of its inverse for k < 0) is taken by
        repeated squaring."""
        k = self.const_power(name)
        if k == 0:
            return self
        stripped = self.with_consts(**{name: -k})
        base = value if k > 0 else Coefficient.one().divide(value)
        power = base
        for bit in bin(abs(k))[3:]:
            power = power * power
            if bit == "1":
                power = power * base
        return stripped * power


# ---------------------------------------------------------------------------
# Tensor factors
# ---------------------------------------------------------------------------


class Metric(_Value):
    """Symmetric metric component eta(i, j)."""

    __slots__ = ("i", "j")


class Epsilon(_Value):
    """Totally antisymmetric rank-4 tensor component, eps(0,1,2,3) = +1."""

    __slots__ = ("idx",)


class Momentum(_Value):
    """One component of a loop or external momentum."""

    __slots__ = ("name", "i")


class FieldSlot(_Value):
    """Antisymmetric 2-form slot: X(s, i, j) = -X(s, j, i)."""

    __slots__ = ("slot", "i", "j")


TensorFactor = Union[Metric, Epsilon, Momentum, FieldSlot]


# The parts of each factor type, (type name, name, labels), and the factor
# rebuilt from its key, the flat tuple (type name, name, *labels).
_FACTOR_PARTS = {
    Metric: lambda f: ("Metric", "", (f.i, f.j)),
    Epsilon: lambda f: ("Epsilon", "", f.idx),
    Momentum: lambda f: ("Momentum", f.name, (f.i,)),
    FieldSlot: lambda f: ("FieldSlot", f.slot, (f.i, f.j)),
}
_FACTOR_OF = {
    "Metric": lambda k: Metric(k[2], k[3]),
    "Epsilon": lambda k: Epsilon(k[2:]),
    "Momentum": lambda k: Momentum(k[1], k[2]),
    "FieldSlot": lambda k: FieldSlot(k[1], k[2], k[3]),
}


def _factor_of(key: tuple) -> TensorFactor:
    return _FACTOR_OF[key[0]](key)


def _relabel_factor(f: TensorFactor, mapping: Mapping[str, str]) -> TensorFactor:
    kind, name, labels = _FACTOR_PARTS[type(f)](f)
    return _factor_of((kind, name, *(mapping.get(x, x) for x in labels)))


def _keyed(kind: str, name: str, labels: tuple[str, ...]) -> tuple[tuple, int]:
    """A factor's key and the sign its index convention costs; sign 0 means
    the factor is zero.  The key, also the factor's sort key, has the labels
    in convention order: metric and field-slot labels ascending, the latter
    with a sign per swap, and eps labels ascending with their parity."""
    if kind == "Metric":
        i, j = labels
        return ((kind, name, i, j) if i <= j else (kind, name, j, i)), 1
    if kind == "FieldSlot":
        i, j = labels
        if i == j:
            return (), 0
        return ((kind, name, i, j), 1) if i < j else ((kind, name, j, i), -1)
    if kind == "Epsilon":
        if len(set(labels)) < 4:
            return (), 0
        a, b, c, d = labels
        inversions = (a > b) + (a > c) + (a > d) + (b > c) + (b > d) + (c > d)
        return (kind, name, *sorted(labels)), -1 if inversions % 2 else 1
    return (kind, name, *labels), 1


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


def _relabel_word(word: Optional[Word], mapping: Mapping[str, str]) -> Optional[Word]:
    if word is None:
        return None
    return tuple(
        letter if letter == G5 else gamma(mapping.get(letter[1], letter[1])) for letter in word
    )


# ---------------------------------------------------------------------------
# Terms and expressions
# ---------------------------------------------------------------------------


class Term(_Value, factors=(), word=None):
    __slots__ = ("coeff", "factors", "word")

    def labels(self) -> Iterator[str]:
        for f in self.factors:
            yield from _FACTOR_PARTS[type(f)](f)[2]
        if self.word is not None:
            yield from word_labels(self.word)


class Expression(_Value, terms=()):
    __slots__ = ("terms",)

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
        return Expression(tuple(Term(-t.coeff, t.factors, t.word) for t in self.terms))

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
        return Expression(tuple(Term(coeff * t.coeff, t.factors, t.word) for t in self.terms))


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


def canonicalize_term(term: Term) -> Optional[tuple[tuple, Term]]:
    """Canonical form of a single term with its sort key, the sorted keys of
    its factors; None when the term is identically zero.

    One walk over the factors applies the per-factor index conventions
    (``_keyed``), pushes g5 right in the word and collects the labels; a
    label occurring more than twice is a StructuralError.  The dummies
    (labels occurring twice) are renamed $0, $1, ... (skipping free labels):
    those of the gamma word in order of first occurrence, then the others
    grouped by signature, the sorted (type, name) pairs of the two factors a
    dummy joins, trying every permutation within each group.  Each naming
    relabels and keys every factor.  The naming with the least sorted keys
    wins; if it also comes with the opposite sign, the term equals its
    negative and is zero.  This is exact: the namings tried do not depend
    on any dummy's name or on factor order, so equal terms give the same
    candidates and the same least one.
    """
    if term.coeff.is_zero():
        return None
    sign = 1
    keys: list[tuple] = []
    labels: list[str] = []
    for f in term.factors:
        kind, name, f_labels = _FACTOR_PARTS[type(f)](f)
        key, f_sign = _keyed(kind, name, f_labels)
        if not f_sign:
            return None
        sign *= f_sign
        keys.append(key)
        labels += f_labels
    word = term.word
    if word is not None:
        word_sign, word = normalize_word(word)
        sign *= word_sign
        labels += word_labels(word)
    coeff = term.coeff if sign > 0 else -term.coeff
    counts = Counter(labels)
    bad = [label for label, c in counts.items() if c > 2]
    if bad:
        normalized = Term(coeff, tuple(map(_factor_of, keys)), word)
        raise StructuralError(
            f"index label(s) {sorted(bad)} occur more than twice in term {normalized!r}"
        )
    free = {label for label, c in counts.items() if c == 1}
    fresh = (f"{_DUMMY_PREFIX}{k}" for k in itertools.count())
    names = (n for n in fresh if n not in free)
    mapping = {label: label for label in free}
    for label in word_labels(word or ()):
        if label not in mapping:
            mapping[label] = next(names)
    word = _relabel_word(word, mapping)
    joins: dict[str, list[tuple]] = {d: [] for d in counts if d not in mapping}
    for key in keys:
        for label in key[2:]:
            if label in joins:
                joins[label].append(key[:2])
    groups: dict[tuple, list[str]] = {}
    for label, signature in joins.items():
        groups.setdefault(tuple(sorted(signature)), []).append(label)
    group_names = list(itertools.islice(names, len(joins)))
    best_key, best_sign, zero = None, 0, False
    for perms in itertools.product(*(itertools.permutations(groups[s]) for s in sorted(groups))):
        mapping.update(zip(itertools.chain.from_iterable(perms), group_names))
        candidate, candidate_sign = [], 1
        for key in keys:
            key, f_sign = _keyed(key[0], key[1], tuple(map(mapping.__getitem__, key[2:])))
            candidate.append(key)
            candidate_sign *= f_sign
        candidate.sort()
        candidate = tuple(candidate)
        if best_key is None or candidate < best_key:
            best_key, best_sign, zero = candidate, candidate_sign, False
        elif candidate == best_key and candidate_sign != best_sign:
            zero = True
    if zero:
        return None
    if best_sign < 0:
        coeff = -coeff
    return best_key, Term(coeff, tuple(map(_factor_of, best_key)), word)


def canonicalize(expr: Expression) -> Expression:
    """Canonicalize every term, merge like terms, drop zeros, order deterministically.

    Like terms share their factor keys, word and monomial; terms are
    ordered by those keys, with a missing word sorted as the empty one.
    """
    merged: dict[tuple, Term] = {}
    for raw in expr.terms:
        found = canonicalize_term(raw)
        if found is None:
            continue
        keys, term = found
        key = (keys, term.word, term.coeff.monomial_key())
        if key in merged:
            term = Term(merged[key].coeff.plus(term.coeff), term.factors, term.word)
        merged[key] = term
    ordered = sorted(merged.items(), key=lambda item: (item[0][0], item[0][1] or (), item[0][2]))
    return Expression(tuple(t for _, t in ordered if not t.coeff.is_zero()))


# ---------------------------------------------------------------------------
# Contraction and substitution
# ---------------------------------------------------------------------------


def _contract_term(term: Term) -> Term:
    """Absorb the first metric carrying a dummy until none is left; a metric
    whose two slots pair with each other is a trace and gives d."""
    while True:
        counts = Counter(term.labels())
        for pos, f in enumerate(term.factors):
            if isinstance(f, Metric) and 2 in (counts[f.i], counts[f.j]):
                break
        else:
            return term
        rest = term.factors[:pos] + term.factors[pos + 1 :]
        if f.i == f.j:
            term = Term(term.coeff.with_consts(d=1), rest, term.word)
            continue
        mapping = {f.i: f.j} if counts[f.i] == 2 else {f.j: f.i}
        relabelled = tuple(_relabel_factor(g, mapping) for g in rest)
        term = Term(term.coeff, relabelled, _relabel_word(term.word, mapping))


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
        out.append(Term(coeff, term.factors, term.word))
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
    return Term(coeff=b.coeff, factors=factors, word=_relabel_word(b.word, mapping))
