"""Floating-point cross-checks for the symbolic engine.

Explicit 4x4 gamma matrices in the Dirac representation verify every trace
rule and the loop normalization of the assembled action, and a fixed
Gauss-Legendre rule in t, with u = m^2 (e^t - 1), verifies the regularized
radial integrals of both cutoff table entries.  The representation is
fixed for reproducibility; anything with metric (+,-,-,-) and
eps(0,1,2,3) = +1 would do.  It is held once, as exact monomial tables
that ``numeric_trace`` multiplies; the float checks read them as dense 4x4
lists of rows.  Everything here is pure Python.

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
import random
from typing import Mapping

from .action import FlavorSpec, ModelSpec, SlotSpec, assemble
from .algebra import (
    LOG_LAMBDA,
    Coefficient,
    G5,
    Expression,
    Metric,
    Epsilon,
    Term,
    Word,
    _Value,
    gamma,
)
from .dirac import FOUR_DIM, SYMBOLIC_DIM, trace_word
from . import loops

ETA = (1.0, -1.0, -1.0, -1.0)  # diagonal of the metric eta
_RADIAL_NODES = 100  # Gauss-Legendre nodes of each radial integral


def _epsilon_value(indices: tuple[int, ...]) -> int:
    if len(set(indices)) < 4:
        return 0
    perm = list(indices)
    sign = 1
    for i in range(4):
        for j in range(3 - i):
            if perm[j] > perm[j + 1]:
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
                sign = -sign
    return sign


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


def _dense(table) -> list[list[complex]]:
    """A monomial table as a dense 4x4 matrix, a list of rows."""
    rows = [[0j] * 4 for _ in range(4)]
    for row, (c, p) in zip(rows, table):
        row[c] = _PHASE[p]
    return rows


_ONE = tuple((r, 0) for r in range(4))  # the identity's table


def _mul(a: list, b: list) -> list[list[complex]]:
    """The 4x4 product A B."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _tr(a: list, b: list) -> complex:
    """tr(A B) of two 4x4 matrices, without forming A B."""
    return sum(x * b[j][i] for i, row in enumerate(a) for j, x in enumerate(row))


def _combine(terms) -> list[list[complex]]:
    """The 4x4 sum of s A over the pairs (s, A) of ``terms``."""
    terms = list(terms)
    return [[sum(s * a[i][j] for s, a in terms) for j in range(4)] for i in range(4)]


def _commutators() -> list[list[list]]:
    """[g^m, g^n] for every (m, n), indices up, as dense matrices."""
    g = [_dense(t) for t in _GAMMA_TABLES]
    return [[_combine(((1, _mul(gm, gn)), (-1, _mul(gn, gm)))) for gn in g] for gm in g]


def max_clifford_deviation() -> float:
    """Largest entrywise violation of {g^m, g^n} = 2 eta^{mn}, g5^2 = 1, {g5, g^m} = 0."""
    *g, g5, one = map(_dense, (*_GAMMA_TABLES, _G5_TABLE, _ONE))
    # (A, B, s): {A, B} must be 2 s times the identity
    cases = [(g[m], g[n], ETA[m] if m == n else 0.0) for m in range(4) for n in range(4)]
    cases += [(g5, g5, 1.0)] + [(g5, gm, 0.0) for gm in g]
    anti = [_combine(((1, _mul(a, b)), (1, _mul(b, a)), (-2 * s, one))) for a, b, s in cases]
    return max(abs(x) for dev in anti for row in dev for x in row)


def convention_trace() -> complex:
    """tr(g5 g0 g1 g2 g3); must be -4i for eps(0,1,2,3) = +1."""
    return numeric_trace((G5, *map(gamma, "abcd")), dict(zip("abcd", range(4))))


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


# ---------------------------------------------------------------------------
# Randomized equivalence suite
# ---------------------------------------------------------------------------


class SuiteReport(_Value):
    __slots__ = ("seed", "count", "max_deviation", "failures")

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [
            f"equivalence suite: seed={self.seed} count={self.count} "
            f"max_deviation={self.max_deviation:.3e}"
        ]
        out.extend(f"FAIL {name}" for name in self.failures)
        out.append("result: " + ("pass" if self.passed else "fail"))
        return out


def _word_name(word: Word, assignment: dict[str, int]) -> str:
    letters = ["g5" if w == G5 else f"g{assignment[w[1]]}" for w in word]
    return "tr(" + " ".join(letters) + ")" if letters else "tr(1)"


def randomized_equivalence_suite(seed: int = 42, count: int = 500) -> SuiteReport:
    """Compare symbolic and matrix traces on seeded random gamma words.

    Words have length at most 8 with optional g5 insertions; deviations are
    relative to max(1, |matrix value|), and a word fails above 1e-10.
    Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    worst = 0.0
    failures: list[str] = []
    for _ in range(count):
        n_gamma = rng.randint(0, 8)
        word: list[tuple] = [gamma(f"x{k}") for k in range(n_gamma)]
        for _ in range(rng.randint(0, 2)):
            word.insert(rng.randint(0, len(word)), G5)
        word_t = tuple(word)
        assignment = {f"x{k}": rng.randrange(4) for k in range(n_gamma)}
        has_g5 = sum(1 for w in word_t if w == G5) % 2 == 1
        expr = trace_word(word_t, FOUR_DIM if has_g5 else SYMBOLIC_DIM)
        sym_value = evaluate_expression_numeric(expr, assignment)
        num_value = numeric_trace(word_t, assignment)
        deviation = abs(sym_value - num_value) / max(1.0, abs(num_value))
        worst = max(worst, deviation)
        if deviation > 1e-10:
            failures.append(f"{_word_name(word_t, assignment)} deviation={deviation:.3e}")
    return SuiteReport(seed=seed, count=count, max_deviation=worst, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Radial integral oracle
# ---------------------------------------------------------------------------


def _radial_integral(power: int, mass: float, cutoff: float) -> float:
    """(1/(16 pi^2)) Int_0^{cutoff^2} du u^power/(u + mass^2)^2 by a fixed
    Gauss-Legendre rule in t, with u = mass^2 (e^t - 1): the integrand
    mass^(2 power - 2) (e^t - 1)^power e^-t is smooth on 0 <= t <=
    log(1 + cutoff^2/mass^2) for power 1 and 2 up to cutoff/mass = 1e5."""
    if not (cutoff > mass > 0):
        raise ValueError("require cutoff > mass > 0")
    m2 = mass * mass
    nodes, weights = _legendre_rule()
    half = math.log1p(cutoff * cutoff / m2) / 2
    ts = [half * (x + 1) for x in nodes]
    value = half * math.fsum(w * math.expm1(t) ** power * math.exp(-t) for w, t in zip(weights, ts))
    return value * m2 ** (power - 1) / (16 * math.pi**2)


@functools.cache
def _legendre_rule() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The fixed Gauss-Legendre (nodes, weights) on [-1, 1], nodes ascending:
    Newton's method on P_n from Chebyshev guesses, as Numerical Recipes' gauleg."""
    n = _RADIAL_NODES
    nodes, weights = [], []
    for k in range(n):
        x = -math.cos(math.pi * (k + 0.75) / (n + 0.5))
        for _ in range(6):  # from within 2e-5 of the root, 4 steps reach double precision
            p, prev = x, 1.0  # P_1(x), P_0(x)
            for j in range(2, n + 1):
                p, prev = ((2 * j - 1) * x * p - (j - 1) * prev) / j, p
            slope = n * (x * p - prev) / (x * x - 1)  # P_n'(x)
            x -= p / slope
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * slope * slope))
    return tuple(nodes), tuple(weights)


def euclidean_scalar_integral(mass: float, cutoff: float) -> float:
    """(1/(16 pi^2)) Int_0^{cutoff^2} du u/(u + mass^2)^2: the rank-0 bubble below the cutoff."""
    return _radial_integral(1, mass, cutoff)


def euclidean_tensor_integral(mass: float, cutoff: float) -> float:
    """(1/(16 pi^2)) Int_0^{cutoff^2} du u^2/(u + mass^2)^2: the E of p^a p^b -> -(i/4) eta^{ab} E."""
    return _radial_integral(2, mass, cutoff)


_GRID_MASSES = (0.5, 1.0, 2.0, 5.0)


def quadrature_grid_max_relative_error() -> float:
    """Quadrature vs closed form over a (mass, cutoff/mass) grid; max relative error."""
    worst = 0.0
    for mass in _GRID_MASSES:
        for ratio in (10.0, 1e2, 1e3, 1e4, 1e5):
            cutoff = mass * ratio
            exact = loops.cutoff_scalar_closed_form(mass, cutoff)
            approx = euclidean_scalar_integral(mass, cutoff)
            worst = max(worst, abs(approx - exact) / abs(exact))
    return worst


def cutoff_tensor_grid_max_relative_error() -> float:
    """``loops.cutoff_tensor_bracket()`` against -(i/4) E by quadrature; max relative error.

    The bracket's symbols take the grid's values and the log atom
    log(Lambda/m) its float value.  The bracket leaves out E's finite
    remainder m^2/(16 pi^2), which is added back, and O(m^4/Lambda^2), a
    relative 3 (m/Lambda)^4.
    """
    bracket = loops.cutoff_tensor_bracket()
    worst = 0.0
    for mass in _GRID_MASSES:
        for ratio in (1e2, 1e3, 1e4, 1e5):
            cutoff = mass * ratio
            consts = {"Lambda": cutoff, "m": mass, "pi": math.pi}
            logs = {LOG_LAMBDA: math.log(ratio)}
            engine = -0.25j * mass**2 / (16 * math.pi**2)
            for t in bracket.terms:
                if t.factors or t.coeff.eps_power:
                    raise ValueError(f"bracket term {t!r} is not a number")
                engine += _number(t.coeff, consts, logs)
            expected = -0.25j * euclidean_tensor_integral(mass, cutoff)
            worst = max(worst, abs(engine - expected) / abs(expected))
    return worst


def log_slope() -> float:
    """Fitted slope of the radial integral at mass 1 against log(cutoff) at
    cutoffs 1e2, 1e3 and 1e4.

    For cutoff >> mass the integral grows like 2/(16 pi^2) per unit log,
    matching the pole normalization of the dimensionally regularized bubble.
    """
    import statistics  # the one check that needs it; `import dipoleft` stays without it

    cutoffs = (1e2, 1e3, 1e4)
    xs = [math.log(cutoff) for cutoff in cutoffs]
    ys = [euclidean_scalar_integral(1.0, cutoff) for cutoff in cutoffs]
    return statistics.linear_regression(xs, ys).slope


# ---------------------------------------------------------------------------
# Fixed trace identities, checked on every index 4-tuple
# ---------------------------------------------------------------------------


def dipole_trace_identity_checks() -> tuple[float, float]:
    """Max deviations over all 256 index tuples of the two dipole-loop traces.

    First: tr([g^m,g^n][g^r,g^s] g5) against -16i eps^{mnrs}.  Second: the
    metric-contracted tr([g^m,g^n] g^a [g^r,g^s] g^b) eta_ab against zero.
    """
    comm = _commutators()
    *g, g5 = map(_dense, (*_GAMMA_TABLES, _G5_TABLE))
    eps_dev = contracted_dev = 0.0
    for r, s in itertools.product(range(4), repeat=2):
        # the right-hand factors [g^r,g^s] g5 and eta_ab g^a [g^r,g^s] g^b, once per (r, s)
        with_g5 = _mul(comm[r][s], g5)
        sandwich = _combine((ETA[a], _mul(_mul(ga, comm[r][s]), ga)) for a, ga in enumerate(g))
        for m, n in itertools.product(range(4), repeat=2):
            eps_dev = max(eps_dev, abs(_tr(comm[m][n], with_g5) + 16j * _epsilon_value((m, n, r, s))))
            contracted_dev = max(contracted_dev, abs(_tr(comm[m][n], sandwich)))
    return eps_dev, contracted_dev


# ---------------------------------------------------------------------------
# Loop normalization against explicit matrices
# ---------------------------------------------------------------------------


def one_flavor_model(chirality: int, mass: str = "m") -> ModelSpec:
    """One unit-coefficient flavor of the given chirality and mass on one exact slot F."""
    flavor = FlavorSpec("psi", mass, chirality, Coefficient.one(), ((1, "F"),))
    return ModelSpec(slots=(SlotSpec("F", "A"),), flavors=(flavor,))


def loop_normalization_deviation(model: ModelSpec, seed: int = 20121) -> tuple[float, float]:
    """The engine's assembled action against the explicit-matrix loop integrand.

    Each flavor f contributes (i/2) x i^2 (vertices) x (-1) (loop) x
    c_f^2 tr[V S V S], with S = i(g.p + m_f), V = V_f(Phi_f) = (1 - i chi_f
    g5) sigma^{mn} Phi_{mn} and Phi_f = sum_i s_i X_i over its combo.  The
    rank-0 parts summed over flavors, sum_f I0[m_f] (1/2) m_f^2 c_f^2
    tr[V_f(Phi_f)^2], must equal sum coeff eps^{mnrs} X_a,mn X_b,rs over
    the action's terms, and each flavor's rank-2 part eta_ab tr[V g^a V g^b]
    must vanish.  Five seeded draws give every constant, mass and bubble a
    random value and every slot a random antisymmetric field.  This pins
    the i/2, the i per vertex, the loop sign and the combo weights
    independently of the fixtures.

    Returns (largest rank-0 deviation relative to max(1, |expected|),
    largest |rank-2 part|); an action term carrying a log atom or an eps
    pole gives (inf, inf).
    """
    action = assemble(model)
    if any(t.coeff.logs or t.coeff.eps_power for t in action.terms):
        return math.inf, math.inf
    comm, g = _commutators(), [_dense(t) for t in _GAMMA_TABLES]
    rng = random.Random(seed)
    rank0_dev = rank2_dev = 0.0
    for _ in range(5):
        # each name's value is drawn on first use
        values = collections.defaultdict(lambda: rng.uniform(0.5, 2.0), {"0": 0.0})
        fields = {s.name: _random_field(rng) for s in model.slots}
        engine = sum(
            _number(t.coeff, values, {}) * _eps_contraction(fields[t.slot_a], fields[t.slot_b])
            for t in action.terms
        )
        expected = 0.0
        for f in model.flavors:
            field = _combine((s, fields[name]) for s, name in f.combo)
            v = _dipole_vertex(f.chirality, field, comm)
            bubble = values[loops.bubble_symbol(f.mass)]
            weight = bubble * 0.5 * values[f.mass] ** 2 * _number(f.coeff * f.coeff, values, {})
            expected += weight * _tr(v, v)
            rank2 = sum(ETA[a] * _tr(vg, vg) for a, vg in enumerate(_mul(v, ga) for ga in g))
            rank2_dev = max(rank2_dev, abs(rank2))
        rank0_dev = max(rank0_dev, abs(engine - expected) / max(1.0, abs(expected)))
    return rank0_dev, rank2_dev


def _random_field(rng: random.Random) -> list[list[float]]:
    """A random antisymmetric X_{mn}, indices down."""
    a = [[rng.gauss(0.0, 1.0) for _ in range(4)] for _ in range(4)]
    return [[a[m][n] - a[n][m] for n in range(4)] for m in range(4)]


def _dipole_vertex(chirality: int, field: list, comm: list) -> list[list[complex]]:
    """(1 - i chi g5) sigma^{mn} X_{mn}, with sigma^{mn} = (i/2)[g^m, g^n]
    and ``comm`` the commutators of ``_commutators()``."""
    sigma_x = _combine((0.5j * x, comm[m][n]) for m, row in enumerate(field) for n, x in enumerate(row))
    return _mul(_combine(((1, _dense(_ONE)), (-1j * chirality, _dense(_G5_TABLE)))), sigma_x)


def _eps_contraction(x: list, y: list) -> float:
    """eps^{mnrs} X_{mn} Y_{rs} with eps^{0123} = +1."""
    return sum(_epsilon_value(p) * x[p[0]][p[1]] * y[p[2]][p[3]] for p in itertools.permutations(range(4)))
