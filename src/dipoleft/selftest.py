"""The checks of ``dipoleft selftest`` and the float oracles only they use.

Explicit 4x4 gamma matrices in the Dirac representation verify every trace
rule and the loop normalization of the assembled action, and a fixed
Gauss-Legendre rule in t, with u = m^2 (e^t - 1), verifies the regularized
radial integrals of both cutoff table entries.  The matrices are the
oracle's monomial tables read as dense 4x4 lists of rows.  ``checks`` runs
these, then two exact checks of the symbolic-d sector, the first on the
dimreg value of I0 (``laurent_expand``) against the cutoff bubble's leading
log, both defined here.  Only the ``selftest`` command imports this module.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
import statistics
from fractions import Fraction

from . import loops
from .action import FlavorSpec, ModelSpec, SlotSpec, assemble, polarization
from .algebra import (
    LOG_4PI, LOG_LAMBDA, LOG_MU, Coefficient, Expression, G5, Term, Word, _Value, canonicalize, gamma,
    substitute_dimension,
)
from .dirac import FOUR_DIM, SYMBOLIC_DIM, trace_word
from .oracle import (
    ETA,
    _G5_TABLE,
    _GAMMA_TABLES,
    _PHASE,
    _epsilon_value,
    _number,
    evaluate_expression_numeric,
    numeric_trace,
)
from .render import coefficient_text

_RADIAL_NODES = 100  # Gauss-Legendre nodes of each radial integral


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
    relative to max(1, |matrix value|).  Both values are exact small
    integers held in floats, so a word fails on any nonzero deviation.
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
        if deviation:
            failures.append(f"{_word_name(word_t, assignment)} deviation={deviation:.3e}")
    return SuiteReport(seed=seed, count=count, max_deviation=worst, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Radial integral oracle, and the dimreg and cutoff values of I0
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


def cutoff_scalar_closed_form(mass: float, cutoff: float) -> float:
    """Exact Euclidean rank-0 bubble below the cutoff.

    (1/(16 pi^2)) [ log((Lambda^2+m^2)/m^2) + m^2/(Lambda^2+m^2) - 1 ],
    the radial integral of u/(u+m^2)^2 over u in [0, Lambda^2].
    """
    if not (cutoff > mass > 0):
        raise ValueError("require cutoff > mass > 0")
    m2 = mass * mass
    l2 = cutoff * cutoff
    return (math.log((l2 + m2) / m2) + m2 / (l2 + m2) - 1.0) / (16 * math.pi**2)


_GRID_MASSES = (0.5, 1.0, 2.0, 5.0)


def quadrature_grid_max_relative_error() -> float:
    """Quadrature vs closed form over a (mass, cutoff/mass) grid; max relative error."""
    worst = 0.0
    for mass in _GRID_MASSES:
        for ratio in (10.0, 1e2, 1e3, 1e4, 1e5):
            cutoff = mass * ratio
            exact = cutoff_scalar_closed_form(mass, cutoff)
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
    cutoffs = (1e2, 1e3, 1e4)
    xs = [math.log(cutoff) for cutoff in cutoffs]
    ys = [euclidean_scalar_integral(1.0, cutoff) for cutoff in cutoffs]
    return statistics.linear_regression(xs, ys).slope


def laurent_expand() -> Expression:
    """Dimreg value of the bubble I0, Laurent-expanded around eps = 4 - d = 0.

    I0 = -i mu^{4-d} Int d^dp/(2pi)^d (p^2-m^2)^-2
       = (4pi)^{-d/2} Gamma(2 - d/2) (mu^2/m^2)^{2-d/2}
       = (1/(4pi)^2) (2/eps + log(mu^2/m^2) + log(4pi) - gammaE) + O(eps).
    """
    base = Coefficient.monomial(1, 16, pi=-2)
    pole = base.gaussian_scaled(Fraction(2)).with_eps(-1)
    terms = (pole, base.with_log(LOG_MU), base.with_log(LOG_4PI), (-base).with_consts(gammaE=1))
    return canonicalize(Expression(tuple(map(Term, terms))))


def cutoff_scalar_leading() -> Expression:
    """Leading log of the Euclidean rank-0 bubble at cutoff: (1/(8 pi^2)) log(Lambda/m)."""
    return Expression.of(Term(Coefficient.monomial(1, 8, pi=-2).with_log(LOG_LAMBDA)))


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


# ---------------------------------------------------------------------------
# The selftest checks, in order
# ---------------------------------------------------------------------------


def checks(seed: int, count: int):
    """The selftest checks in order, each as (passed, line): the numeric-oracle
    checks, then two exact checks of the symbolic-d sector that the d = 4
    pipeline leaves out."""
    clifford = max_clifford_deviation()
    convention = abs(convention_trace() - (-4j))
    yield all(v < 1e-12 for v in (clifford, convention)), (
        f"gamma representation (clifford={clifford:.2e}, convention={convention:.2e})"
    )

    report = randomized_equivalence_suite(seed=seed, count=count)
    yield report.passed, "\n".join(report.lines())

    eps_dev, contracted_dev = dipole_trace_identity_checks()
    yield all(v < 1e-10 for v in (eps_dev, contracted_dev)), (
        f"dipole trace identities over 256 index tuples (eps={eps_dev:.2e}, contracted={contracted_dev:.2e})"
    )

    for chirality in (+1, -1):
        rank0_dev, rank2 = loop_normalization_deviation(one_flavor_model(chirality), seed=seed)
        yield all(v < 1e-10 for v in (rank0_dev, rank2)), (
            f"loop normalization vs matrix integrand, chi={chirality:+d} "
            f"(rank0={rank0_dev:.2e}, rank2={rank2:.2e})"
        )

    grid_err = quadrature_grid_max_relative_error()
    yield grid_err < 1e-8, f"radial quadrature vs closed form (max rel err {grid_err:.2e})"

    tensor_err = cutoff_tensor_grid_max_relative_error()
    yield tensor_err < 1e-6, f"rank-2 cutoff bracket vs radial quadrature (max rel err {tensor_err:.2e})"

    slope = log_slope()
    (leading,) = cutoff_scalar_leading().terms  # (1/(8 pi^2)) log(Lambda/m)
    target = float(leading.coeff.re) * math.pi ** leading.coeff.const_power("pi")
    yield abs(slope - target) / target < 0.01, f"log-cutoff slope {slope:.6e} vs {target:.6e}"

    # 2/eps of the dimreg I0 corresponds to 2 log(Lambda/m) of the cutoff one.
    (pole,) = [t.coeff.with_eps(1) for t in laurent_expand().terms if t.coeff.eps_power == -1]
    log = leading.coeff.with_log(LOG_LAMBDA, -1)
    yield pole == log, (
        f"dimreg pole of I0 vs cutoff log, 1/eps <-> log(Lambda/m) "
        f"({coefficient_text(pole)} vs {coefficient_text(log)})"
    )

    # The metric sector is (d - 4) times the cutoff bracket: at d = 4 the full
    # derivation is the epsilon-only kernel that assemble reads.
    same = all(
        substitute_dimension(polarization(+1, mass, at_dimension=None), 4)
        == polarization(+1, mass)
        for mass in ("m", "0")
    )
    yield same, "symbolic-d kernel at d = 4 vs epsilon-only kernel, massive and massless"
