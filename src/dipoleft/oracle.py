"""Floating-point cross-checks for the symbolic engine.

Explicit 4x4 gamma matrices in the Dirac representation verify every trace
rule, and one-dimensional quadrature verifies the regularized radial
integral.  The representation is fixed for reproducibility; anything with
metric (+,-,-,-) and eps(0,1,2,3) = +1 would do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    G5,
    Expression,
    Metric,
    Epsilon,
    Term,
    Word,
    contract,
    gamma,
    substitute_dimension,
)
from .dirac import FOUR_DIM, SYMBOLIC_DIM, trace_word

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


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


@dataclass(frozen=True)
class GammaRep:
    """Dirac-representation gamma matrices with g5 = i g0 g1 g2 g3."""

    matrices: tuple[np.ndarray, ...] = field(default=None)  # type: ignore[assignment]
    g5: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.matrices is not None:
            return
        s0 = np.eye(2, dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        g0 = np.block([[s0, zero], [zero, -s0]])
        spatial = tuple(np.block([[zero, s], [-s, zero]]) for s in (sx, sy, sz))
        mats = (g0,) + spatial
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "g5", 1j * mats[0] @ mats[1] @ mats[2] @ mats[3])

    def max_clifford_deviation(self) -> float:
        """Largest entrywise violation of {g^m, g^n} = 2 eta^{mn}, g5^2 = 1, {g5, g^m} = 0."""
        dev = 0.0
        for m in range(4):
            for n in range(4):
                anti = self.matrices[m] @ self.matrices[n] + self.matrices[n] @ self.matrices[m]
                dev = max(dev, np.max(np.abs(anti - 2 * ETA[m, n] * np.eye(4))))
        dev = max(dev, np.max(np.abs(self.g5 @ self.g5 - np.eye(4))))
        for m in range(4):
            dev = max(dev, np.max(np.abs(self.g5 @ self.matrices[m] + self.matrices[m] @ self.g5)))
        return float(dev)

    def convention_trace(self) -> complex:
        """tr(g5 g0 g1 g2 g3); must be -4i for eps(0,1,2,3) = +1."""
        m = self.g5
        for k in range(4):
            m = m @ self.matrices[k]
        return complex(np.trace(m))


DEFAULT_REP = GammaRep()


def numeric_trace(word: Word, assignment: dict[str, int], rep: GammaRep = DEFAULT_REP) -> complex:
    """Trace of the explicit matrix product for concretely assigned indices."""
    product = np.eye(4, dtype=complex)
    for letter in word:
        if letter == G5:
            product = product @ rep.g5
        else:
            product = product @ rep.matrices[assignment[letter[1]]]
    return complex(np.trace(product))


def evaluate_term_numeric(term: Term, assignment: dict[str, int]) -> complex:
    if term.word is not None:
        raise ValueError("numeric evaluation handles traced terms only")
    coeff = term.coeff
    if coeff.consts or coeff.logs or coeff.eps_power:
        raise ValueError(f"coefficient {coeff!r} is not a pure Gaussian rational")
    labels: dict[str, int] = {}
    for f in term.factors:
        for x in (f.i, f.j) if isinstance(f, Metric) else f.idx if isinstance(f, Epsilon) else ():
            labels[x] = labels.get(x, 0) + 1
    unassigned = [x for x in labels if x not in assignment]
    if unassigned:
        # remaining contraction pair: plain sum over the shared label
        label = unassigned[0]
        if labels[label] != 2:
            raise ValueError(f"free index {label!r} has no assigned value")
        return sum(
            evaluate_term_numeric(term, {**assignment, label: v}) for v in range(4)
        )
    value = complex(coeff.re) + 1j * complex(coeff.im)
    for f in term.factors:
        if isinstance(f, Metric):
            value *= ETA[assignment[f.i], assignment[f.j]]
        elif isinstance(f, Epsilon):
            value *= _epsilon_value(tuple(assignment[x] for x in f.idx))
        else:
            raise ValueError(f"factor {f!r} has no numeric value")
    return value


def evaluate_expression_numeric(expr: Expression, assignment: dict[str, int]) -> complex:
    """Substitute eta = diag(1,-1,-1,-1), eps(0,1,2,3) = +1 and d = 4.

    Internal metric contractions are absorbed first; any contraction that
    survives (a label shared by two factors) is summed directly, matching
    the engine's one-up-one-down label convention.
    """
    expr = contract(substitute_dimension(expr, 4))
    return sum((evaluate_term_numeric(t, assignment) for t in expr.terms), 0j)


# ---------------------------------------------------------------------------
# Randomized equivalence suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    count: int
    max_deviation: float
    failures: tuple[str, ...]

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


def randomized_equivalence_suite(
    seed: int = 42,
    count: int = 500,
    trace_fn=None,
    tolerance: float = 1e-10,
) -> SuiteReport:
    """Compare symbolic and matrix traces on seeded random gamma words.

    Words have length at most 8 with optional g5 insertions; deviations are
    relative to max(1, |matrix value|).  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    symbolic = trace_fn or trace_word
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
        expr = symbolic(word_t, FOUR_DIM if has_g5 else SYMBOLIC_DIM)
        sym_value = evaluate_expression_numeric(expr, assignment)
        num_value = numeric_trace(word_t, assignment)
        deviation = abs(sym_value - num_value) / max(1.0, abs(num_value))
        worst = max(worst, deviation)
        if deviation > tolerance:
            failures.append(f"{_word_name(word_t, assignment)} deviation={deviation:.3e}")
    return SuiteReport(seed=seed, count=count, max_deviation=worst, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Radial integral oracle
# ---------------------------------------------------------------------------


def euclidean_scalar_integral(mass: float, cutoff: float) -> float:
    """(1/(16 pi^2)) Int_0^{cutoff^2} du u/(u + mass^2)^2 by adaptive quadrature."""
    from scipy import integrate  # scipy's only use; deferred to keep import dipoleft light

    if not (cutoff > mass > 0):
        raise ValueError("require cutoff > mass > 0")
    m2 = mass * mass
    value, _ = integrate.quad(
        lambda u: u / (u + m2) ** 2, 0.0, cutoff * cutoff, epsabs=0.0, epsrel=1e-12, limit=400
    )
    return value / (16 * np.pi**2)


def quadrature_grid_max_relative_error(
    masses=(0.5, 1.0, 2.0, 5.0), ratios=(10.0, 1e2, 1e3, 1e4, 1e5)
) -> float:
    """Quadrature vs closed form over a (mass, cutoff) grid; max relative error."""
    from .loops import cutoff_scalar_closed_form

    worst = 0.0
    for mass in masses:
        for ratio in ratios:
            cutoff = mass * ratio
            exact = cutoff_scalar_closed_form(mass, cutoff)
            approx = euclidean_scalar_integral(mass, cutoff)
            worst = max(worst, abs(approx - exact) / abs(exact))
    return worst


def log_slope(mass: float = 1.0, ratios=(1e2, 1e3, 1e4)) -> float:
    """Fitted slope of the radial integral against log(cutoff).

    For cutoff >> mass the integral grows like 2/(16 pi^2) per unit log,
    matching the pole normalization of the dimensionally regularized bubble.
    """
    xs = np.log([mass * r for r in ratios])
    ys = [euclidean_scalar_integral(mass, mass * r) for r in ratios]
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Fixed trace identities, checked on every index 4-tuple
# ---------------------------------------------------------------------------


def _commutator(m: int, n: int, rep: GammaRep) -> np.ndarray:
    return rep.matrices[m] @ rep.matrices[n] - rep.matrices[n] @ rep.matrices[m]


def dipole_trace_identity_checks(rep: GammaRep = DEFAULT_REP) -> tuple[float, float]:
    """Max deviations over all 256 index tuples of the two dipole-loop traces.

    First: tr([g^m,g^n][g^r,g^s] g5) against -16i eps^{mnrs}.  Second: the
    metric-contracted tr([g^m,g^n] g^a [g^r,g^s] g^b) eta_ab against zero.
    """
    eps_dev = 0.0
    contracted_dev = 0.0
    for m in range(4):
        for n in range(4):
            cmn = _commutator(m, n, rep)
            for r in range(4):
                for s in range(4):
                    crs = _commutator(r, s, rep)
                    value = np.trace(cmn @ crs @ rep.g5)
                    eps_dev = max(
                        eps_dev, abs(value - (-16j) * _epsilon_value((m, n, r, s)))
                    )
                    contracted = sum(
                        ETA[a, a] * np.trace(cmn @ rep.matrices[a] @ crs @ rep.matrices[a])
                        for a in range(4)
                    )
                    contracted_dev = max(contracted_dev, abs(contracted))
    return float(eps_dev), float(contracted_dev)
