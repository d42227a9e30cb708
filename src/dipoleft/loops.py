"""One-loop momentum integrals at vanishing external momentum.

``integrate`` is the single entry point.  The low-energy dipole
polarization needs two bubbles: the logarithmically divergent scalar, kept
as the symbol I0[m] (its dimreg value is ``laurent_expand``), and the
quadratically divergent rank-2 tensor, evaluated with a momentum cutoff.
Divergences are carried symbolically, as eps = 4 - d poles, powers of the
cutoff and formal log atoms; they are never turned into floats here.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

from .algebra import (
    LOG_4PI,
    LOG_LAMBDA,
    LOG_MU,
    Coefficient,
    Expression,
    Metric,
    Momentum,
    Term,
    canonicalize,
)


class UnsupportedReductionError(ValueError):
    """Numerator rank outside the supported table (rank > 2)."""


def bubble_symbol(mass: str) -> str:
    """Name of the symbolic log-divergent bubble for a given mass symbol."""
    return "I0" if mass == "m" else f"I0[{mass}]"


def _loop_momenta(term: Term) -> list[Momentum]:
    return [f for f in term.factors if isinstance(f, Momentum) and f.name == "p"]


def integrate(term: Term, mass: str) -> Expression:
    """Integrate one term over the loop momentum p of a bubble of mass ``mass``.

    The term is the integrand's numerator over (p^2 - m^2)^2 with the raw
    measure d^4p/(2pi)^4.  An odd numerator integrates to zero; rank 0 gives
    i * I0[mass] times the term; rank 2 gives the cutoff tensor of
    ``evaluate_cutoff``.
    """
    rank = len(_loop_momenta(term))
    if rank % 2:
        return Expression.zero()
    if rank == 0:
        bubble = Coefficient.imaginary(1).with_consts(**{bubble_symbol(mass): 1})
        return Expression.of(replace(term, coeff=bubble * term.coeff))
    if rank == 2:
        return evaluate_cutoff(term, mass)
    raise UnsupportedReductionError(f"numerator rank {rank} not supported (max 2)")


def laurent_expand() -> Expression:
    """Dimreg value of the bubble I0, Laurent-expanded around eps = 4 - d = 0.

    I0 = -i mu^{4-d} Int d^dp/(2pi)^d (p^2-m^2)^-2
       = (4pi)^{-d/2} Gamma(2 - d/2) (mu^2/m^2)^{2-d/2}
       = (1/(4pi)^2) (2/eps + log(mu^2/m^2) + log(4pi) - gammaE) + O(eps).
    """
    base = Coefficient.monomial(1, 16, pi=-2)
    return canonicalize(
        Expression.of(
            Term(base.gaussian_scaled(Fraction(2)).with_eps(-1)),
            Term(base.with_log(LOG_MU)),
            Term(base.with_log(LOG_4PI)),
            Term((-base).with_consts(gammaE=1)),
        )
    )


def cutoff_tensor_bracket(mass: str = "m") -> Expression:
    """Scalar bracket multiplying eta(a,b) in the cutoff rank-2 table entry.

    Lambda^2/(16 pi^2) + (m^2/(4 pi^2)) log(Lambda/m), subleading terms
    dropped.  The rational prefactors are tabulated as published values and
    are not re-derived here; every in-scope use multiplies a trace that
    vanishes at d = 4.
    """
    terms = [Term(Coefficient.monomial(1, 16, pi=-2, Lambda=2))]
    if mass != "0":
        terms.append(Term(Coefficient.monomial(1, 4, pi=-2, **{mass: 2}).with_log(LOG_LAMBDA)))
    return canonicalize(Expression(tuple(terms)))


def evaluate_cutoff(term: Term, mass: str) -> Expression:
    """Cutoff value of the quadratically divergent rank-2 bubble in a term.

    Replaces the two loop-momentum factors p_a p_b by
    [Lambda^2/(16 pi^2) + (m^2/(4 pi^2)) log(Lambda/m)] eta(a,b).
    """
    p, q = _loop_momenta(term)
    rest = tuple(f for f in term.factors if f not in (p, q))
    stripped = Term(term.coeff, factors=rest + (Metric(p.i, q.i),), word=term.word)
    return canonicalize(Expression.of(stripped) * cutoff_tensor_bracket(mass))


def cutoff_scalar_leading() -> Expression:
    """Leading log of the Euclidean rank-0 bubble at cutoff: (1/(8 pi^2)) log(Lambda/m)."""
    return Expression.of(Term(Coefficient.monomial(1, 8, pi=-2).with_log(LOG_LAMBDA)))


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
