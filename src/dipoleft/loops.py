"""One-loop momentum integrals at vanishing external momentum.

``integrate`` is the single entry point.  The low-energy dipole
polarization needs two bubbles: the logarithmically divergent scalar, kept
as the symbol I0[m], and the quadratically divergent rank-2 tensor,
evaluated with a momentum cutoff.  Divergences are carried symbolically,
as eps = 4 - d poles, powers of the cutoff and formal log atoms; they are
never turned into floats here.  The dimreg value of I0 and the cutoff
forms of the scalar bubble, which only ``selftest`` compares, live in
``dipoleft.selftest``.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Coefficient, Expression, Metric, Momentum, Term, canonicalize


class UnsupportedReductionError(ValueError):
    """Numerator rank outside the supported table (rank > 2)."""


def bubble_symbol(mass: str) -> str:
    """Name of the symbolic log-divergent bubble for a given mass symbol."""
    return "I0" if mass == "m" else f"I0[{mass}]"


def bubble_mass(name: str) -> str | None:
    """Inverse of ``bubble_symbol``: the mass symbol of a bubble, else None."""
    if name == "I0":
        return "m"
    mass = name[3:-1] if name.startswith("I0[") and name.endswith("]") else None
    return None if mass == "m" else mass


def cutoff_log_atom(mass: str) -> str:
    """Name of the cutoff log atom log(Lambda/<mass>); ``LOG_LAMBDA`` for mass m."""
    return f"log(Lambda/{mass})"


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
        return Expression.of(Term(bubble * term.coeff, term.factors, term.word))
    if rank == 2:
        return evaluate_cutoff(term, mass)
    raise UnsupportedReductionError(f"numerator rank {rank} not supported (max 2)")


def cutoff_tensor_bracket(mass: str = "m") -> Expression:
    """Scalar bracket multiplying eta(a,b) in the cutoff rank-2 table entry.

    Derived under the convention of ``integrate``: Wick rotation and
    symmetric integration turn p^a p^b over (p^2 - m^2)^2 with measure
    d^4p/(2pi)^4 into -(i/4) eta^{ab} E, with the Euclidean radial integral

        E = (1/(16 pi^2)) Int_0^{Lambda^2} du u^2/(u + m^2)^2
          = (1/(16 pi^2)) (Lambda^2 - 4 m^2 log(Lambda/m) + m^2) + O(m^4/Lambda^2),

    m the given mass symbol.  Like the rank-0 entry I0, the table carries
    the divergent terms of E; its finite remainder m^2/(16 pi^2) is
    dropped, which leaves every in-scope use unchanged, since each
    multiplies a trace that vanishes at d = 4.  The oracle checks E,
    remainder included, by quadrature.
    """
    unit = Coefficient.imaginary(-1, 64).with_consts(pi=-2)  # -(i/4) / (16 pi^2)
    terms = [Term(unit.with_consts(Lambda=2))]
    if mass != "0":
        log = unit.gaussian_scaled(Fraction(-4)).with_consts(**{mass: 2})
        terms.append(Term(log.with_log(cutoff_log_atom(mass))))
    return canonicalize(Expression(tuple(terms)))


def evaluate_cutoff(term: Term, mass: str) -> Expression:
    """Cutoff value of the quadratically divergent rank-2 bubble in a term.

    Replaces the two loop-momentum factors p_a p_b by eta(a,b) times
    ``cutoff_tensor_bracket(mass)``.
    """
    p, q = _loop_momenta(term)
    rest = tuple(f for f in term.factors if f not in (p, q))
    stripped = Term(term.coeff, factors=rest + (Metric(p.i, q.i),), word=term.word)
    return canonicalize(Expression.of(stripped) * cutoff_tensor_bracket(mass))
