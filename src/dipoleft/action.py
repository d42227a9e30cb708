"""Assembly, renormalization and reduction of the one-loop two-point action.

The loop kernel (``polarization``) follows the second-order term of the
log-det expansion: an explicit i/2, a factor i per vertex insertion,
propagator numerators i(gamma.p + m) and the closed-fermion-loop sign.
``selftest.loop_normalization_deviation`` pins the net normalization against
the explicit-matrix integrand on whole models, independently of the
acceptance fixtures, in which a single flavor with chirality +1, vertex
coefficient e*alpha/2 and one exact slot produces the epsilon-sector
coefficient e^2 m^2 alpha^2 I0 before renormalization.

``assemble`` derives the kernel once per process, at chirality +1 on a
placeholder mass, and reads its d = 4 value, 4 m^2 I0[m], as
epsilon-sector coefficients on the placeholder slots.  The kernel is kept
for the function bound to ``polarization``: rebinding it (a tracer, a
test double) derives it afresh.  Every g5 comes from a vertex projector
(1 - i chi g5) and each g5 trace carries exactly one Epsilon, so the
epsilon sector is odd in chi: a flavor's kernel is chi times the kernel,
with the placeholder renamed to its mass in the mass symbol and the
bubble I0[m].  A massless flavor reads the kernel at m -> 0: every term
carrying a positive power of m vanishes, which leaves nothing.  The sum
over flavors runs per unordered slot pair: each flavor adds the exact
weight chi c^2 sum s_i s_j to its pair, mass and monomial, and only the
weights that stay nonzero are multiplied by the kernel at their mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, Iterable, Optional, Sequence

from .algebra import (
    G5,
    Coefficient,
    Epsilon,
    Expression,
    FieldSlot,
    Momentum,
    Term,
    _Value,
    _powmap,
    canonicalize,
    fresh_labels,
    gamma,
    substitute_dimension,
)
from .dirac import FOUR_DIM, ModelError, SchemeError, expand_vertex, trace
from .loops import bubble_mass, bubble_symbol, integrate


class RenormalizationIncompleteError(ValueError):
    """Divergent action terms remained after applying every absorb directive."""

    def __init__(self, residual: Sequence[str]):
        self.residual = tuple(residual)
        super().__init__(
            "unabsorbed divergent term(s): " + "; ".join(self.residual)
        )


class NotReducibleError(ValueError):
    """The action is not of the multiplier-field family the reducer handles."""


class DomainError(ValueError):
    """Command input outside its domain: a classifier argument or a selftest count."""


# ---------------------------------------------------------------------------
# Model data
# ---------------------------------------------------------------------------


class SlotSpec(_Value, potential=None):
    __slots__ = ("name", "potential")  # potential None marks a fundamental 2-form field

    @property
    def exact(self) -> bool:
        return self.potential is not None


class FlavorSpec(_Value):
    # chirality: chi of the projector (1 - i*chi*g5)
    __slots__ = ("name", "mass", "chirality", "coeff", "combo")


class AbsorbDirective(_Value):
    __slots__ = ("coupling", "finite_name", "scale")  # scale: exact rational times a power of pi


class ModelSpec(_Value, absorb=(), constants=()):
    __slots__ = ("slots", "flavors", "absorb", "constants")


@dataclass(frozen=True)
class ActionTerm:
    """coeff eps X_a X_b, the only d = 4 structure ``_read_kernel`` admits;
    ``structure`` is its schema-1 ``"tensor"`` value, not a field."""

    structure: ClassVar[str] = "epsilon"
    coeff: Coefficient
    slot_a: str
    slot_b: str


@dataclass(frozen=True)
class EffectiveAction:
    terms: tuple[ActionTerm, ...]
    slots: tuple[SlotSpec, ...]

    def slot(self, name: str) -> SlotSpec:
        for s in self.slots:
            if s.name == name:
                return s
        raise ModelError(f"unknown slot {name!r}")

    def is_divergent(self) -> bool:
        return any(is_divergent(t.coeff) for t in self.terms)


def is_divergent(coeff: Coefficient) -> bool:
    if coeff.eps_power or coeff.logs or coeff.const_power("Lambda"):
        return True
    return any(bubble_mass(name) is not None for name, _ in coeff.consts)


# ---------------------------------------------------------------------------
# One-loop polarization
# ---------------------------------------------------------------------------


def _propagator_numerator(mass: str, label: str) -> Expression:
    terms = [Term(Coefficient.imaginary(1), factors=(Momentum("p", label),), word=(gamma(label),))]
    if mass != "0":
        terms.append(Term(Coefficient.imaginary(1).with_consts(**{mass: 1}), word=()))
    return Expression(tuple(terms))


# Placeholder slots and mass of the loop kernel; no model file can declare them.
_KERNEL_SLOTS = ("!a", "!b")
_KERNEL_MASS = "!m"


def polarization(chirality: int, mass: str, at_dimension: Optional[int] = 4) -> Expression:
    """The loop kernel: the two-point polarization of a unit-coefficient
    flavor on the placeholder slots ``!a``/``!b``, at k = 0.

    The metric sector multiplies the cutoff-regularized rank-2 bubble and a
    trace that vanishes at d = 4; the epsilon sector carries the symbolic
    log-divergent bubble.  At ``at_dimension=4`` only the product terms
    whose normalized word ends in g5, the epsilon sector, are integrated
    and traced.  Pass ``at_dimension=None`` to derive both sectors and keep
    the metric sector's d-dependence explicit; any other value would mix
    two schemes and is a SchemeError.
    """
    if at_dimension not in (4, None):
        raise SchemeError(f"polarization at_dimension={at_dimension!r}: g5 traces are taken at d = 4")
    a, b = _KERNEL_SLOTS
    mu, nu, rho, sg, q1, q2 = fresh_labels("p", 6)
    v1 = expand_vertex(chirality, a, mu, nu)
    v2 = expand_vertex(chirality, b, rho, sg)
    kernel = Coefficient.imaginary(1, 2)  # second-order log-det term
    vertex_units = Coefficient.rational(-1)  # i * i, one per vertex insertion
    loop_sign = Coefficient.rational(-1)  # closed fermion loop
    prefactor = kernel * vertex_units * loop_sign
    product = v1 * _propagator_numerator(mass, q1)
    product = product * v2 * _propagator_numerator(mass, q2)
    product = product.scaled(prefactor)

    terms = canonicalize(product).terms
    if at_dimension == 4:
        terms = tuple(t for t in terms if t.word and t.word[-1] == G5)
    reduced = Expression(tuple(t for term in terms for t in integrate(term, mass).terms))
    # FOUR_DIM only admits the g5 words; the plain traces hold at symbolic d.
    result = trace(reduced, FOUR_DIM)
    if at_dimension is not None:
        result = substitute_dimension(result, at_dimension)
    return result


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _read_kernel(kernel: Expression) -> list[Coefficient]:
    """The d = 4 kernel as epsilon-sector coefficients on the placeholder slots.

    Each term must carry the canonical eps X_!a X_!b factors; its action
    coefficient is its coefficient over that representative's.
    """
    i, j, k, l = fresh_labels("r", 4)
    a, b = _KERNEL_SLOTS
    factors = (Epsilon((i, j, k, l)), FieldSlot(a, i, j), FieldSlot(b, k, l))
    (rep,) = canonicalize(Expression.of(Term(Coefficient.one(), factors=factors))).terms
    out = []
    for term in kernel.terms:
        if term.factors != rep.factors:
            raise ModelError(f"assembled term has unrecognized tensor structure: {term!r}")
        out.append(term.coeff.divide(rep.coeff))
    return out


@lru_cache(maxsize=1)
def _kernel(derive) -> tuple[Coefficient, ...]:
    """The d = 4 kernel on the placeholder mass, as ``derive`` (the function
    bound to ``polarization``) gives it; kept while that binding stays."""
    return tuple(_read_kernel(derive(+1, _KERNEL_MASS)))


def _kernel_for(kernel: Sequence[Coefficient], mass: str) -> list[Coefficient]:
    """The kernel on the given mass: the placeholder mass is renamed in the
    mass symbol and its bubble; ``_powmap`` re-sorts the renamed monomials.
    At mass ``0`` each term carrying a positive power of the placeholder
    mass is dropped, which is exact for m -> 0."""
    if mass == "0":
        kernel = [k for k in kernel if k.const_power(_KERNEL_MASS) <= 0]
    names = {_KERNEL_MASS: mass, bubble_symbol(_KERNEL_MASS): bubble_symbol(mass)}
    return [
        Coefficient(
            k.re, k.im, _powmap((names.get(n, n), p) for n, p in k.consts), k.logs, k.eps_power
        )
        for k in kernel
    ]


def assemble(model: ModelSpec) -> EffectiveAction:
    """Sum the one-loop polarization over every flavor as a bilinear form.

    A flavor enters the polarization only through its chirality, its mass,
    its coefficient c and the signs s_i of its combo entries, bilinearly in
    the two vertices.  The kernel (``polarization``) is read into action
    terms on the placeholder slots and mass once per process (``_kernel``,
    keyed on the function bound to ``polarization``).  Each flavor counts,
    per unordered slot pair, the integer sum of s_i s_j over the ordered
    pairs (i, j) of its combo entries, and weighs each nonzero count by
    c^2 chi.  The weights are summed per slot pair, mass and monomial, so
    chirality pairs and a combo such as ``F-F`` cancel exactly there,
    before any kernel product.  Only a weight that stays nonzero is
    multiplied by the kernel at its mass (``_kernel_for``, read once per
    mass per call; a massless flavor reads it at m -> 0).  Flavor loops
    are diagonal: cross terms arise only inside one flavor's combo.  The
    loop normalization this sum carries is checked against explicit
    matrices by ``selftest.loop_normalization_deviation``.

    Returns the action with divergences still symbolic.
    """
    order = {s.name: n for n, s in enumerate(model.slots)}
    kernel = _kernel(polarization)
    weights: dict[tuple, Coefficient] = {}
    for flavor in model.flavors:
        for _, name in flavor.combo:
            if name not in order:
                raise ModelError(f"unknown slot name {name!r} in vertex combo")
        entries = [(s, order[name]) for s, name in flavor.combo]
        counts: dict[tuple[int, int], int] = {}
        for s1, i in entries:
            for s2, j in entries:
                pair = (i, j) if i <= j else (j, i)
                counts[pair] = counts.get(pair, 0) + s1 * s2
        square = flavor.coeff * flavor.coeff
        for pair, count in counts.items():
            if count:
                weight = square.gaussian_scaled(count * flavor.chirality)
                key = (pair, flavor.mass, weight.monomial_key())
                weights[key] = weights[key].plus(weight) if key in weights else weight
    at_mass: dict[str, list[Coefficient]] = {}
    terms: list[ActionTerm] = []
    for ((i, j), mass, _), weight in weights.items():
        if weight.is_zero():
            continue
        if mass not in at_mass:
            at_mass[mass] = _kernel_for(kernel, mass)
        a, b = model.slots[i].name, model.slots[j].name
        terms += [ActionTerm(weight * k, a, b) for k in at_mass[mass]]
    return normal_form(terms, model.slots)


# ---------------------------------------------------------------------------
# Renormalization
# ---------------------------------------------------------------------------


def _match_directive(
    coeff: Coefficient, directives: Sequence[AbsorbDirective]
) -> Optional[Coefficient]:
    """Absorb one coupling^2 * mass^2 * I0 bundle into its finite constant.

    A bundle that more than one directive could absorb is a ModelError.
    """
    consts = dict(coeff.consts)
    bubbles = [n for n in consts if bubble_mass(n) is not None]
    if len(bubbles) != 1 or consts[bubbles[0]] != 1:
        return None
    (bubble,) = bubbles
    mass = bubble_mass(bubble)
    if consts.get(mass, 0) < 2:
        return None
    matches = [d for d in directives if consts.get(d.coupling, 0) == 2]
    if not matches:
        return None
    if len(matches) > 1:
        raise ModelError(
            "ambiguous absorb: one divergent bundle matches the directives for "
            + " and ".join(repr(d.coupling) for d in matches)
        )
    (directive,) = matches
    stripped = coeff.with_consts(**{directive.coupling: -2, mass: -2, bubble: -1})
    return stripped * directive.scale.with_consts(**{directive.finite_name: 1})


def renormalize(action: EffectiveAction, directives: Sequence[AbsorbDirective]) -> EffectiveAction:
    """Replace each divergent coupling bundle by its finite named constant.

    The formally divergent rescaling constant never appears explicitly: the
    whole product coupling^2 * mass^2 * I0 is absorbed in one step.  Any
    divergent term no directive matches is an error.  Terms that absorption
    makes alike (flavors of different masses on one slot pair) are merged.
    """
    from .render import render_term_text  # local import to avoid a cycle

    new_terms: list[ActionTerm] = []
    residual: list[str] = []
    for term in action.terms:
        if not is_divergent(term.coeff):
            new_terms.append(term)
            continue
        absorbed = _match_directive(term.coeff, directives)
        if absorbed is None or is_divergent(absorbed):
            residual.append(render_term_text(term, action))
            continue
        new_terms.append(ActionTerm(absorbed, term.slot_a, term.slot_b))
    if residual:
        raise RenormalizationIncompleteError(residual)
    return normal_form(new_terms, action.slots)


# ---------------------------------------------------------------------------
# Multiplier-field reduction
# ---------------------------------------------------------------------------


def normal_form(terms: Iterable[ActionTerm], slots: tuple[SlotSpec, ...]) -> EffectiveAction:
    """The action normal form: like terms merged, zeros dropped, ordered by
    slot pair in declaration order, then by monomial.

    The result depends only on the sum the terms make, not on their order.
    A term on a slot ``slots`` does not declare is a ModelError.
    """
    order = {s.name: n for n, s in enumerate(slots)}
    buckets: dict[tuple, Coefficient] = {}
    for t in terms:
        try:
            i, j = sorted((order[t.slot_a], order[t.slot_b]))
        except KeyError as missing:
            raise ModelError(f"unknown slot {missing.args[0]!r}") from None
        key = (i, j, t.coeff.monomial_key())
        if key in buckets:
            buckets[key] = buckets[key].plus(t.coeff)
        else:
            buckets[key] = t.coeff
    out = [
        ActionTerm(coeff, slots[i].name, slots[j].name)
        for (i, j, _), coeff in sorted(buckets.items())
        if not coeff.is_zero()
    ]
    return EffectiveAction(terms=tuple(out), slots=slots)


def eliminate_bf(action: EffectiveAction) -> tuple[EffectiveAction, bool]:
    """Integrate out the fundamental 2-form acting as a Lagrange multiplier.

    The multiplier's equation of motion forces the signed sum of the exact
    field strengths it couples to be pure gauge; the last-declared coupled
    potential is eliminated in favor of the others and substituted into the
    remaining bilinear terms.  The substitution orientation is fixed so an
    induced quadratic term keeps the sign of its parent coefficient, which
    matches the conventional dualization of the reduced theory.

    Returns (reduced action, True) or, when there is no fundamental slot to
    integrate out or the multiplier couples to nothing (no surviving term
    on it), (action unchanged, False).
    """
    fundamentals = [s for s in action.slots if not s.exact]
    if not fundamentals:
        return action, False
    if len(fundamentals) > 1:
        raise NotReducibleError("more than one fundamental 2-form slot")
    b = fundamentals[0].name  # so every other slot, each partner included, is exact

    constraint: list[tuple[str, Coefficient]] = []
    remaining: list[ActionTerm] = []
    for term in action.terms:
        touches = (term.slot_a == b, term.slot_b == b)
        if not any(touches):
            remaining.append(term)
            continue
        if all(touches):
            raise NotReducibleError(f"multiplier slot {b!r} appears quadratically")
        partner = term.slot_b if term.slot_a == b else term.slot_a
        if any(name == partner for name, _ in constraint):
            raise NotReducibleError(
                f"multiplier slot {b!r} couples to {partner!r} through more than one "
                "monomial; the substitution ratio would not be a monomial"
            )
        constraint.append((action.slot(partner).name, term.coeff))  # ModelError if undeclared
    if not constraint:
        return action, False

    order = {s.name: n for n, s in enumerate(action.slots)}
    constraint.sort(key=lambda item: order[item[0]])
    target, target_coeff = constraint[-1]
    # X_target -> sum of (c_i / c_target) X_i over the other coupled slots,
    # orientation fixed as documented above; a single coupled slot means the
    # constrained field strength vanishes outright.
    replacement = [
        (name, coeff.divide(target_coeff)) for name, coeff in constraint[:-1]
    ]

    def expand(slot: str) -> list[tuple[str, Coefficient]]:
        return replacement if slot == target else [(slot, Coefficient.one())]

    substituted = [
        ActionTerm(ratio_x * ratio_y * term.coeff, x, y)
        for term in remaining
        for x, ratio_x in expand(term.slot_a)
        for y, ratio_y in expand(term.slot_b)
    ]

    new_slots = tuple(s for s in action.slots if s.name not in (b, target))
    return normal_form(substituted, new_slots), True


# ---------------------------------------------------------------------------
# Quantization / time-reversal classifier
# ---------------------------------------------------------------------------

TRI_NONTRIVIAL = "TRI-nontrivial"
TRI_TRIVIAL = "TRI-trivial"
NOT_TRI = "not-TRI"


class QuantizationResult(_Value):
    # the topological charge is quantized as charge_multiplier times an integer
    __slots__ = ("theta_over_pi", "nf", "charge_multiplier", "classification")


def check_quantization(theta_over_pi: Fraction | int, nf: int) -> QuantizationResult:
    """Classify time-reversal behavior of the phase exp(i theta Nf^2 N).

    With theta = q*pi and integer topological charge scaled by Nf^2, the
    theory is time-reversal invariant iff q*Nf^2 is an integer: odd gives
    the nontrivial class, even (including zero) the trivial one.  A
    non-integer q*Nf^2 breaks the theta -> -theta symmetry for some charge.
    A bool, or a float q (read as its binary fraction), is a DomainError.
    """
    if isinstance(nf, bool) or not isinstance(nf, int) or nf <= 0 or nf % 2 == 0:
        raise DomainError(f"flavor number must be a positive odd integer, got {nf!r}")
    if isinstance(theta_over_pi, bool) or not isinstance(theta_over_pi, (int, Fraction)):
        raise DomainError(f"theta/pi must be an int or a Fraction, got {theta_over_pi!r}")
    q = Fraction(theta_over_pi)
    scaled = q * nf * nf
    if scaled.denominator == 1:
        classification = TRI_NONTRIVIAL if scaled.numerator % 2 else TRI_TRIVIAL
    else:
        classification = NOT_TRI
    return QuantizationResult(
        theta_over_pi=q, nf=nf, charge_multiplier=nf * nf, classification=classification
    )
