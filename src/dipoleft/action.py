"""Assembly, renormalization and reduction of the one-loop two-point action.

The loop kernel follows the second-order term of the log-det expansion:
an explicit i/2, a factor i per vertex insertion, propagator numerators
i(gamma.p + m) and the closed-fermion-loop sign.  The net normalization is
pinned by the acceptance fixtures: a single flavor with chirality +1,
vertex coefficient e*alpha/2 and one exact slot produces the epsilon-sector
coefficient e^2 m^2 alpha^2 I0 before renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .algebra import (
    Coefficient,
    Epsilon,
    Expression,
    FieldSlot,
    G5,
    Metric,
    Momentum,
    Term,
    canonicalize,
    contract,
    fresh_labels,
    gamma,
    substitute_dimension,
)
from .dirac import FOUR_DIM, SYMBOLIC_DIM, ModelError, expand_vertex, trace
from .loops import integrate

EPSILON_SECTOR = "epsilon"
METRIC_SECTOR = "metric"


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
    """Classifier input outside its domain."""


# ---------------------------------------------------------------------------
# Model data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlotSpec:
    name: str
    potential: Optional[str] = None  # None marks a fundamental 2-form field

    @property
    def exact(self) -> bool:
        return self.potential is not None


@dataclass(frozen=True)
class FlavorSpec:
    name: str
    mass: str
    chirality: int  # chi in the projector (1 - i*chi*g5)
    coeff: Coefficient
    combo: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class AbsorbDirective:
    coupling: str
    finite_name: str
    scale: Coefficient  # exact rational times a power of pi


@dataclass(frozen=True)
class ModelSpec:
    dimension: int
    slots: tuple[SlotSpec, ...]
    flavors: tuple[FlavorSpec, ...]
    absorb: tuple[AbsorbDirective, ...] = ()
    constants: tuple[str, ...] = ()

    def slot(self, name: str) -> SlotSpec:
        for s in self.slots:
            if s.name == name:
                return s
        raise ModelError(f"unknown slot {name!r}")


@dataclass(frozen=True)
class ActionTerm:
    coeff: Coefficient
    structure: str  # EPSILON_SECTOR or METRIC_SECTOR
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

    @property
    def divergent_terms(self) -> tuple[ActionTerm, ...]:
        return tuple(t for t in self.terms if is_divergent(t.coeff))

    def is_divergent(self) -> bool:
        return bool(self.divergent_terms)

    def scaled(self, factor: Coefficient) -> "EffectiveAction":
        return EffectiveAction(
            terms=tuple(replace(t, coeff=factor * t.coeff) for t in self.terms),
            slots=self.slots,
        )


def is_divergent(coeff: Coefficient) -> bool:
    consts = dict(coeff.consts)
    if any(name == "I0" or name.startswith("I0[") for name in consts):
        return True
    if consts.get("Lambda", 0) != 0 or coeff.eps_power != 0 or coeff.logs:
        return True
    return False


# ---------------------------------------------------------------------------
# One-loop polarization
# ---------------------------------------------------------------------------


def _propagator_numerator(mass: str, label: str) -> Expression:
    terms = [Term(Coefficient.imaginary(1), factors=(Momentum("p", label),), word=(gamma(label),))]
    if mass != "0":
        terms.append(Term(Coefficient.imaginary(1).with_consts(**{mass: 1}), word=()))
    return Expression(tuple(terms))


def polarization(
    flavor: FlavorSpec,
    pair: tuple[str, str],
    declared_slots: Iterable[str] | None = None,
    at_dimension: Optional[int] = 4,
) -> Expression:
    """Two-point polarization of one flavor for one ordered slot pair, at k = 0.

    The metric sector multiplies the cutoff-regularized rank-2 bubble and a
    trace that vanishes at d = 4; the epsilon sector carries the symbolic
    log-divergent bubble.  Pass ``at_dimension=None`` to keep the metric
    sector's d-dependence explicit.  ``assemble`` derives its one-flavor
    kernel through this function; per pair it is the direct reference.
    """
    s1, s2 = pair
    sign1 = _combo_sign(flavor, s1)
    sign2 = _combo_sign(flavor, s2)
    mu, nu, rho, sg, q1, q2 = fresh_labels("p", 6)
    v1 = expand_vertex(
        flavor.chirality, flavor.coeff, [(sign1, s1)], mu, nu, declared_slots
    )
    v2 = expand_vertex(
        flavor.chirality, flavor.coeff, [(sign2, s2)], rho, sg, declared_slots
    )
    kernel = Coefficient.imaginary(1, 2)  # second-order log-det term
    vertex_units = Coefficient.rational(-1)  # i * i, one per vertex insertion
    loop_sign = Coefficient.rational(-1)  # closed fermion loop
    prefactor = kernel * vertex_units * loop_sign
    product = v1 * _propagator_numerator(flavor.mass, q1)
    product = product * v2 * _propagator_numerator(flavor.mass, q2)
    product = product.scaled(prefactor)

    reduced = Expression(
        tuple(t for term in canonicalize(product).terms for t in integrate(term, flavor.mass).terms)
    )

    with_g5 = Expression(tuple(t for t in reduced.terms if t.word and G5 in t.word))
    without_g5 = Expression(tuple(t for t in reduced.terms if not (t.word and G5 in t.word)))
    traced = trace(without_g5, SYMBOLIC_DIM) + trace(with_g5, FOUR_DIM)
    result = contract(canonicalize(traced))
    if at_dimension is not None:
        result = substitute_dimension(result, at_dimension)
    return result


def _combo_sign(flavor: FlavorSpec, slot: str) -> int:
    for sign, name in flavor.combo:
        if name == slot:
            return sign
    raise ModelError(f"slot {slot!r} not in combo of flavor {flavor.name!r}")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _pair_representative(structure: str, a: str, b: str) -> Term:
    i, j, k, l = fresh_labels("r", 4)
    if structure == EPSILON_SECTOR:
        factors = (Epsilon((i, j, k, l)), FieldSlot(a, i, j), FieldSlot(b, k, l))
    else:
        factors = (Metric(i, k), Metric(j, l), FieldSlot(a, i, j), FieldSlot(b, k, l))
    return Term(Coefficient.one(), factors=factors)


def _extract_action_terms(expr: Expression, model: ModelSpec) -> list[ActionTerm]:
    slot_order = {s.name: n for n, s in enumerate(model.slots)}
    reps: dict[tuple, tuple[str, str, str, Coefficient]] = {}
    for a in slot_order:
        for b in slot_order:
            if slot_order[a] > slot_order[b]:
                continue
            for structure in (EPSILON_SECTOR, METRIC_SECTOR):
                rep = canonicalize(Expression.of(_pair_representative(structure, a, b)))
                if rep.is_zero():
                    continue
                (rep_term,) = rep.terms
                reps[rep_term.factors] = (structure, a, b, rep_term.coeff)
    out: list[ActionTerm] = []
    for term in expr.terms:
        if term.factors not in reps:
            raise ModelError(f"assembled term has unrecognized tensor structure: {term!r}")
        structure, a, b, rep_coeff = reps[term.factors]
        out.append(ActionTerm(term.coeff.divide(rep_coeff), structure, a, b))
    return out


# Placeholder slots of the one-flavor kernel; no model file can declare them.
_KERNEL_SLOTS = ("!a", "!b")


def _on_slots(kernel: Expression, a: str, b: str, scale: Coefficient) -> list[Term]:
    """The kernel's terms moved onto slots (a, b) and multiplied by scale."""
    names = dict(zip(_KERNEL_SLOTS, (a, b)))
    return [
        Term(
            scale * t.coeff,
            factors=tuple(
                replace(f, slot=names[f.slot]) if isinstance(f, FieldSlot) else f
                for f in t.factors
            ),
        )
        for t in kernel.terms
    ]


def assemble(model: ModelSpec) -> EffectiveAction:
    """Sum the one-loop polarization over every flavor as a bilinear form.

    A flavor enters the polarization only through its chirality, its mass,
    its coefficient c and the signs s_i of its combo entries, bilinearly in
    the two vertices.  So the kernel, the polarization of a unit-coefficient
    flavor on two placeholder slots, is derived once per distinct
    (chirality, mass); each flavor then adds the kernel on the slots of
    every ordered pair (i, j) of its combo entries, times c^2 s_i s_j.
    Summing over entries rather than slot names makes a combo such as
    ``F-F`` vanish.  Flavor loops are diagonal: cross terms arise only
    inside one flavor's combo.

    Returns the action with divergences still symbolic.
    """
    if model.dimension != 4:
        raise ModelError(f"unsupported dimension {model.dimension}")
    declared = {s.name for s in model.slots}
    kernels: dict[tuple[int, str], Expression] = {}
    terms: list[Term] = []
    for flavor in model.flavors:
        shape = (flavor.chirality, flavor.mass)
        if shape not in kernels:
            unit = FlavorSpec(
                "kernel",
                flavor.mass,
                flavor.chirality,
                Coefficient.one(),
                tuple((1, s) for s in _KERNEL_SLOTS),
            )
            kernels[shape] = polarization(unit, _KERNEL_SLOTS)
        for _, name in flavor.combo:
            if name not in declared:
                raise ModelError(f"unknown slot name {name!r} in vertex combo")
        c2 = flavor.coeff * flavor.coeff
        for s1, a in flavor.combo:
            for s2, b in flavor.combo:
                terms += _on_slots(kernels[shape], a, b, c2 * Coefficient.rational(s1 * s2))
    action_terms = _extract_action_terms(canonicalize(Expression(tuple(terms))), model)
    return EffectiveAction(terms=_merge_action_terms(action_terms, model.slots), slots=model.slots)


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
    bubbles = [n for n in consts if n == "I0" or n.startswith("I0[")]
    if len(bubbles) != 1 or consts[bubbles[0]] != 1:
        return None
    bubble = bubbles[0]
    mass = "m" if bubble == "I0" else bubble[3:-1]
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
            residual.append(render_term_text(replace(term, coeff=term.coeff), action))
            continue
        new_terms.append(replace(term, coeff=absorbed))
    if residual:
        raise RenormalizationIncompleteError(residual)
    return EffectiveAction(terms=_merge_action_terms(new_terms, action.slots), slots=action.slots)


# ---------------------------------------------------------------------------
# Multiplier-field reduction
# ---------------------------------------------------------------------------


def _merge_action_terms(terms: Iterable[ActionTerm], slots: tuple[SlotSpec, ...]) -> tuple[ActionTerm, ...]:
    """The action normal form: like terms merged, zeros dropped, ordered by slots.

    Terms on one slot pair keep the order in which they first appear.
    """
    order = {s.name: n for n, s in enumerate(slots)}
    buckets: dict[tuple, Coefficient] = {}
    for t in terms:
        a, b = sorted((t.slot_a, t.slot_b), key=lambda n: order[n])
        key = (t.structure, a, b, t.coeff.monomial_key())
        if key in buckets:
            buckets[key] = buckets[key].plus(t.coeff)
        else:
            buckets[key] = t.coeff
    out = []
    for (structure, a, b, _), coeff in buckets.items():
        if not coeff.is_zero():
            out.append(ActionTerm(coeff, structure, a, b))
    out.sort(key=lambda t: (t.structure, order[t.slot_a], order[t.slot_b]))
    return tuple(out)


def eliminate_bf(action: EffectiveAction) -> tuple[EffectiveAction, bool]:
    """Integrate out the fundamental 2-form acting as a Lagrange multiplier.

    The multiplier's equation of motion forces the signed sum of the exact
    field strengths it couples to be pure gauge; the last-declared coupled
    potential is eliminated in favor of the others and substituted into the
    remaining bilinear terms.  The substitution orientation is fixed so an
    induced quadratic term keeps the sign of its parent coefficient, which
    matches the conventional dualization of the reduced theory.

    Returns (reduced action, True) or, when there is no fundamental slot to
    integrate out, (action unchanged, False).
    """
    fundamentals = [s for s in action.slots if not s.exact]
    if not fundamentals:
        return action, False
    if len(fundamentals) > 1:
        raise NotReducibleError("more than one fundamental 2-form slot")
    b = fundamentals[0].name

    constraint: list[tuple[str, Coefficient]] = []
    remaining: list[ActionTerm] = []
    for term in action.terms:
        touches = (term.slot_a == b, term.slot_b == b)
        if not any(touches):
            remaining.append(term)
            continue
        if all(touches):
            raise NotReducibleError(f"multiplier slot {b!r} appears quadratically")
        if term.structure != EPSILON_SECTOR:
            raise NotReducibleError("multiplier couplings must sit in the epsilon sector")
        partner = term.slot_b if term.slot_a == b else term.slot_a
        if not action.slot(partner).exact:
            raise NotReducibleError("multiplier must couple to exact field strengths only")
        if any(name == partner for name, _ in constraint):
            raise NotReducibleError(
                f"multiplier slot {b!r} couples to {partner!r} through more than one "
                "monomial; the substitution ratio would not be a monomial"
            )
        constraint.append((partner, term.coeff))
    if not constraint:
        return action, False
    for term in remaining:
        if not (action.slot(term.slot_a).exact and action.slot(term.slot_b).exact):
            raise NotReducibleError("non-multiplier terms must be bilinear in exact slots")

    order = {s.name: n for n, s in enumerate(action.slots)}
    constraint.sort(key=lambda item: order[item[0]])
    target, target_coeff = constraint[-1]
    # X_target -> sum of (c_i / c_target) X_i over the other coupled slots,
    # orientation fixed as documented above; a single coupled slot means the
    # constrained field strength vanishes outright.
    replacement = [
        (name, coeff.divide(target_coeff)) for name, coeff in constraint[:-1]
    ]

    substituted: list[ActionTerm] = []
    for term in remaining:
        pieces = [(Coefficient.one(), term.slot_a, term.slot_b)]
        for pick in (0, 1):
            new_pieces = []
            for factor, a, bslot in pieces:
                slot = (a, bslot)[pick]
                if slot != target:
                    new_pieces.append((factor, a, bslot))
                    continue
                for name, ratio in replacement:
                    pair = (name, bslot) if pick == 0 else (a, name)
                    new_pieces.append((factor * ratio, pair[0], pair[1]))
            pieces = new_pieces
        for factor, a, bslot in pieces:
            substituted.append(ActionTerm(factor * term.coeff, term.structure, a, bslot))

    new_slots = tuple(s for s in action.slots if s.name not in (b, target))
    merged = _merge_action_terms(substituted, action.slots)
    return EffectiveAction(terms=merged, slots=new_slots), True


# ---------------------------------------------------------------------------
# Quantization / time-reversal classifier
# ---------------------------------------------------------------------------

TRI_NONTRIVIAL = "TRI-nontrivial"
TRI_TRIVIAL = "TRI-trivial"
NOT_TRI = "not-TRI"


@dataclass(frozen=True)
class QuantizationResult:
    theta_over_pi: Fraction
    nf: int
    charge_multiplier: int  # topological charge is quantized as this times an integer
    classification: str


def check_quantization(theta_over_pi: Fraction | int, nf: int) -> QuantizationResult:
    """Classify time-reversal behavior of the phase exp(i theta Nf^2 N).

    With theta = q*pi and integer topological charge scaled by Nf^2, the
    theory is time-reversal invariant iff q*Nf^2 is an integer: odd gives
    the nontrivial class, even (including zero) the trivial one.  A
    non-integer q*Nf^2 breaks the theta -> -theta symmetry for some charge.
    """
    if nf <= 0 or nf % 2 == 0:
        raise DomainError(f"flavor number must be a positive odd integer, got {nf}")
    q = Fraction(theta_over_pi)
    scaled = q * nf * nf
    if scaled.denominator == 1:
        classification = TRI_NONTRIVIAL if scaled.numerator % 2 else TRI_TRIVIAL
    else:
        classification = NOT_TRI
    return QuantizationResult(
        theta_over_pi=q, nf=nf, charge_multiplier=nf * nf, classification=classification
    )
