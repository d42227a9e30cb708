"""Polarization, assembly, renormalization, multiplier reduction, classifier."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipoleft import action as action_module
from dipoleft import dirac
from dipoleft.algebra import (
    G5,
    LOG_LAMBDA,
    Coefficient,
    Epsilon,
    Expression,
    FieldSlot,
    Term,
    canonicalize,
    substitute_dimension,
)
from dipoleft.action import (
    AbsorbDirective,
    ActionTerm,
    DomainError,
    EffectiveAction,
    FlavorSpec,
    ModelSpec,
    NOT_TRI,
    NotReducibleError,
    RenormalizationIncompleteError,
    SlotSpec,
    TRI_NONTRIVIAL,
    TRI_TRIVIAL,
    assemble,
    check_quantization,
    eliminate_bf,
    polarization,
    renormalize,
)
from dipoleft.dirac import ModelError, SchemeError, trace_word
from dipoleft.modelfile import parse_model
from dipoleft.selftest import loop_normalization_deviation

ONE = Coefficient.one()


def single_flavor(chirality=+1, mass="m", name="psi", combo=((1, "F"),)) -> FlavorSpec:
    return FlavorSpec(
        name=name,
        mass=mass,
        chirality=chirality,
        coeff=Coefficient.monomial(1, 2, e=1, alpha=1),
        combo=combo,
    )


def epsilon_pair(coeff: Coefficient, a: str, b: str) -> Expression:
    i, j, k, l = "i!", "j!", "k!", "l!"
    return canonicalize(
        Expression.of(
            Term(coeff, factors=(Epsilon((i, j, k, l)), FieldSlot(a, i, j), FieldSlot(b, k, l)))
        )
    )


def metric_part(expr: Expression) -> Expression:
    return Expression(
        tuple(t for t in expr.terms if not any(isinstance(f, Epsilon) for f in t.factors))
    )


def test_polarization_single_flavor_exact():
    # the kernel is the polarization of one unit-coefficient flavor
    result = polarization(+1, "m")
    expected = epsilon_pair(Coefficient.monomial(4, 1, m=2, I0=1), "!a", "!b")
    assert result == expected
    assert metric_part(result).is_zero()  # entire metric sector cancels at d = 4


def test_polarization_chirality_flip_negates_epsilon_sector():
    plus = polarization(+1, "m")
    minus = polarization(-1, "m")
    assert canonicalize(plus + minus).is_zero()


def test_polarization_metric_remnant_even_under_chirality_flip():
    plus = polarization(+1, "m", at_dimension=None)
    minus = polarization(-1, "m", at_dimension=None)
    assert not metric_part(plus).is_zero()  # proportional to d - 4 with cutoff bracket
    assert metric_part(plus) == metric_part(minus)


@pytest.mark.parametrize("mass", ["m", "0"])
def test_full_derivation_at_four_dimensions_is_the_epsilon_only_kernel(mass):
    full = substitute_dimension(polarization(+1, mass, at_dimension=None), 4)
    assert metric_part(full).is_zero()
    assert repr(full) == repr(polarization(+1, mass))


def test_polarization_traces_plain_words_only_at_symbolic_dimension(monkeypatch):
    words = []

    def recording(word, dim_mode):
        words.append(word)
        return trace_word(word, dim_mode)

    monkeypatch.setattr(dirac, "trace_word", recording)
    polarization(+1, "m")
    assert words and all(word[-1] == G5 for word in words)
    words.clear()
    polarization(+1, "m", at_dimension=None)
    assert any(not word or word[-1] != G5 for word in words)


@pytest.mark.parametrize("dimension", [3, 5, 0])
def test_polarization_at_another_dimension_is_a_scheme_error(dimension):
    # g5 traces are taken at d = 4; a metric sector at another d would mix schemes
    with pytest.raises(SchemeError, match=f"at_dimension={dimension}"):
        polarization(+1, "m", at_dimension=dimension)


def test_polarization_of_mass_M_carries_no_m_atom():
    result = polarization(+1, "M", at_dimension=None)
    logs = {atom for t in result.terms for atom, _ in t.coeff.logs}
    assert logs == {"log(Lambda/M)"}
    assert all(t.coeff.const_power("m") == 0 for t in result.terms)


def test_polarization_massless_flavor_vanishes():
    for chirality in (+1, -1):
        assert polarization(chirality, "0").is_zero()


def test_polarization_epsilon_sector_carries_mass_squared_and_one_epsilon():
    for mass in ("m", "M"):
        for chirality in (+1, -1):
            result = polarization(chirality, mass)
            assert metric_part(result).is_zero()
            for term in result.terms:
                assert sum(isinstance(f, Epsilon) for f in term.factors) == 1
                assert term.coeff.const_power(mass) == 2


@pytest.mark.parametrize("mass", ["m", "M", "0"])
@pytest.mark.parametrize("chirality", [+1, -1])
def test_kernel_for_equals_direct_kernel(chirality, mass):
    # the chirality +1 kernel on the placeholder mass, read at the flavor's
    # mass (at m -> 0 for mass 0) and times chi, is the kernel derived
    # directly at the flavor's chirality and mass
    renamed = action_module._kernel_for(
        action_module._read_kernel(polarization(+1, action_module._KERNEL_MASS)), mass
    )
    derived = [k.gaussian_scaled(Fraction(chirality)) for k in renamed]
    assert derived == action_module._read_kernel(polarization(chirality, mass))


def one_slot_model(*flavors: FlavorSpec) -> ModelSpec:
    return ModelSpec(
        slots=(SlotSpec("F", "A"),),
        flavors=flavors,
        absorb=(
            AbsorbDirective("alpha", "thetaF", Coefficient.monomial(1, 32, pi=-2)),
        ),
        constants=("alpha", "e"),
    )


def theta_model() -> ModelSpec:
    return one_slot_model(single_flavor())


def bf_model() -> ModelSpec:
    lam = Coefficient.monomial(1, 2, **{"lambda": 1})
    bet = Coefficient.monomial(1, 4, beta=1)
    flavors = (
        FlavorSpec("psi1", "m", +1, lam, ((1, "F"), (1, "b"))),
        FlavorSpec("psi2", "m", -1, lam, ((1, "F"), (-1, "b"))),
        FlavorSpec("psi3", "m", +1, bet, ((1, "F"), (1, "f"))),
        FlavorSpec("psi4", "m", -1, bet, ((1, "F"), (-1, "f"))),
        FlavorSpec("psi5", "m", +1, lam, ((1, "f"), (1, "b"))),
        FlavorSpec("psi6", "m", -1, lam, ((1, "f"), (-1, "b"))),
    )
    return ModelSpec(
        slots=(SlotSpec("F", "A"), SlotSpec("f", "a"), SlotSpec("b", None)),
        flavors=flavors,
        absorb=(
            AbsorbDirective("lambda", "LambdaF", Coefficient.rational(1, 8)),
            AbsorbDirective("beta", "CF", Coefficient.rational(1, 4)),
        ),
        constants=("beta", "e", "lambda"),
    )


def test_assemble_theta_model_single_term():
    action = assemble(theta_model())
    assert action.terms == (
        ActionTerm(
            Coefficient.monomial(1, 1, e=2, alpha=2, m=2, I0=1), "F", "F"
        ),
    )


def test_assemble_bf_model_three_cross_terms():
    action = assemble(bf_model())
    by_pair = {(t.slot_a, t.slot_b): t.coeff for t in action.terms}
    lam2 = Coefficient.monomial(4, 1, m=2, I0=1).with_consts(**{"lambda": 2})
    bet2 = Coefficient.monomial(1, 1, m=2, I0=1, beta=2)
    assert by_pair == {
        ("F", "f"): bet2,
        ("F", "b"): lam2,
        ("f", "b"): lam2,
    }


def test_assemble_opposite_chirality_pair_cancels():
    # two flavors identical except for chirality: the epsilon sector cancels
    base = single_flavor(+1)
    partner = FlavorSpec("psi2", base.mass, -1, base.coeff, base.combo)
    model = ModelSpec(
        slots=(SlotSpec("F", "A"),),
        flavors=(base, partner),
        constants=("alpha", "e"),
    )
    assert assemble(model).terms == ()


SLOT_NAMES = ("F", "G", "H")


@st.composite
def kernel_models(draw) -> ModelSpec:
    """Flavors draw their coupling from a pool of two and their mass from
    three, so two flavors can share both, and a combo can repeat a slot."""
    n_slots = draw(st.integers(1, 3))
    slots = tuple(SlotSpec(name, name.lower()) for name in SLOT_NAMES[:n_slots])
    flavors = []
    for k in range(draw(st.integers(1, 4))):
        names = draw(st.lists(st.sampled_from(SLOT_NAMES[:n_slots]), min_size=1, max_size=3))
        flavors.append(
            FlavorSpec(
                name=f"psi{k}",
                mass=draw(st.sampled_from(["m", "M", "0"])),
                chirality=draw(st.sampled_from([+1, -1])),
                coeff=Coefficient.monomial(
                    draw(st.integers(1, 3)),
                    draw(st.integers(1, 4)),
                    **{draw(st.sampled_from(["g", "h"])): 1},
                ),
                combo=tuple((draw(st.sampled_from([+1, -1])), n) for n in names),
            )
        )
    return ModelSpec(slots=slots, flavors=tuple(flavors))


@settings(max_examples=25, deadline=None)
@given(kernel_models())
def test_assemble_matches_loop_normalization_oracle(model):
    rank0_dev, rank2 = loop_normalization_deviation(model)
    assert rank0_dev <= 1e-10
    assert rank2 <= 1e-10


def assemble_per_ordered_pair(model: ModelSpec) -> EffectiveAction:
    """The bilinear form term by term: s_i s_j chi c^2 k on the slots of
    every flavor's every ordered entry pair, for each kernel coefficient k
    at the flavor's mass, merged only by ``normal_form``."""
    kernel = action_module._kernel(polarization)
    terms = []
    for f in model.flavors:
        square = f.coeff * f.coeff
        for k in action_module._kernel_for(kernel, f.mass):
            for s1, a in f.combo:
                for s2, b in f.combo:
                    sign = Coefficient.rational(s1 * s2 * f.chirality)
                    terms.append(ActionTerm(sign * square * k, a, b))
    return action_module.normal_form(terms, model.slots)


GAUSSIAN_FACTORS = (ONE, Coefficient.imaginary(1), Coefficient(Fraction(1), Fraction(-1, 2)))


@settings(max_examples=60, deadline=None)
@given(kernel_models(), st.sampled_from(GAUSSIAN_FACTORS))
def test_assemble_matches_the_per_ordered_pair_sum_exactly(model, factor):
    # a Gaussian factor on every coupling gives imaginary and mixed weights
    flavors = tuple(
        FlavorSpec(f.name, f.mass, f.chirality, factor * f.coeff, f.combo) for f in model.flavors
    )
    model = ModelSpec(slots=model.slots, flavors=flavors)
    action, expected = assemble(model), assemble_per_ordered_pair(model)
    assert action == expected
    assert repr(action) == repr(expected)


def test_assemble_hands_normal_form_one_term_per_surviving_slot_pair(monkeypatch, bf_model_path):
    counts = []
    merge = action_module.normal_form

    def counting(terms, slots):
        terms = list(terms)
        counts.append(len(terms))
        return merge(terms, slots)

    monkeypatch.setattr(action_module, "normal_form", counting)
    action = assemble(parse_model(bf_model_path.read_text()))
    # the chirality pairs cancel in the weights: 3 terms, not 6 flavors x 4 ordered pairs
    assert counts == [3]
    assert len(action.terms) == 3


def test_assemble_combo_f_minus_f_vanishes():
    flavor = single_flavor(combo=((1, "F"), (-1, "F")))
    assert assemble(one_slot_model(flavor)).terms == ()


def scaled(action: EffectiveAction, factor: Coefficient) -> EffectiveAction:
    """The action with every coefficient multiplied by ``factor``."""
    terms = tuple(ActionTerm(factor * t.coeff, t.slot_a, t.slot_b) for t in action.terms)
    return EffectiveAction(terms, action.slots)


def test_assemble_combo_f_plus_f_is_four_times_f():
    doubled = assemble(one_slot_model(single_flavor(combo=((1, "F"), (1, "F")))))
    single = assemble(theta_model())
    assert doubled == scaled(single, Coefficient.rational(4))


def counting_polarization(monkeypatch) -> list[tuple[int, str]]:
    """Rebind ``polarization`` to a double; the list fills with the
    (chirality, mass) of each polarization derived from then on."""
    calls = []
    direct = action_module.polarization

    def counting(chirality, mass, *args, **kwargs):
        calls.append((chirality, mass))
        return direct(chirality, mass, *args, **kwargs)

    monkeypatch.setattr(action_module, "polarization", counting)
    return calls


def count_kernels(monkeypatch, model: ModelSpec) -> list[tuple[int, str]]:
    """(chirality, mass) of each polarization ``assemble(model)`` derives."""
    calls = counting_polarization(monkeypatch)
    assemble(model)
    return calls


def test_assemble_derives_one_kernel_per_mass_class(monkeypatch):
    # six flavors of both chiralities, all of mass m: one massive kernel
    assert len(count_kernels(monkeypatch, bf_model())) == 1
    # both chiralities of masses m, M and 0: still the one massive kernel
    flavors = tuple(
        FlavorSpec(f"psi{k}", mass, chirality, ONE, ((1, "F"),))
        for k, (mass, chirality) in enumerate(
            [("m", +1), ("M", -1), ("0", +1), ("m", -1), ("0", -1), ("M", +1)]
        )
    )
    calls = count_kernels(monkeypatch, one_slot_model(*flavors))
    assert calls == [(+1, action_module._KERNEL_MASS)]


def mixed_mass_model() -> ModelSpec:
    # both chiralities of masses m, M and 0 on one slot
    return one_slot_model(
        *(
            FlavorSpec(f"psi{k}", mass, chirality, ONE, ((1, "F"),))
            for k, (mass, chirality) in enumerate(
                [("m", +1), ("M", -1), ("0", +1), ("m", -1), ("0", -1), ("M", +1)]
            )
        )
    )


def test_assemble_keeps_each_class_kernel_across_calls(monkeypatch):
    calls = counting_polarization(monkeypatch)
    for model in (mixed_mass_model(), bf_model(), theta_model(), mixed_mass_model()):
        assemble(model)
    assert calls == [(+1, action_module._KERNEL_MASS)]


def test_rebinding_polarization_derives_the_kernel_again(monkeypatch):
    first = counting_polarization(monkeypatch)
    assemble(theta_model())
    second = counting_polarization(monkeypatch)  # wraps the first double
    assemble(theta_model())
    assemble(theta_model())
    assert len(second) == 1
    assert len(first) == 2  # its own derivation and the one the second double passed on


def test_class_kernel_is_a_tuple_of_the_read_kernel():
    massive = action_module._kernel(polarization)
    assert isinstance(massive, tuple)
    assert list(massive) == action_module._read_kernel(
        polarization(+1, action_module._KERNEL_MASS)
    )


def assemble_cold(model: ModelSpec):
    action_module._kernel.cache_clear()
    return assemble(model)


@settings(max_examples=20, deadline=None)
@given(kernel_models(), kernel_models())
def test_assemble_is_the_same_with_a_cold_or_a_warm_kernel_cache(first, second):
    for model, other in ((first, second), (second, first)):
        cold = assemble_cold(model)
        assemble_cold(other)  # derives the kernel afresh for the other model
        assert assemble(model) == cold


def test_import_derives_no_kernel():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import dipoleft; from dipoleft import action; print(action._kernel.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "0"


def test_assemble_rejects_undeclared_combo_slot():
    flavor = single_flavor(combo=((1, "F"), (1, "G")))
    with pytest.raises(ModelError, match="unknown slot name 'G'"):
        assemble(one_slot_model(flavor))


def test_renormalize_theta_model():
    model = theta_model()
    action = renormalize(assemble(model), model.absorb)
    assert action.terms == (
        ActionTerm(Coefficient.monomial(1, 32, pi=-2, e=2, thetaF=1), "F", "F"),
    )
    assert not action.is_divergent()


def test_renormalize_missing_directive_names_the_term():
    model = bf_model()
    action = assemble(model)
    with pytest.raises(RenormalizationIncompleteError) as info:
        renormalize(action, model.absorb[:1])  # only the lambda directive
    assert "beta" in str(info.value)


BUNDLE = Coefficient.monomial(1, 1, alpha=2, m=2, I0=1)  # what the alpha directive absorbs
EPS_FF = "eps[mu nu rho sigma] F[mu nu] F[rho sigma]"


@pytest.mark.parametrize(
    "coeff, text",
    [
        # the bundle is absorbed, but what is left still diverges
        (BUNDLE.with_eps(-1), "(1) * I0 * alpha^2 * m^2 * eps^-1"),
        (BUNDLE.with_log(LOG_LAMBDA), "(1) * I0 * alpha^2 * m^2 * log(Lambda/m)"),
        (BUNDLE.with_consts(Lambda=2), "(1) * I0 * Lambda^2 * alpha^2 * m^2"),
        # no directive takes two bubbles, a squared bubble or too few masses
        (BUNDLE.with_consts(**{"I0[M]": 1, "M": 2}), "(1) * I0 * I0[M] * M^2 * alpha^2 * m^2"),
        (BUNDLE.with_consts(I0=1), "(1) * I0^2 * alpha^2 * m^2"),
        (BUNDLE.with_consts(m=-1), "(1) * I0 * alpha^2 * m"),
    ],
    ids=["eps-pole", "log-atom", "cutoff", "two-bubbles", "bubble-squared", "mass-power-1"],
)
def test_renormalize_refuses_a_divergence_no_directive_removes(coeff, text):
    action = EffectiveAction(terms=(ActionTerm(coeff, "F", "F"),), slots=(SlotSpec("F", "A"),))
    with pytest.raises(RenormalizationIncompleteError) as info:
        renormalize(action, (AbsorbDirective("alpha", "thetaF", ONE),))
    assert info.value.residual == (f"{text} * {EPS_FF}",)


def test_renormalize_merges_flavors_of_different_masses():
    # masses m and M give distinct bundles that absorb into one finite term
    heavy = single_flavor(name="chi", mass="M")
    model = one_slot_model(single_flavor(), heavy)
    action = renormalize(assemble(model), model.absorb)
    assert action.terms == (
        ActionTerm(Coefficient.monomial(1, 16, pi=-2, e=2, thetaF=1), "F", "F"),
    )


def test_renormalize_rejects_ambiguous_absorb():
    flavor = FlavorSpec("psi", "m", +1, Coefficient.monomial(1, 1, a=1, b=1), ((1, "F"),))
    model = ModelSpec(
        slots=(SlotSpec("F", "A"),),
        flavors=(flavor,),
        absorb=(
            AbsorbDirective("a", "Na", ONE),
            AbsorbDirective("b", "Nb", ONE),
        ),
        constants=("a", "b"),
    )
    with pytest.raises(ModelError, match="ambiguous absorb") as info:
        renormalize(assemble(model), model.absorb)
    assert "'a'" in str(info.value) and "'b'" in str(info.value)


def test_renormalize_keeps_finite_terms():
    finite = EffectiveAction(
        terms=(ActionTerm(Coefficient.monomial(1, 3, e=2), "F", "F"),),
        slots=(SlotSpec("F", "A"),),
    )
    assert renormalize(finite, ()) == finite


def test_renormalize_names_an_undeclared_slot():
    action = EffectiveAction(terms=(ActionTerm(ONE, "G", "F"),), slots=(SlotSpec("F", "A"),))
    with pytest.raises(ModelError, match="^unknown slot 'G'$"):
        renormalize(action, ())


@pytest.mark.parametrize(
    "terms",
    [
        (ActionTerm(ONE, "G", "b"),),  # the multiplier's partner
        (ActionTerm(ONE, "F", "b"), ActionTerm(ONE, "G", "G")),  # a remaining term
    ],
    ids=["partner", "remaining"],
)
def test_eliminate_bf_names_an_undeclared_slot(terms):
    action = EffectiveAction(terms=terms, slots=(SlotSpec("F", "A"), SlotSpec("b", None)))
    with pytest.raises(ModelError, match="^unknown slot 'G'$"):
        eliminate_bf(action)


def test_eliminate_bf_golden_path():
    model = bf_model()
    action = renormalize(assemble(model), model.absorb)
    reduced, did = eliminate_bf(action)
    assert did
    assert reduced.terms == (
        ActionTerm(Coefficient.monomial(1, 4, CF=1), "F", "F"),
    )


def test_eliminate_bf_without_fundamental_slot_is_noop():
    model = theta_model()
    action = renormalize(assemble(model), model.absorb)
    same, did = eliminate_bf(action)
    assert not did
    assert same == action


def test_eliminate_bf_rejects_quadratic_multiplier():
    action = EffectiveAction(
        terms=(ActionTerm(ONE, "b", "b"),),
        slots=(SlotSpec("F", "A"), SlotSpec("b", None)),
    )
    with pytest.raises(NotReducibleError):
        eliminate_bf(action)


def test_eliminate_bf_rejects_doubly_fed_partner():
    # two monomials on (f, b): the ratio for the substitution is not a monomial
    action = EffectiveAction(
        terms=(
            ActionTerm(ONE.with_consts(LambdaF=1), "F", "b"),
            ActionTerm(ONE.with_consts(LambdaF=1), "f", "b"),
            ActionTerm(ONE.with_consts(CF=1), "f", "b"),
        ),
        slots=(SlotSpec("F", "A"), SlotSpec("f", "a"), SlotSpec("b", None)),
    )
    with pytest.raises(NotReducibleError, match="more than one monomial"):
        eliminate_bf(action)


def test_eliminate_bf_commutes_with_rescaling():
    model = bf_model()
    action = renormalize(assemble(model), model.absorb)
    scale = Coefficient.monomial(3, 7, e=2)
    direct, _ = eliminate_bf(scaled(action, scale))
    indirect = scaled(eliminate_bf(action)[0], scale)
    assert direct == indirect


def test_eliminate_bf_unequal_couplings_scale_the_result():
    # b couples to F with coefficient 2 and to f with coefficient 1, so the
    # constraint gives f -> 2F and the Ff cross term doubles.
    action = EffectiveAction(
        terms=(
            ActionTerm(Coefficient.rational(2), "F", "b"),
            ActionTerm(ONE, "f", "b"),
            ActionTerm(ONE.with_consts(CF=1), "F", "f"),
        ),
        slots=(SlotSpec("F", "A"), SlotSpec("f", "a"), SlotSpec("b", None)),
    )
    reduced, _ = eliminate_bf(action)
    assert reduced.terms == (
        ActionTerm(Coefficient.rational(2).with_consts(CF=1), "F", "F"),
    )


# ---------------------------------------------------------------------------
# Quantization classifier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "theta,nf,expected",
    [
        (Fraction(1), 1, TRI_NONTRIVIAL),
        (Fraction(1, 3), 3, TRI_NONTRIVIAL),
        (Fraction(2), 1, TRI_TRIVIAL),
        (Fraction(0), 1, TRI_TRIVIAL),
        (Fraction(1, 2), 1, NOT_TRI),
        (Fraction(-1), 1, TRI_NONTRIVIAL),
        (Fraction(1, 9), 3, TRI_NONTRIVIAL),
    ],
)
def test_check_quantization_cases(theta, nf, expected):
    assert check_quantization(theta, nf).classification == expected


def test_check_quantization_brute_force_phase_argument():
    # theta = pi/2, Nf = 1: exp(i pi N / 2) != exp(-i pi N / 2) already at N = 1
    import cmath

    for n in range(1, 11):
        forward = cmath.exp(1j * cmath.pi / 2 * n)
        backward = cmath.exp(-1j * cmath.pi / 2 * n)
        if abs(forward - backward) > 1e-12:
            break
    else:  # pragma: no cover
        pytest.fail("phase comparison should have found a breaking charge")
    assert check_quantization(Fraction(1, 2), 1).classification == NOT_TRI


def test_check_quantization_periodicity_and_reflection():
    rng = random.Random(2024)
    for _ in range(100):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        nf = rng.choice([1, 3, 5, 7])
        base = check_quantization(q, nf).classification
        assert check_quantization(q + 2, nf).classification == base
        assert check_quantization(-q, nf).classification == base


def test_check_quantization_charge_multiplier():
    assert check_quantization(Fraction(1), 3).charge_multiplier == 9


@pytest.mark.parametrize("nf", [0, -3, 2, 8])
def test_check_quantization_domain_errors(nf):
    with pytest.raises(DomainError):
        check_quantization(Fraction(1), nf)


@pytest.mark.parametrize(
    "theta, nf, named",
    [
        (Fraction(1, 3), 3.0, "3.0"),
        (Fraction(1), True, "True"),
        (Fraction(1), "3", "'3'"),
        (0.1, 1, "0.1"),
        (1.0, 1, "1.0"),
        (True, 1, "True"),
        ("1/3", 3, "'1/3'"),
    ],
)
def test_check_quantization_rejects_a_non_integer_argument(theta, nf, named):
    # nf is an int and theta/pi an int or a Fraction, neither a bool
    with pytest.raises(DomainError, match=f"got {re.escape(named)}$"):
        check_quantization(theta, nf)


def test_check_quantization_accepts_an_int_theta():
    result = check_quantization(3, 1)
    assert result == check_quantization(Fraction(3), 1)
    assert type(result.theta_over_pi) is Fraction and type(result.nf) is int
