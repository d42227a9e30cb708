"""Text, LaTeX and structured rendering; structured round trip."""

from fractions import Fraction

import pytest

from dipoleft.algebra import Coefficient
from dipoleft.action import ActionTerm, EffectiveAction, SlotSpec, assemble, renormalize
from dipoleft.modelfile import parse_model
from dipoleft.render import (
    FIELD_STRENGTH,
    POTENTIAL,
    RenderError,
    render_latex,
    render_structured,
    render_term_text,
    render_text,
    structured_to_action,
)


@pytest.fixture(scope="module")
def theta_action(theta_model_path):
    model = parse_model(theta_model_path.read_text())
    return renormalize(assemble(model), model.absorb)


@pytest.fixture(scope="module")
def bf_action(bf_model_path):
    model = parse_model(bf_model_path.read_text())
    return renormalize(assemble(model), model.absorb)


def test_field_strength_text(theta_action):
    assert render_text(theta_action) == (
        "(1/32) * e^2 * thetaF * pi^-2 * eps[mu nu rho sigma] F[mu nu] F[rho sigma]"
    )


def test_potential_text(theta_action):
    assert render_text(theta_action, POTENTIAL) == (
        "(1/8) * e^2 * thetaF * pi^-2 * eps[mu nu rho sigma] dA[mu nu] dA[rho sigma]"
    )


def test_mixed_form_doubles_only_exact_slots(bf_action):
    lines = render_text(bf_action, POTENTIAL).splitlines()
    assert "(1) * LambdaF * eps[mu nu rho sigma] dA[mu nu] b[rho sigma]" in lines
    assert "(1) * CF * eps[mu nu rho sigma] dA[mu nu] da[rho sigma]" in lines


def test_latex_render(theta_action):
    latex = render_latex(theta_action, POTENTIAL)
    assert latex.startswith("\\[")
    assert r"\epsilon^{\mu\nu\rho\sigma}" in latex
    assert r"\partial_{\mu} A_{\nu}" in latex
    assert r"\frac{e^{2}\,\theta_{F}}{8\,\pi^{2}}" in latex


def test_structured_round_trip_both_forms(theta_action, bf_action):
    for action in (theta_action, bf_action):
        for form in (FIELD_STRENGTH, POTENTIAL):
            rebuilt, got_form = structured_to_action(render_structured(action, form))
            assert got_form == form
            assert rebuilt == action


def test_structured_round_trip_divergent(theta_model_path):
    model = parse_model(theta_model_path.read_text())
    action = assemble(model)
    payload = render_structured(action)
    assert payload["divergent"] is True
    assert payload["terms"][0]["coefficient"]["constants"] == {
        "I0": 1,
        "alpha": 2,
        "e": 2,
        "m": 2,
    }
    rebuilt, _ = structured_to_action(payload)
    assert rebuilt == action


def test_structured_schema_fields(theta_action):
    payload = render_structured(theta_action)
    assert payload["schema"] == 1
    (term,) = payload["terms"]
    assert term["tensor"] == "epsilon"
    assert term["slots"] == ["F", "F"]
    assert term["form"] == FIELD_STRENGTH
    assert term["coefficient"] == {
        "num": 1,
        "den": 32,
        "i_power": 0,
        "pi_power": -2,
        "constants": {"e": 2, "thetaF": 1},
    }


def test_empty_action_renders_empty_output():
    empty = EffectiveAction(terms=(), slots=(SlotSpec("F", "A"),))
    assert render_text(empty) == ""
    assert render_latex(empty) == ""
    rebuilt, _ = structured_to_action(render_structured(empty))
    assert rebuilt == empty


def test_metric_sector_term_renders():
    action = EffectiveAction(
        terms=(ActionTerm(Coefficient.rational(1, 3), "metric", "F", "F"),),
        slots=(SlotSpec("F", "A"),),
    )
    line = render_term_text(action.terms[0], action)
    assert line == "(1/3) * eta[mu rho] eta[nu sigma] F[mu nu] F[rho sigma]"


def test_mixed_gaussian_coefficient_rejected():
    bad = EffectiveAction(
        terms=(ActionTerm(Coefficient(re=Fraction(1), im=Fraction(1)), "epsilon", "F", "F"),),
        slots=(SlotSpec("F", "A"),),
    )
    with pytest.raises(RenderError):
        render_text(bad)


def test_unknown_form_rejected(theta_action):
    with pytest.raises(RenderError):
        render_text(theta_action, "momentum")


def _payload_with(**term_fields):
    term = {
        "coefficient": {"num": 1, "den": 2, "i_power": 0, "pi_power": 0, "constants": {}},
        "tensor": "epsilon",
        "slots": ["F", "F"],
        "form": FIELD_STRENGTH,
    } | term_fields
    return {
        "schema": 1,
        "form": FIELD_STRENGTH,
        "slots": [
            {"name": "F", "kind": "exact", "potential": "A"},
            {"name": "G", "kind": "fundamental"},
        ],
        "terms": [term],
    }


def test_structured_unknown_tensor_rejected():
    with pytest.raises(RenderError, match="'bogus'"):
        structured_to_action(_payload_with(tensor="bogus", slots=["F", "G"]))


def test_structured_undeclared_slot_rejected():
    with pytest.raises(RenderError, match="'H'"):
        structured_to_action(_payload_with(slots=["F", "H"]))


def _without(key):
    payload = _payload_with()
    del payload["terms"][0][key]
    return payload


def _with_slot_entries(*entries):
    return _payload_with() | {"slots": list(entries)}


@pytest.mark.parametrize(
    "payload",
    [
        _payload_with(slots=["F"]),
        _payload_with(slots=["F", "G", "F"]),
        _payload_with(slots="FG"),
        _without("tensor"),
        _without("coefficient"),
        _with_slot_entries({"name": "F", "potential": "A"}, {"kind": "fundamental"}),
        _payload_with(coefficient={"num": 1, "den": 0}),
        _with_slot_entries({"name": "F", "potential": "A"}, {"name": "F"}),
    ],
    ids=[
        "one-slot", "three-slots", "slots-string", "no-tensor", "no-coefficient",
        "slot-without-name", "zero-denominator", "duplicate-slot",
    ],
)
def test_structured_malformed_entry_rejected(payload):
    with pytest.raises(RenderError):
        structured_to_action(payload)


def test_structured_declared_slots_and_tensors_accepted():
    for tensor in ("epsilon", "metric"):
        action, _ = structured_to_action(_payload_with(tensor=tensor, slots=["F", "G"]))
        assert action.terms == (ActionTerm(Coefficient.rational(1, 2), tensor, "F", "G"),)
