"""Text, LaTeX and structured rendering; structured round trip."""

import inspect
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipoleft.algebra import Coefficient
from dipoleft.action import (
    ActionTerm,
    EffectiveAction,
    SlotSpec,
    assemble,
    normal_form,
    renormalize,
)
from dipoleft.modelfile import ModelFileError, parse_model
from dipoleft.render import (
    FIELD_STRENGTH,
    POTENTIAL,
    RenderError,
    coefficient_structured,
    render_latex,
    render_structured,
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


def test_latex_bubble_of_another_mass():
    model = parse_model(
        "dim 4\nconstant e real positive\nslot F exact A\n"
        "flavor psi mass m chirality + coeff e combo F\n"
        "flavor chi mass M chirality + coeff e combo F\n"
        "flavor xi mass mu chirality + coeff e combo F\n"
    )
    latex = render_latex(assemble(model))
    assert r"I(0)\,e^{2}\,m^{2}" in latex
    assert r"I_{M}(0)\,M^{2}\,e^{2}" in latex
    assert r"I_{\mu}(0)\,e^{2}\,\mu^{2}" in latex
    assert "I0" not in latex


@pytest.mark.parametrize("form", [FIELD_STRENGTH, POTENTIAL])
@pytest.mark.parametrize("renormalized", [False, True], ids=["divergent", "renormalized"])
def test_latex_prints_each_underscore_of_a_name(form, renormalized):
    model = parse_model(
        "dim 4\nconstant e_b real positive\nconstant e_b_c real\nslot F_x exact A_y\n"
        "flavor psi_1 mass m_2 chirality + coeff e_b*e_b_c/2 combo F_x\n"
        "absorb e_b_c^2 as theta_F scale 1/32/pi^2\n"
    )
    action = assemble(model)
    if renormalized:
        action = renormalize(action, model.absorb)
    latex = render_latex(action, form)
    assert r"e\_b" in latex
    # a bare "_" opens a subscript group; a second one on a name would not compile
    assert re.findall(r"(?<!\\)_(?!\{)", latex) == []


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


def test_latex_joins_a_negative_later_term_with_a_minus():
    slots = (SlotSpec("F", "A"), SlotSpec("G", "B"))
    terms = (
        ActionTerm(Coefficient.rational(-1, 2), "F", "F"),
        ActionTerm(Coefficient.rational(-3), "F", "G"),
    )
    latex = render_latex(EffectiveAction(terms, slots))
    eps = r"\epsilon^{\mu\nu\rho\sigma}"
    assert latex == (
        rf"\[ S = \int d^4x\; -\frac{{1}}{{2}}\, {eps} F_{{\mu\nu}} F_{{\rho\sigma}}"
        rf" - 3\, {eps} F_{{\mu\nu}} G_{{\rho\sigma}} \]"
    )


def test_imaginary_coefficient_read_from_a_payload_renders():
    coefficient = {"num": -1, "den": 2, "i_power": 1, "pi_power": 0, "constants": {"e": 2}}
    action, _ = structured_to_action(_payload_with(coefficient=coefficient, slots=["F", "G"]))
    eps = r"\epsilon^{\mu\nu\rho\sigma}"
    assert render_text(action) == (
        "(-1/2) * i * e^2 * eps[mu nu rho sigma] F[mu nu] G[rho sigma]"
    )
    assert render_latex(action) == (
        rf"\[ S = \int d^4x\; -\frac{{i\,e^{{2}}}}{{2}}\, {eps} F_{{\mu\nu}} G_{{\rho\sigma}} \]"
    )
    assert render_structured(action)["terms"][0]["coefficient"] == coefficient


def test_structured_writer_refuses_the_symbolic_dimension():
    with pytest.raises(RenderError, match="^structured coefficients cannot carry the symbolic dimension$"):
        coefficient_structured(Coefficient.one().with_consts(d=1))


def test_empty_action_renders_empty_output():
    empty = EffectiveAction(terms=(), slots=(SlotSpec("F", "A"),))
    assert render_text(empty) == ""
    assert render_latex(empty) == ""
    rebuilt, _ = structured_to_action(render_structured(empty))
    assert rebuilt == empty


def test_metric_sector_term_rejected():
    # An action term is eps X X only: the factor 2 per exact slot in potential
    # form holds under eps, so a metric term on F would print a wrong number.
    assert list(inspect.signature(ActionTerm).parameters) == ["coeff", "slot_a", "slot_b"]
    assert ActionTerm.structure == "epsilon"
    payload = _payload_with(tensor="metric", form=POTENTIAL) | {"form": POTENTIAL}
    with pytest.raises(RenderError, match="'metric'"):
        structured_to_action(payload)


def test_mixed_gaussian_coefficient_rejected():
    bad = EffectiveAction(
        terms=(ActionTerm(Coefficient(re=Fraction(1), im=Fraction(1)), "F", "F"),),
        slots=(SlotSpec("F", "A"),),
    )
    with pytest.raises(RenderError):
        render_text(bad)


@pytest.mark.parametrize("render", [render_text, render_latex])
def test_too_large_coefficient_is_named_before_a_mixed_one(render):
    huge = Fraction(10 ** (sys.get_int_max_str_digits() + 1))
    coeff = Coefficient(re=huge, im=Fraction(1), consts=(("e", 2), ("pi", -1)))
    bad = EffectiveAction(terms=(ActionTerm(coeff, "F", "F"),), slots=(SlotSpec("F", "A"),))
    with pytest.raises(RenderError, match=r"^the coefficient of the eps F F term in e\^2 \* pi\^-1 is too large"):
        render(bad)


def test_unknown_form_rejected(theta_action):
    with pytest.raises(RenderError):
        render_text(theta_action, "momentum")


def test_latex_rejects_what_it_cannot_print():
    # text prints (1/4) * log(mu^2/m^2) * eps^-1; LaTeX has no place for either factor
    coeff = Coefficient.rational(1, 4).with_log("log(mu^2/m^2)").with_eps(-1)
    action = EffectiveAction(terms=(ActionTerm(coeff, "F", "F"),), slots=(SlotSpec("F", "A"),))
    assert "log(mu^2/m^2) * eps^-1" in render_text(action)
    with pytest.raises(RenderError, match="cannot carry log atoms or eps poles"):
        render_latex(action)


@pytest.mark.parametrize("render", [render_text, render_latex, render_structured])
def test_unknown_form_rejected_without_terms(render):
    # the form is checked once per call, not once per term
    with pytest.raises(RenderError, match="'bogus'"):
        render(EffectiveAction((), (SlotSpec("F", "A"),)), "bogus")


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
        _with_slot_entries(
            {"name": "F", "kind": "exact", "potential": "A"}, {"kind": "fundamental"}
        ),
        _payload_with(coefficient={"num": 1, "den": 0}),
        _with_slot_entries(
            {"name": "F", "kind": "exact", "potential": "A"}, {"name": "F", "kind": "fundamental"}
        ),
        _payload_with(coefficient={"num": 1, "den": 2, "i_power": 2}),
        _payload_with(coefficient={"num": 1, "den": 2, "i_power": -1}),
        _payload_with(coefficient={"num": 1, "den": 2, "i_power": True}),
        _payload_with(coefficient={"num": "x", "den": 2}),
        _payload_with(coefficient={"num": 1.5, "den": 2}),
        _payload_with(coefficient={"num": 1, "den": None}),
        _payload_with(coefficient={"den": 2}),
        _payload_with(coefficient={"num": 1, "den": 2, "pi_power": "2"}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"e": 0.5}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": ["e"]}),
        _payload_with(coefficient=[1, 2]),
        _payload_with() | {"terms": 3},
        _payload_with() | {"terms": [["epsilon", ["F", "G"]]]},
        {k: v for k, v in _payload_with().items() if k != "slots"},
        [_payload_with()],
        _with_slot_entries({"name": ["F"], "kind": "exact", "potential": "A"}),
        _with_slot_entries({"name": "F", "kind": "exact", "potential": 7}),
        _payload_with(slots=[["F"], "F"]),
        _payload_with() | {"form": [FIELD_STRENGTH]},
        _payload_with(form=[FIELD_STRENGTH]),
        _payload_with() | {"form": "bogus", "terms": []},
        _payload_with() | {"form": None},
        _with_slot_entries(
            {"name": "F", "kind": "exact", "potential": "A"},
            {"name": "G", "kind": "exact", "potential": "A"},
        ),
        _with_slot_entries({"name": "F", "kind": "exact"}),
        _with_slot_entries({"name": "F", "kind": "fundamental", "potential": "A"}),
        _with_slot_entries({"name": "F", "kind": "exact", "potential": ""}),
        _with_slot_entries({"name": "F G", "kind": "exact", "potential": "A"}),
        _with_slot_entries({"name": "F", "kind": "exact", "potential": "A-1"}),
        _with_slot_entries({"name": "F", "potential": "A"}),
        _with_slot_entries({"name": "F", "kind": "closed", "potential": "A"}),
        _with_slot_entries({"name": "F\n", "kind": "exact", "potential": "A"}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"e f": 2}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"I0[m-1]": 1}}),
        _payload_with(coefficient={"num": 1, "den": 1, "pi_power": 1, "constants": {"pi": 2}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"d": 1}}),
        _with_slot_entries(
            {"name": "F", "kind": "exact", "potential": "A"}, {"name": "A", "kind": "fundamental"}
        ),
        _payload_with(slots=["eps", "eps"])
        | {"slots": [{"name": "eps", "kind": "exact", "potential": "Lambda"}]},
        _payload_with(slots=["I0", "I0"]) | {"slots": [{"name": "I0", "kind": "fundamental"}]},
        _with_slot_entries({"name": "F", "kind": "exact", "potential": "d"}),
        _with_slot_entries(
            {"name": "F", "kind": "exact", "potential": "A"}, {"name": "gammaE", "kind": "fundamental"}
        ),
        _payload_with() | {"schema": True},
        _payload_with() | {"schema": 1.0},
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"eps": -1}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"Lambda": 2}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"gammaE": 1}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"Z": 1}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"I0[eps]": 1}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"F": 1}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"A": 1}}),
        _payload_with(coefficient={"num": 1, "den": 2, "constants": {"I0[G]": 1}}),
    ],
    ids=[
        "one-slot", "three-slots", "slots-string", "no-tensor", "no-coefficient",
        "slot-without-name", "zero-denominator", "duplicate-slot",
        "i-power-2", "i-power-negative", "i-power-bool", "num-string", "num-float",
        "den-null", "no-num", "pi-power-string", "constant-float-exponent",
        "constants-list", "coefficient-list", "terms-int", "term-list", "no-slots",
        "payload-list", "slot-name-list", "potential-int", "term-slot-list",
        "form-list", "term-form-list", "form-bogus-no-terms", "form-null",
        "duplicate-potential", "exact-without-potential", "fundamental-with-potential",
        "potential-empty", "slot-name-space", "potential-not-identifier", "no-kind",
        "kind-bogus", "slot-name-newline", "constant-name-space", "bubble-not-identifier",
        "constant-pi", "constant-d", "slot-name-is-a-potential",
        "reserved-slot-on-reserved-potential", "reserved-fundamental-slot", "reserved-potential",
        "reserved-unused-slot", "schema-true", "schema-float", "constant-eps",
        "constant-lambda", "constant-gammae", "constant-z", "bubble-of-reserved-mass",
        "constant-is-a-slot", "constant-is-a-potential", "bubble-of-a-slot-mass",
    ],
)
def test_structured_malformed_entry_rejected(payload):
    with pytest.raises(RenderError):
        structured_to_action(payload)


def test_structured_constant_named_like_a_slot_is_a_name_clash(theta_action):
    # a model file rejects `constant F` beside `slot F exact A` as name-clash
    payload = render_structured(theta_action)
    payload["terms"][0]["coefficient"]["constants"]["F"] = 1
    with pytest.raises(RenderError, match=r"^constant 'F' already declared as a slot in slots\[0\]$"):
        structured_to_action(payload)


# Names both readers take from a declaration: identifiers, and reserved names
# and tokens that are not identifiers.  None has a bracket or is I0: a payload
# reads the constant I0[M] as the bubble of mass M and I0 as the bubble of m,
# where a model file refuses both.
_IDENTIFIERS = ("F", "G", "H", "A", "B", "C", "e", "m")
_REFUSED_NAMES = ("pi", "eps", "Lambda", "2F", "A-1", "\u03b1")
_NAME_RULES = re.compile("bad-name|reserved-name|duplicate-(slot|potential|constant)|name-clash")


@st.composite
def _declarations(draw):
    """1-3 slots, each (name, potential or None), then 0-3 distinct constants."""
    names = st.sampled_from(_IDENTIFIERS * 3 + _REFUSED_NAMES)  # mostly identifiers
    slots = draw(st.lists(st.tuples(names, st.none() | names), min_size=1, max_size=3))
    return slots, draw(st.lists(names, unique=True, max_size=3))


@settings(max_examples=200, deadline=None)
@given(declarations=_declarations())
def test_both_readers_refuse_a_name_at_the_same_declaration_by_the_same_rule(declarations):
    # one line per declaration in the model file; in the payload the slots
    # in order, then one term on the first slot carrying every constant
    slots, constants = declarations
    lines = ["dim 4"] + [f"slot {n} exact {p}" if p else f"slot {n} fundamental" for n, p in slots]
    lines += [f"constant {c}" for c in constants]
    payload = {
        "schema": 1,
        "slots": [
            {"name": n, "kind": "exact", "potential": p} if p else {"name": n, "kind": "fundamental"}
            for n, p in slots
        ],
        "terms": [
            {
                "coefficient": {"num": 1, "den": 1, "constants": dict.fromkeys(constants, 1)},
                "tensor": "epsilon",
                "slots": [slots[0][0]] * 2,
            }
        ],
    }
    # where the payload declares what a model file declares on line n
    places = {n: f"in slots[{n - 2}]" for n in range(2, len(slots) + 2)}
    places |= dict.fromkeys(range(len(slots) + 2, len(lines) + 1), "in terms[0]")
    try:
        parse_model("\n".join(lines))
    except ModelFileError as exc:
        first = exc.diagnostics[0]
        assert _NAME_RULES.fullmatch(first.code)
        expected = re.sub(r"on line (\d+)$", lambda m: places[int(m[1])], first.message)
        with pytest.raises(RenderError) as raised:
            structured_to_action(payload)
        assert str(raised.value) == expected
    else:
        structured_to_action(payload)


def test_structured_constants_repeat_across_terms_and_beside_their_bubble():
    # a constant is declared by the first term using it; I0[M] declares M
    payload = _payload_with(coefficient={"num": 1, "den": 2, "constants": {"I0[M]": 1, "M": 2}})
    payload["terms"] *= 2
    action, _ = structured_to_action(payload)
    assert [t.coeff.consts for t in action.terms] == [(("I0[M]", 1), ("M", 2))]


def test_structured_declared_slots_and_tensors_accepted():
    action, _ = structured_to_action(_payload_with(tensor="epsilon", slots=["F", "G"]))
    assert action.terms == (ActionTerm(Coefficient.rational(1, 2), "F", "G"),)
    with pytest.raises(RenderError, match="'metric'"):
        structured_to_action(_payload_with(tensor="metric", slots=["F", "G"]))


def test_structured_terms_come_back_in_normal_form():
    # equal terms merge and a zero term is dropped, as at every other stage
    payload = _payload_with()
    (term,) = payload["terms"]
    payload["terms"] = [term, term, term | {"coefficient": {"num": 0, "den": 1}}]
    action, _ = structured_to_action(payload)
    assert action.terms == (ActionTerm(Coefficient.one(), "F", "F"),)
    assert len(render_text(action).splitlines()) == 1


# ---------------------------------------------------------------------------
# Structured round trip over drawn epsilon-only actions
# ---------------------------------------------------------------------------

_SLOT_NAMES = (("F", "A"), ("G", "B"), ("b", "c"))
_CONSTANTS = ("e", "alpha", "thetaF", "m", "M", "pi", "I0", "I0[M]")
_NOT_IDENTIFIERS = ("", "1F", "F G", "A-1", "F\n", "\u03b1")


@st.composite
def _monomials(draw):
    value = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    coeff = Coefficient(im=value) if draw(st.booleans()) else Coefficient(re=value)
    exponents = st.integers(-3, 3).filter(bool)
    powers = draw(st.dictionaries(st.sampled_from(_CONSTANTS), exponents, max_size=3))
    return coeff.with_consts(**powers)


@st.composite
def _eps_actions(draw, min_terms=0):
    """1-3 slots, each exact or fundamental, and up to 5 terms on them, in
    no particular order: like terms, zeros and both orientations occur."""
    n = draw(st.integers(1, 3))
    slots = tuple(
        SlotSpec(name, potential if draw(st.booleans()) else None)
        for name, potential in _SLOT_NAMES[:n]
    )
    names = st.sampled_from([s.name for s in slots])
    terms = draw(
        st.lists(st.builds(ActionTerm, _monomials(), names, names), min_size=min_terms, max_size=5)
    )
    return EffectiveAction(terms=tuple(terms), slots=slots)


@settings(max_examples=100, deadline=None)
@given(action=_eps_actions())
def test_structured_round_trip_returns_normal_form(action):
    expected = normal_form(action.terms, action.slots)
    for form in (FIELD_STRENGTH, POTENTIAL):
        assert structured_to_action(render_structured(action, form)) == (expected, form)


@settings(max_examples=100, deadline=None)
@given(action=_eps_actions(), form=st.sampled_from([FIELD_STRENGTH, POTENTIAL]), data=st.data())
def test_structured_term_order_does_not_change_the_action(action, form, data):
    payload = render_structured(action, form)
    expected = structured_to_action(payload)
    payload["terms"] = data.draw(st.permutations(payload["terms"]))
    assert structured_to_action(payload) == expected


@settings(max_examples=100, deadline=None)
@given(
    action=_eps_actions(min_terms=1),
    form=st.sampled_from([FIELD_STRENGTH, POTENTIAL]),
    mutation=st.sampled_from(["metric", "kind", "slot-name", "potential", "constant"]),
    bad_name=st.sampled_from(_NOT_IDENTIFIERS),
    data=st.data(),
)
def test_structured_mutation_rejected(action, form, mutation, bad_name, data):
    payload = render_structured(action, form)
    term = data.draw(st.sampled_from(payload["terms"]))
    slot = data.draw(st.sampled_from(payload["slots"]))
    if mutation == "metric":
        term["tensor"] = "metric"
    elif mutation == "kind":
        slot["kind"] = "fundamental" if slot["kind"] == "exact" else "exact"
    elif mutation == "slot-name":
        slot["name"] = bad_name
    elif mutation == "potential":
        slot["kind"], slot["potential"] = "exact", bad_name
    else:
        term["coefficient"]["constants"][bad_name] = 1
    with pytest.raises(RenderError):
        structured_to_action(payload)


def test_structured_reader_spells_the_mass_m_bubble_only_as_i0():
    # I0[m] would be a second spelling of I0, whose terms never merge with it
    def payload(name):
        return _payload_with(coefficient={"num": 1, "den": 2, "constants": {name: 1}})

    with pytest.raises(RenderError, match=r"^constant name 'I0\[m\]' is not an identifier"):
        structured_to_action(payload("I0[m]"))
    for name in ("I0", "I0[M]"):
        action, _ = structured_to_action(payload(name))
        assert [t.coeff.consts for t in action.terms] == [((name, 1),)]
