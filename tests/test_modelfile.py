"""Model-file parsing and diagnostics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipoleft.algebra import Coefficient
from dipoleft.modelfile import ModelFileError, parse_model, parse_monomial


def test_parse_theta_model_file(theta_model_path):
    model = parse_model(theta_model_path.read_text())
    assert [s.name for s in model.slots] == ["F"]
    assert model.slots[0].potential == "A"
    (flavor,) = model.flavors
    assert flavor.chirality == +1
    assert flavor.mass == "m"
    assert flavor.coeff == Coefficient.monomial(1, 2, e=1, alpha=1)
    assert flavor.combo == ((1, "F"),)
    (directive,) = model.absorb
    assert directive.coupling == "alpha"
    assert directive.finite_name == "thetaF"
    assert directive.scale == Coefficient.monomial(1, 32, pi=-2)
    assert model.constants == ("alpha", "e")


def test_parse_bf_model_file(bf_model_path):
    model = parse_model(bf_model_path.read_text())
    assert len(model.flavors) == 6
    assert [s.name for s in model.slots] == ["F", "f", "b"]
    assert model.slots[2].potential is None
    combos = {f.name: f.combo for f in model.flavors}
    assert combos["psi2"] == ((1, "F"), (-1, "b"))
    chiralities = [f.chirality for f in model.flavors]
    assert chiralities == [1, -1, 1, -1, 1, -1]
    scales = {d.finite_name: d.scale for d in model.absorb}
    assert scales["LambdaF"] == Coefficient.rational(1, 8)
    assert scales["CF"] == Coefficient.rational(1, 4)


def _diagnostics(text: str):
    with pytest.raises(ModelFileError) as info:
        parse_model(text)
    return info.value.diagnostics


def _codes(text: str) -> list[tuple[str, int]]:
    return [(d.code, d.line) for d in _diagnostics(text)]


def test_unsupported_dimension_diagnostic():
    assert _codes("dim 5\n") == [("unsupported-dimension", 1)]


def test_missing_dim_diagnostic():
    assert _codes("constant e\n") == [("missing-dim", 0)]


def test_unknown_slot_in_combo():
    text = "dim 4\nconstant g\nslot F exact A\nflavor p mass m chirality + coeff g combo F+X\n"
    assert ("unknown-slot", 4) in _codes(text)


def test_duplicate_flavor_name():
    text = (
        "dim 4\nconstant g\nslot F exact A\n"
        "flavor p mass m chirality + coeff g combo F\n"
        "flavor p mass m chirality - coeff g combo F\n"
    )
    assert ("duplicate-flavor", 5) in _codes(text)


@pytest.mark.parametrize("name", ["pi", "I0", "Z", "d", "eps", "gammaE", "Lambda"])
def test_reserved_constant_names_rejected(name):
    assert ("reserved-name", 2) in _codes(f"dim 4\nconstant {name}\n")


def test_undeclared_constant_in_coeff():
    text = "dim 4\nslot F exact A\nflavor p mass m chirality + coeff g combo F\n"
    assert ("bad-monomial", 3) in _codes(text)


@pytest.mark.parametrize("coeff", ["e*alpha/0", "1/0*e", "e/0"])
def test_zero_denominator_in_coeff(coeff):
    text = (
        "dim 4\nconstant e\nconstant alpha\nslot F exact A\n"
        f"flavor p mass m chirality + coeff {coeff} combo F\n"
    )
    with pytest.raises(ModelFileError) as info:
        parse_model(text)
    (diag,) = info.value.diagnostics
    assert (diag.code, diag.line) == ("bad-monomial", 5)
    assert "zero denominator" in diag.message


def test_absorb_requires_declared_coupling():
    text = "dim 4\nabsorb alpha^2 as thetaF\n"
    assert ("unknown-constant", 2) in _codes(text)


def test_unknown_directive_and_comments():
    text = "# a comment line\ndim 4\nfrobnicate x\n"
    assert _codes(text) == [("syntax", 3)]


def test_lines_break_only_at_newlines():
    # A form feed ends no line, so the undeclared constant is on line 4.
    text = "dim 4\nconstant e\x0c\nslot F exact A\nflavor p mass m chirality + coeff q combo F\n"
    assert _codes(text) == [("bad-monomial", 4)]
    # U+0085 inside a line is whitespace there, not a line of its own.
    assert _codes("dim 4\nconstant e \x85 x\n") == [("syntax", 2)]
    assert _codes("dim 4\r\nconstant e\rconstant e\n") == [("duplicate-constant", 3)]


@pytest.mark.parametrize(
    "line, message",
    [
        ("slot G", "expected: slot <name> exact <potential> | slot <name> fundamental"),
        (
            "flavor psi mass m",
            "expected: flavor <name> mass <sym> chirality +|- coeff <monomial> combo <slots>",
        ),
        (
            "absorb alpha as thetaF",
            "expected: absorb <constant>^2 as <name> [scale <rational>[/pi^<k>]]",
        ),
        ("flavor psi mass m chirality x coeff e combo F", "chirality must be + or -"),
    ],
    ids=["slot", "flavor", "absorb", "chirality"],
)
def test_malformed_directive_is_a_syntax_diagnostic(line, message):
    (diag,) = _diagnostics(f"dim 4\nconstant e\nconstant alpha\nslot F exact A\n{line}\n")
    assert (diag.code, diag.line, diag.message) == ("syntax", 5, message)


@pytest.mark.parametrize("combo, message", [("F*F", "bad combo near '*F'"), ("F+", "bad combo 'F+'")])
def test_malformed_combo_is_a_bad_combo(combo, message):
    text = f"dim 4\nconstant e\nslot F exact A\nflavor p mass m chirality + coeff e combo {combo}\n"
    (diag,) = _diagnostics(text)
    assert (diag.code, diag.line, diag.message) == ("bad-combo", 4, message)


def test_a_negated_name_factor_negates_the_monomial():
    text = (
        "dim 4\nconstant e\nconstant alpha\nslot F exact A\n"
        "flavor p mass m chirality + coeff -e*alpha/2 combo F\n"
    )
    assert parse_model(text).flavors[0].coeff == Coefficient.monomial(-1, 2, e=1, alpha=1)
    assert parse_monomial("-e*-alpha", {"e", "alpha"}) == Coefficient.monomial(1, 1, e=1, alpha=1)


def test_duplicate_slot():
    text = "dim 4\nslot F exact A\nslot F fundamental\n"
    assert ("duplicate-slot", 3) in _codes(text)


def test_parse_monomial_forms():
    declared = {"e", "alpha", "lambda"}
    assert parse_monomial("e*alpha/2", declared) == Coefficient.monomial(1, 2, e=1, alpha=1)
    assert parse_monomial("lambda/2", declared) == Coefficient.monomial(1, 2).with_consts(
        **{"lambda": 1}
    )
    assert parse_monomial("-1/8*e^2*pi^-1", declared) == Coefficient.monomial(-1, 8, e=2, pi=-1)
    assert parse_monomial("3", declared) == Coefficient.rational(3)
    with pytest.raises(ValueError):
        parse_monomial("q", declared)
    with pytest.raises(ValueError):
        parse_monomial("e**2", declared)


@pytest.mark.parametrize("scale", ["0", "0/pi^2", "-0/3/pi"])
def test_zero_scale_is_a_diagnostic(scale):
    text = f"dim 4\nconstant g\nabsorb g^2 as G scale {scale}\n"
    (diag,) = _diagnostics(text)
    assert (diag.code, diag.line) == ("bad-scale", 3)
    assert "zero scale" in diag.message


def test_scale_without_pi_power():
    model = parse_model(
        "dim 4\nconstant g\nslot F exact A\n"
        "flavor p mass m chirality + coeff g combo F\n"
        "absorb g^2 as G scale 1/8\n"
    )
    assert model.absorb[0].scale == Coefficient.rational(1, 8)


def test_scale_with_bare_pi():
    model = parse_model(
        "dim 4\nconstant g\nslot F exact A\n"
        "flavor p mass m chirality + coeff g combo F\n"
        "absorb g^2 as G scale 1/2/pi\n"
    )
    assert model.absorb[0].scale == Coefficient.monomial(1, 2, pi=-1)


def test_diagnostics_accumulate_with_line_numbers():
    text = "dim 5\nconstant pi\nslot F exact A\nslot F exact A\n"
    codes = _codes(text)
    assert ("unsupported-dimension", 1) in codes
    assert ("reserved-name", 2) in codes
    assert ("duplicate-slot", 4) in codes


THETA = (
    "dim 4\nconstant e real positive\nconstant alpha real\nslot F exact A\n"
    "flavor psi mass m chirality + coeff e*alpha/2 combo F\n"
    "absorb alpha^2 as thetaF scale 1/32/pi^2\n"
)


def test_duplicate_absorb_cites_second_line():
    codes = _codes(THETA + "absorb alpha^2 as thetaG scale 1/32/pi^2\n")
    assert codes == [("duplicate-absorb", 7)]


def test_absorb_into_the_cutoff_symbol_is_rejected():
    assert _codes(THETA.replace("as thetaF", "as Lambda")) == [("reserved-name", 6)]


def test_mass_symbol_may_not_be_a_constant():
    assert _codes(THETA.replace("mass m", "mass e")) == [("name-clash", 5)]


def test_mass_symbol_equal_to_absorbed_coupling_is_rejected():
    text = THETA.replace("mass m", "mass e").replace("e*alpha/2", "e/2").replace("alpha^2", "e^2")
    assert _codes(text) == [("name-clash", 5)]


def test_constant_may_not_reuse_an_earlier_mass_symbol():
    assert _codes(THETA + "constant m\n") == [("name-clash", 7)]


# A snippet declaring the name X as each kind; i keeps its other names apart.
KIND_SNIPPETS = {
    "constant": lambda i: "constant X",
    "slot": lambda i: "slot X fundamental",
    "potential": lambda i: f"slot S{i} exact X",
    "flavor": lambda i: "flavor X mass 0 chirality + coeff e combo F",
    "mass": lambda i: f"flavor chi{i} mass X chirality + coeff e combo F",
    "finite name": lambda i: f"absorb g{i}^2 as X",
}
KIND_HEADER = "dim 4\nconstant e\nconstant g1\nconstant g2\nslot F exact A\n"


@pytest.mark.parametrize("second", sorted(KIND_SNIPPETS))
@pytest.mark.parametrize("first", sorted(KIND_SNIPPETS))
def test_every_name_has_one_kind_and_one_line(first, second):
    text = KIND_HEADER + f"{KIND_SNIPPETS[first](1)}\n{KIND_SNIPPETS[second](2)}\n"
    if first == second == "mass":
        # flavors may share a mass symbol
        assert [f.mass for f in parse_model(text).flavors] == ["X", "X"]
        return
    (diag,) = _diagnostics(text)
    code = "duplicate-" + first.replace(" ", "-") if first == second else "name-clash"
    assert (diag.code, diag.line) == (code, 7)
    assert "'X'" in diag.message and "line 6" in diag.message
    assert first in diag.message and second in diag.message


@pytest.mark.parametrize(
    "line, kind",
    [
        ("slot G exact B-1", "potential"),
        ("slot F-1 exact A", "slot"),
        ("slot F-1 fundamental", "slot"),
        ("flavor p-s mass m chirality + coeff e combo F", "flavor"),
        ("flavor psi mass 2m chirality + coeff e combo F", "mass"),
        ("constant 3x", "constant"),
    ],
)
def test_a_name_that_is_not_an_identifier_is_a_bad_name(line, kind):
    (diag,) = _diagnostics(f"dim 4\nconstant e\nslot F exact A\n{line}\n")
    assert (diag.code, diag.line) == ("bad-name", 4)
    assert kind in diag.message


def test_constant_without_a_name_is_a_syntax_diagnostic():
    assert _codes("dim 4\nconstant\n") == [("syntax", 2)]


def test_slot_named_like_its_own_potential_clashes():
    (diag,) = _diagnostics("dim 4\nslot A exact A\n")
    assert (diag.code, diag.line) == ("name-clash", 2)
    assert "line 2" in diag.message


def test_combo_naming_a_rejected_slot_adds_no_diagnostic():
    text = (
        "dim 4\nconstant e\nslot F exact A\nslot G exact A\n"
        "flavor psi mass m chirality + coeff e combo F+G\n"
    )
    assert _codes(text) == [("duplicate-potential", 4)]


def test_duplicate_potential_cites_both_lines():
    text = "dim 4\nconstant e\nslot F exact A\nslot G exact A\nslot b fundamental\n"
    with pytest.raises(ModelFileError) as info:
        parse_model(text)
    (diag,) = info.value.diagnostics
    assert (diag.code, diag.line) == ("duplicate-potential", 4)
    assert "'A'" in diag.message and "line 3" in diag.message


def test_dim_with_a_non_decimal_digit_is_a_syntax_diagnostic():
    assert _codes("dim ²\n") == [("syntax", 1), ("missing-dim", 0)]


_NUMERATORS = st.integers(-10**6, 10**6)
_DENOMINATORS = st.none() | st.integers(1, 10**6)


def _rational_text(num: int, den: int | None) -> str:
    return str(num) if den is None else f"{num}/{den}"


@settings(max_examples=200, deadline=None)
@given(
    num=_NUMERATORS.filter(bool),
    den=_DENOMINATORS,
    k=st.none() | st.integers(-3, 6),
    bare_pi=st.booleans(),
)
def test_scale_round_trip(num, den, k, bare_pi):
    suffix = "" if k is None else ("/pi" if k == 1 and bare_pi else f"/pi^{k}")
    text = f"dim 4\nconstant g\nabsorb g^2 as G scale {_rational_text(num, den)}{suffix}\n"
    (directive,) = parse_model(text).absorb
    expected = Coefficient(re=Fraction(num, den or 1)).with_consts(pi=-(k or 0))
    assert directive.scale == expected


@settings(max_examples=200, deadline=None)
@given(
    num=_NUMERATORS,
    den=_DENOMINATORS,
    name=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
    k=st.none() | st.integers(-4, 4),
)
def test_monomial_round_trip(num, den, name, k):
    text = f"{_rational_text(num, den)}*{name}" + ("" if k is None else f"^{k}")
    expected = Coefficient(re=Fraction(num, den or 1)).with_consts(**{name: 1 if k is None else k})
    assert parse_monomial(text, {name}) == expected
