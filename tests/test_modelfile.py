"""Model-file parsing and diagnostics."""

import pytest

from dipoleft.algebra import Coefficient
from dipoleft.modelfile import ModelFileError, parse_model, parse_monomial


def test_parse_theta_model_file(theta_model_path):
    model = parse_model(theta_model_path.read_text())
    assert model.dimension == 4
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


def _codes(text: str) -> list[tuple[str, int]]:
    with pytest.raises(ModelFileError) as info:
        parse_model(text)
    return [(d.code, d.line) for d in info.value.diagnostics]


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


def test_absorb_requires_declared_coupling():
    text = "dim 4\nabsorb alpha^2 as thetaF\n"
    assert ("unknown-constant", 2) in _codes(text)


def test_unknown_directive_and_comments():
    text = "# a comment line\ndim 4\nfrobnicate x\n"
    assert _codes(text) == [("syntax", 3)]


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
