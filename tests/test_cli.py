"""Command-line behavior and exit codes."""

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dipoleft import cli, selftest
from dipoleft.algebra import Coefficient, StructuralError
from dipoleft.cli import main
from dipoleft.dirac import trace_word
from dipoleft.modelfile import parse_model
from dipoleft.render import structured_to_action


REPO_ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_theta_text(capsys, theta_model_path):
    code, out, _ = run(capsys, "compute", str(theta_model_path))
    assert code == 0
    assert out.strip() == (
        "(1/32) * e^2 * thetaF * pi^-2 * eps[mu nu rho sigma] F[mu nu] F[rho sigma]"
    )


def test_compute_theta_potential_form(capsys, theta_model_path):
    code, out, _ = run(capsys, "compute", str(theta_model_path), "--form", "potential")
    assert code == 0
    assert out.strip().startswith("(1/8) * e^2 * thetaF * pi^-2")


def test_compute_structured_round_trips(capsys, bf_model_path):
    code, out, _ = run(capsys, "compute", str(bf_model_path), "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    action, _ = structured_to_action(payload)
    assert len(action.terms) == 3


def test_compute_keep_divergences(capsys, theta_model_path):
    code, out, _ = run(
        capsys, "compute", str(theta_model_path), "--keep-divergences", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["divergent"] is True
    assert payload["terms"][0]["coefficient"]["constants"]["I0"] == 1


def test_compute_latex(capsys, theta_model_path):
    code, out, _ = run(capsys, "compute", str(theta_model_path), "--format", "latex")
    assert code == 0
    assert out.startswith("\\[")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.eft"
    bad.write_text("dim 5\n")
    code, _, err = run(capsys, "compute", str(bad))
    assert code == 1
    assert "unsupported-dimension" in err
    assert "line 1" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/model.eft")
    assert code == 1
    assert err


def test_binary_model_file_exit_code(tmp_path, capsys):
    model = tmp_path / "binary.eft"
    model.write_bytes(b"\xff\xfe\x00dim 4\n")
    code, out, err = run(capsys, "compute", str(model))
    assert (code, out) == (1, "")
    assert err.startswith("error: 'utf-8' codec")


def test_model_file_may_start_with_a_byte_order_mark(tmp_path, capsys, theta_model_path):
    bom = tmp_path / "bom.eft"
    bom.write_bytes(b"\xef\xbb\xbf" + theta_model_path.read_bytes())
    assert run(capsys, "compute", str(bom)) == run(capsys, "compute", str(theta_model_path))


def test_parse_model_drops_a_byte_order_mark(theta_model_path):
    text = theta_model_path.read_text(encoding="utf-8")
    assert parse_model("\ufeff" + text) == parse_model(text)


def test_engine_errors_are_not_reported_as_diagnostics(monkeypatch, theta_model_path):
    # only the documented error classes become an exit-1 diagnostic
    def broken(model):
        raise StructuralError("index label(s) ['x'] occur more than twice")

    monkeypatch.setattr(cli, "assemble", broken)
    with pytest.raises(StructuralError):
        main(["compute", str(theta_model_path)])


def test_duplicate_potential_exit_code(tmp_path, capsys, theta_model_path):
    text = theta_model_path.read_text().replace(
        "slot F exact A", "slot F exact A\nslot G exact A"
    ).replace("combo F", "combo F+G")
    model = tmp_path / "shared_potential.eft"
    model.write_text(text)
    code, out, err = run(capsys, "compute", str(model), "--form", "potential")
    assert (code, out) == (1, "")
    assert "line 9: duplicate-potential" in err and "line 8" in err


def test_renormalization_incomplete_exit_code(tmp_path, capsys):
    model = tmp_path / "bare.eft"
    model.write_text(
        "dim 4\nconstant g\nslot F exact A\n"
        "flavor p mass m chirality + coeff g combo F\n"
    )
    code, _, err = run(capsys, "compute", str(model))
    assert code == 2
    assert "unabsorbed divergent" in err


def test_reduce_bf_with_substitutions(capsys, bf_model_path):
    code, out, _ = run(
        capsys,
        "reduce-bf",
        str(bf_model_path),
        "--form",
        "potential",
        "--set",
        "CF=1/8*e^2*pi^-1",
        "--set",
        "LambdaF=1/2*pi^-1",
    )
    assert code == 0
    assert out.strip() == (
        "(1/8) * e^2 * pi^-1 * eps[mu nu rho sigma] dA[mu nu] dA[rho sigma]"
    )


def test_reduce_bf_negative_constant(capsys, bf_model_path):
    code, out, _ = run(
        capsys, "reduce-bf", str(bf_model_path), "--form", "potential",
        "--set", "CF=-1/8*e^2*pi^-1",
    )
    assert code == 0
    assert out.strip().startswith("(-1/8) * e^2 * pi^-1")


def test_reduce_bf_eliminates_the_last_declared_coupled_potential(tmp_path, capsys, bf_model_path):
    # b couples to F and f; the later-declared of the two is eliminated, so
    # reversing the slot lines keeps da where the fixture keeps dA.
    slots = ["slot F exact A", "slot f exact a", "slot b fundamental"]
    text = bf_model_path.read_text()
    assert "\n".join(slots) in text
    model = tmp_path / "bf_reversed.eft"
    model.write_text(text.replace("\n".join(slots), "\n".join(reversed(slots))))
    for path, kept in ((bf_model_path, "dA"), (model, "da")):
        code, out, _ = run(capsys, "reduce-bf", str(path), "--form", "potential")
        assert code == 0
        assert out.strip() == (
            f"(1) * CF * eps[mu nu rho sigma] {kept}[mu nu] {kept}[rho sigma]"
        )


def test_reduce_bf_noop_notice(capsys, theta_model_path):
    code, out, err = run(capsys, "reduce-bf", str(theta_model_path))
    assert code == 0
    assert "unchanged" in err
    assert out.strip().startswith("(1/32)")


@pytest.mark.parametrize(
    "flavors",
    [
        "flavor psi mass m chirality + coeff e*alpha/2 combo F\n",
        # a massless flavor adds nothing at d = 4, so no term survives on b
        "flavor psi mass m chirality + coeff e*alpha/2 combo F\n"
        "flavor chi mass 0 chirality + coeff e*alpha/2 combo F+b\n",
    ],
    ids=["no-flavor-on-b", "massless-flavor-on-b"],
)
def test_reduce_bf_notes_a_multiplier_that_couples_to_nothing(tmp_path, capsys, flavors):
    model = tmp_path / "idle_multiplier.eft"
    model.write_text(
        THETA_HEADER + "slot b fundamental\n" + flavors
        + "absorb alpha^2 as thetaF scale 1/32/pi^2\n"
    )
    code, out, err = run(capsys, "reduce-bf", str(model))
    assert code == 0
    assert err == "note: multiplier slot 'b' couples to nothing; action returned unchanged\n"
    assert out == "(1/32) * e^2 * thetaF * pi^-2 * " + EPS_FF


THETA_HEADER = (
    "dim 4\nconstant e real positive\nconstant alpha real\nslot F exact A\n"
)


def test_compute_merges_flavors_of_different_masses(tmp_path, capsys):
    model = tmp_path / "two_masses.eft"
    model.write_text(
        THETA_HEADER
        + "flavor psi mass m chirality + coeff e*alpha/2 combo F\n"
        + "flavor chi mass M chirality + coeff e*alpha/2 combo F\n"
        + "absorb alpha^2 as thetaF scale 1/32/pi^2\n"
    )
    code, out, _ = run(capsys, "compute", str(model))
    assert code == 0
    assert out.splitlines() == [
        "(1/16) * e^2 * thetaF * pi^-2 * eps[mu nu rho sigma] F[mu nu] F[rho sigma]"
    ]


def test_compute_combo_f_minus_f_is_empty(tmp_path, capsys):
    model = tmp_path / "cancel.eft"
    model.write_text(
        THETA_HEADER
        + "flavor psi mass m chirality + coeff e*alpha/2 combo F-F\n"
        + "absorb alpha^2 as thetaF scale 1/32/pi^2\n"
    )
    code, out, _ = run(capsys, "compute", str(model))
    assert code == 0
    assert out == ""


def test_compute_ambiguous_absorb_exit_code(tmp_path, capsys):
    model = tmp_path / "ambiguous.eft"
    model.write_text(
        "dim 4\nconstant a real\nconstant b real\nslot F exact A\n"
        "flavor psi mass m chirality + coeff a*b combo F\n"
        "absorb a^2 as Na scale 1\nabsorb b^2 as Nb scale 1\n"
    )
    code, out, err = run(capsys, "compute", str(model))
    assert code == 1
    assert out == ""
    assert "ambiguous absorb" in err and "'a'" in err and "'b'" in err


def test_compute_duplicate_absorb_is_a_parse_diagnostic(tmp_path, capsys, theta_model_path):
    text = theta_model_path.read_text() + "absorb alpha^2 as thetaG scale 1/32/pi^2\n"
    model = tmp_path / "twice_absorbed.eft"
    model.write_text(text)
    code, out, err = run(capsys, "compute", str(model))
    assert code == 1
    assert out == ""
    assert f"line {len(text.splitlines())}: duplicate-absorb" in err


@pytest.mark.parametrize(
    "edit",
    [
        {"mass m": "mass e"},
        {"mass m": "mass e", "e*alpha/2": "e/2", "alpha^2": "e^2"},
    ],
    ids=["mass-e", "mass-e-absorbed"],
)
def test_compute_rejects_mass_named_like_a_constant(tmp_path, capsys, theta_model_path, edit):
    text = theta_model_path.read_text()
    for old, new in edit.items():
        text = text.replace(old, new)
    model = tmp_path / "mass_clash.eft"
    model.write_text(text)
    flavor_line = next(n for n, line in enumerate(text.splitlines(), 1) if line.startswith("flavor"))
    code, out, err = run(capsys, "compute", str(model))
    assert code == 1
    assert out == ""
    assert f"line {flavor_line}: name-clash" in err


@pytest.mark.parametrize(
    "edit",
    [
        {"as thetaF": "as e"},
        {"as thetaF": "as m"},
        {"as thetaF": "as alpha"},
        {"slot F exact A": "slot e exact A\nslot F exact A"},
        {"slot F exact A": "slot F exact m"},
    ],
    ids=["absorb-as-coupling", "absorb-as-mass", "absorb-as-absorbed", "slot-e", "potential-m"],
)
def test_compute_rejects_a_name_declared_as_two_kinds(tmp_path, capsys, theta_model_path, edit):
    # without the check the finite name or mass folds into the other name's powers
    text = theta_model_path.read_text()
    for old, new in edit.items():
        text = text.replace(old, new)
    model = tmp_path / "clash.eft"
    model.write_text(text)
    code, out, err = run(capsys, "compute", str(model))
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert ": name-clash: " in line


def test_compute_rejects_a_potential_name_that_is_not_an_identifier(tmp_path, capsys, theta_model_path):
    # without the check it printed dA-1[mu nu], which reads as dA - 1
    text = theta_model_path.read_text().replace("slot F exact A", "slot F exact A-1")
    model = tmp_path / "bad_name.eft"
    model.write_text(text)
    slot_line = next(n for n, line in enumerate(text.splitlines(), 1) if line.startswith("slot"))
    code, out, err = run(capsys, "compute", str(model), "--form", "potential")
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert f"line {slot_line}: bad-name: " in line


@pytest.mark.parametrize(
    "edit, culprit",
    [
        (
            {"constant alpha real": "constant alpha real\nconstant Lambda", "e*alpha/2": "e*alpha*Lambda/2"},
            "constant Lambda",
        ),
        ({"as thetaF": "as Lambda"}, "absorb"),
    ],
    ids=["constant-Lambda", "absorb-as-Lambda"],
)
def test_compute_rejects_the_cutoff_symbol_as_a_name(tmp_path, capsys, theta_model_path, edit, culprit):
    # Lambda is the cutoff: any power of it reads as a divergence
    text = theta_model_path.read_text()
    for old, new in edit.items():
        text = text.replace(old, new)
    model = tmp_path / "lambda.eft"
    model.write_text(text)
    line = next(n for n, raw in enumerate(text.splitlines(), 1) if raw.startswith(culprit))
    code, out, err = run(capsys, "compute", str(model))
    assert code == 1
    assert out == ""
    assert f"line {line}: reserved-name" in err


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_reduce_bf_rejects_doubly_fed_partner(tmp_path, capsys, bf_model_path, fmt):
    # f+b is fed by both lambda and beta: the multiplier ratio is not a monomial
    text = bf_model_path.read_text().replace(
        "absorb lambda^2",
        "flavor psi7 mass m chirality + coeff beta/2 combo f+b\n"
        "flavor psi8 mass m chirality - coeff beta/2 combo f-b\n"
        "absorb lambda^2",
    )
    model = tmp_path / "bf_doubly_fed.eft"
    model.write_text(text)
    code, out, err = run(capsys, "reduce-bf", str(model), "--format", fmt)
    assert code == 1
    assert out == ""  # no term on the dropped slot f
    assert "more than one monomial" in err


def test_set_unknown_name_exit_code(capsys, theta_model_path):
    code, out, err = run(capsys, "compute", str(theta_model_path), "--set", "thetaFF=2")
    assert code == 1
    assert out == ""
    assert "thetaFF" in err


def test_set_without_a_value_exit_code(capsys, theta_model_path):
    code, out, err = run(capsys, "compute", str(theta_model_path), "--set", "e")
    assert (code, out) == (1, "")
    assert err == "error: bad --set argument 'e'; expected NAME=MONOMIAL\n"


def test_reduce_bf_with_two_fundamental_slots_exit_code(tmp_path, capsys):
    model = tmp_path / "two_multipliers.eft"
    model.write_text(
        THETA_HEADER + "slot b fundamental\nslot c fundamental\n"
        "flavor psi mass m chirality + coeff e*alpha combo F+b+c\nabsorb alpha^2 as thetaF\n"
    )
    code, out, err = run(capsys, "reduce-bf", str(model))
    assert (code, out) == (1, "")
    assert err == "error: more than one fundamental 2-form slot\n"


def test_latex_joins_a_negative_later_term_with_a_minus(tmp_path, capsys):
    model = tmp_path / "two_slots.eft"
    model.write_text(
        "dim 4\nconstant e\nslot F exact A\nslot G exact B\n"
        "flavor psi mass m chirality + coeff e combo F-G\n"
    )
    code, out, _ = run(capsys, "compute", str(model), "--keep-divergences", "--format", "latex")
    assert code == 0
    bundle = r"I(0)\,e^{2}\,m^{2}\, \epsilon^{\mu\nu\rho\sigma}"
    assert out == (
        rf"\[ S = \int d^4x\; 4\,{bundle} F_{{\mu\nu}} F_{{\rho\sigma}}"
        rf" - 8\,{bundle} F_{{\mu\nu}} G_{{\rho\sigma}}"
        rf" + 4\,{bundle} G_{{\mu\nu}} G_{{\rho\sigma}} \]" "\n"
    )


@pytest.mark.parametrize("values", [("1", "2"), ("2", "1"), ("1", "1")])
def test_set_rejects_a_name_set_twice(capsys, theta_model_path, values):
    # either value would win silently, so the output would hang on flag order
    flags = [arg for value in values for arg in ("--set", f"e={value}")]
    code, out, err = run(capsys, "compute", str(theta_model_path), *flags)
    assert (code, out) == (1, "")
    assert err.startswith("error: --set 'e'") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "latex", "structured"])
def test_coefficient_too_large_to_print_exit_code(capsys, tmp_path, theta_model_path, fmt):
    # 2^60000 has 18,062 digits, beyond Python's default int-to-str limit
    model = tmp_path / "huge.eft"
    model.write_text(theta_model_path.read_text().replace("coeff e*alpha/2", "coeff e^30000*alpha/2"))
    code, out, err = run(capsys, "compute", str(model), "--set", "e=2", "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith(
        "error: the coefficient of the eps F F term in thetaF * pi^-2 is too large to print"
    )


@pytest.mark.parametrize("value", ["1/0", "1/0*pi^-1", "e/0"])
def test_set_zero_denominator_exit_code(capsys, bf_model_path, value):
    code, out, err = run(capsys, "reduce-bf", str(bf_model_path), "--set", f"LambdaF={value}")
    assert code == 1
    assert out == ""
    assert "zero denominator" in err


def test_set_zero_under_negative_power_exit_code(capsys, tmp_path, theta_model_path):
    # a coupling e^-1 puts e^-2 in the action, so e=0 would divide by zero
    model = tmp_path / "inverse_coupling.eft"
    model.write_text(theta_model_path.read_text().replace("coeff e*alpha", "coeff e^-1*alpha"))
    code, out, _ = run(capsys, "compute", str(model))
    assert code == 0 and "e^-2" in out
    for command in ("compute", "reduce-bf"):
        code, out, err = run(capsys, command, str(model), "--set", "e=0")
        assert (code, out) == (1, "")
        assert err == "error: --set e=0 divides by zero: the action carries 'e' to a negative power\n"


def test_set_applies_before_the_bf_reduction(capsys, tmp_path, bf_model_path):
    # with LambdaF = 0 the multiplier couples to nothing: compute's action and the note
    code, out, err = run(capsys, "compute", str(bf_model_path), "--set", "LambdaF=0")
    assert (code, out, err) == (0, "(1/4) * CF * eps[mu nu rho sigma] F[mu nu] f[rho sigma]\n", "")
    assert run(capsys, "reduce-bf", str(bf_model_path), "--set", "LambdaF=0") == (
        0, out, "note: multiplier slot 'b' couples to nothing; action returned unchanged\n"
    )
    # b couples to F through lambda and to f through beta, so reduce-bf divides by CF
    text = bf_model_path.read_text()
    for a, b in (("beta/4 combo F", "lambda/4 combo F"), ("lambda/2 combo f", "beta/2 combo f")):
        text = text.replace(a, b)
    model = tmp_path / "bf_swapped.eft"
    model.write_text(text)
    code, out, _ = run(capsys, "reduce-bf", str(model))
    assert code == 0 and "CF^-1" in out
    # with CF = 0, b couples to F alone and sets it to zero, so no term is left
    assert run(capsys, "reduce-bf", str(model), "--set", "CF=0") == (0, "", "")


def test_set_zero_drops_the_term(capsys, theta_model_path):
    code, out, err = run(capsys, "compute", str(theta_model_path), "--set", "e=0")
    assert (code, out, err) == (0, "", "")
    code, out, _ = run(
        capsys, "compute", str(theta_model_path), "--set", "e=0", "--format", "structured"
    )
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_set_merges_terms_it_makes_alike(capsys, tmp_path, theta_model_path):
    text = theta_model_path.read_text().replace(
        "absorb", "constant beta real\nflavor chi mass m chirality + coeff e*beta/2 combo F\nabsorb"
    )
    model = tmp_path / "two_couplings.eft"
    model.write_text(text)
    code, out, _ = run(capsys, "compute", str(model), "--keep-divergences")
    assert code == 0 and len(out.splitlines()) == 2
    code, out, _ = run(capsys, "compute", str(model), "--keep-divergences", "--set", "beta=alpha")
    assert code == 0
    assert out.splitlines() == [
        "(2) * I0 * alpha^2 * e^2 * m^2 * eps[mu nu rho sigma] F[mu nu] F[rho sigma]"
    ]


def test_zero_denominator_in_model_file_exit_code(capsys, tmp_path, theta_model_path):
    model = tmp_path / "zero_den.eft"
    model.write_text(theta_model_path.read_text().replace("coeff e*alpha/2", "coeff e*alpha/0"))
    code, out, err = run(capsys, "compute", str(model))
    assert code == 1
    assert out == ""
    assert "bad-monomial: zero denominator" in err


def test_zero_absorb_scale_exits_1(capsys, tmp_path, theta_model_path):
    # a zero scale would replace the divergent bundle by zero and print nothing
    model = tmp_path / "zero_scale.eft"
    model.write_text(theta_model_path.read_text().replace("scale 1/32/pi^2", "scale 0"))
    code, out, err = run(capsys, "compute", str(model))
    assert (code, out) == (1, "")
    assert "bad-scale" in err


def test_check_quantization_negative_theta(capsys):
    code, out, _ = run(capsys, "check-quantization", "--theta=-2pi", "--nf", "3")
    assert code == 0 and "theta = -2 pi" in out
    with pytest.raises(SystemExit):
        main(["check-quantization", "--help"])
    assert "--theta=-2pi" in capsys.readouterr().out


def test_check_quantization_outputs(capsys):
    code, out, _ = run(capsys, "check-quantization", "--theta", "1pi", "--nf", "1")
    assert code == 0 and "TRI-nontrivial" in out
    code, out, _ = run(capsys, "check-quantization", "--theta", "2pi", "--nf", "1")
    assert code == 0 and "TRI-trivial" in out
    code, out, _ = run(capsys, "check-quantization", "--theta", "1/2pi", "--nf", "1")
    assert code == 0 and "not-TRI" in out


def test_check_quantization_domain_error(capsys):
    code, _, err = run(capsys, "check-quantization", "--theta", "1pi", "--nf", "2")
    assert code == 1 and "odd" in err


def test_check_quantization_bad_theta(capsys):
    code, _, err = run(capsys, "check-quantization", "--theta", "tau", "--nf", "1")
    assert code == 1 and "pi" in err


@pytest.mark.parametrize("theta", ["1/0pi", "-3/00pi"])
def test_check_quantization_zero_denominator_theta(capsys, theta):
    code, out, err = run(capsys, "check-quantization", f"--theta={theta}", "--nf", "1")
    assert code == 1 and out == ""
    assert "nonzero denominator" in err


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--count", "40")
    assert code == 0
    assert "selftest: pass" in out


@pytest.mark.parametrize("count", ["-1", "0"])
def test_selftest_rejects_a_count_that_runs_no_check(capsys, count):
    code, out, err = run(capsys, "selftest", "--count", count)
    assert (code, out) == (1, "")
    assert err.startswith("error: --count")


@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_selftest_rejects_a_negative_seed(capsys, seed):
    # a documented diagnostic: the seed is refused before any check starts
    code, out, err = run(capsys, "selftest", "--seed", seed, "--count", "5")
    assert (code, out) == (1, "")
    assert err == f"error: --seed must be a non-negative integer, got {seed}\n"


def test_selftest_checks_loop_normalization_per_chirality(capsys, monkeypatch):
    code, out, _ = run(capsys, "selftest", "--count", "5")
    assert code == 0
    for chi in ("+1", "-1"):
        assert f"ok: loop normalization vs matrix integrand, chi={chi}" in out
    real = selftest.loop_normalization_deviation

    def broken_minus(model, *args, **kwargs):
        chirality = model.flavors[0].chirality
        return (1.0, 0.0) if chirality < 0 else real(model, *args, **kwargs)

    monkeypatch.setattr(selftest, "loop_normalization_deviation", broken_minus)
    code, out, _ = run(capsys, "selftest", "--count", "5")
    assert code == 3
    assert "FAIL: loop normalization vs matrix integrand, chi=-1" in out
    assert "selftest: fail" in out


# The fixed text of each selftest check line, in the order the checks run.
_SELFTEST_CHECKS = (
    "ok: gamma representation (clifford=",
    "ok: equivalence suite: seed=42 count=5 max_deviation=",
    "ok: dipole trace identities over 256 index tuples (eps=",
    "ok: loop normalization vs matrix integrand, chi=+1 (rank0=",
    "ok: loop normalization vs matrix integrand, chi=-1 (rank0=",
    "ok: radial quadrature vs closed form (max rel err ",
    "ok: rank-2 cutoff bracket vs radial quadrature (max rel err ",
    "ok: log-cutoff slope ",
    "ok: dimreg pole of I0 vs cutoff log, 1/eps <-> log(Lambda/m) ((1/8) * pi^-2 vs ",
    "ok: symbolic-d kernel at d = 4 vs epsilon-only kernel, massive and massless",
)


def test_selftest_runs_its_checks_in_order(capsys):
    code, out, _ = run(capsys, "selftest", "--count", "5")
    assert code == 0
    lines = out.splitlines()
    checks = [line for line in lines if line.startswith("ok:")]
    assert len(checks) == len(_SELFTEST_CHECKS)
    for line, prefix in zip(checks, _SELFTEST_CHECKS):
        assert line.startswith(prefix), line
    assert [line for line in lines if line not in checks] == ["result: pass", "selftest: pass"]


def test_selftest_fails_on_a_failing_equivalence_suite(capsys, monkeypatch):
    def doubled(word, mode):
        return trace_word(word, mode).scaled(Coefficient.rational(2))

    monkeypatch.setattr(selftest, "trace_word", doubled)
    code, out, _ = run(capsys, "selftest", "--count", "40")
    assert code == 3
    lines = out.splitlines()
    assert any(line.startswith("FAIL: equivalence suite: seed=42 count=40 ") for line in lines)
    assert any(line.startswith("FAIL tr(") for line in lines)
    assert "result: fail" in lines
    assert sum(line.startswith("ok:") for line in lines) == len(_SELFTEST_CHECKS) - 1
    assert lines[-1] == "selftest: fail"


def test_selftest_fails_on_a_dimreg_pole_off_the_cutoff_log(capsys, monkeypatch):
    real = selftest.laurent_expand

    def doubled():
        return real().scaled(Coefficient.rational(2))

    monkeypatch.setattr(selftest, "laurent_expand", doubled)
    code, out, _ = run(capsys, "selftest", "--count", "5")
    assert code == 3
    lines = out.splitlines()
    assert "FAIL: dimreg pole of I0 vs cutoff log, 1/eps <-> log(Lambda/m) " \
        "((1/4) * pi^-2 vs (1/8) * pi^-2)" in lines
    assert sum(line.startswith("ok:") for line in lines) == len(_SELFTEST_CHECKS) - 1
    assert lines[-1] == "selftest: fail"


def test_selftest_fails_when_the_metric_sector_survives_d_equals_4(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "substitute_dimension", lambda expr, value: expr)
    code, out, _ = run(capsys, "selftest", "--count", "5")
    assert code == 3
    lines = out.splitlines()
    assert "FAIL: symbolic-d kernel at d = 4 vs epsilon-only kernel, massive and massless" in lines
    assert sum(line.startswith("ok:") for line in lines) == len(_SELFTEST_CHECKS) - 1
    assert lines[-1] == "selftest: fail"


@pytest.mark.skipif(shutil.which("dipoleft") is None, reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["dipoleft", "check-quantization", "--theta", "1/3pi", "--nf", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "TRI-nontrivial" in proc.stdout


# What the [project.scripts] wrapper of an installed ``dipoleft`` runs.
CONSOLE_SCRIPT = "import sys; from dipoleft.cli import main; sys.exit(main())"


def fresh(*argv, code=CONSOLE_SCRIPT) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``code`` in a fresh interpreter on the source tree."""
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env["COLUMNS"] = "80"  # help and usage texts wrap at the terminal width
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, cwd=REPO_ROOT
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_or_exit(capsys, *argv) -> tuple[int, str, str]:
    """``run``, with a usage error's or ``--help``'s ``SystemExit`` read as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_console_script_entry_point_without_installation(tmp_path):
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'dipoleft = "dipoleft.cli:main"' in scripts.splitlines()

    code, out, err = fresh("check-quantization", "--theta", "1/3pi", "--nf", "3")
    assert (code, err) == (0, "")
    assert "TRI-nontrivial" in out

    code, out, err = fresh("compute")
    assert (code, out) == (2, "")
    assert err.startswith("usage: dipoleft compute ")
    assert "dipoleft compute: error: the following arguments are required: file" in err

    code, out, err = fresh("bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: dipoleft ")
    assert "dipoleft: error: argument command: invalid choice: 'bogus'" in err

    model = tmp_path / "malformed.eft"
    model.write_text("this is not a model\n")
    code, out, err = fresh("compute", str(model))
    assert (code, out) == (1, "")
    assert err.startswith(f"{model}:line 1: syntax: ")


def _readme_commands() -> list[list[str]]:
    """The words of each line of README's "Command line" block, with
    ``\\`` continuations joined and ``#`` comments dropped."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line]


@pytest.mark.parametrize("line", _readme_commands(), ids=" ".join)
def test_readme_commands_exit_0(capsys, monkeypatch, line):
    assert line[0] == "dipoleft"
    monkeypatch.chdir(REPO_ROOT)  # the block names the bundled fixtures from the repo root
    assert run_or_exit(capsys, *line[1:])[0] == 0


def test_usage_error_in_process_raises_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute"])
    assert exc.value.code == 2
    assert "dipoleft compute: error: " in capsys.readouterr().err


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import dipoleft.cli\n"
        "print(len(built))\n"
    )
    assert fresh(code=probe) == (0, "0\n", "")


def test_a_second_in_process_call_builds_no_parser(capsys, monkeypatch, theta_model_path):
    assert run(capsys, "compute", str(theta_model_path))[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "compute", str(theta_model_path))[0] == 0
    assert run(capsys, "check-quantization", "--theta", "1pi", "--nf", "1")[0] == 0
    assert built == []


def test_parses_without_set_share_no_mutable_assignments():
    parser = cli._build_parser()
    first = parser.parse_args(["compute", "model.eft"])
    given = parser.parse_args(["compute", "model.eft", "--set", "CF=1", "--set", "e=2"])
    second = parser.parse_args(["compute", "model.eft"])
    assert given.assignments == ["CF=1", "e=2"]
    # None, not one default list that every parse without --set would hold
    assert first.assignments is None and second.assignments is None


README_SET = ("--set", "LambdaF=1/2*pi^-1", "--set", "CF=-1/8*e^2*pi^-1")


@pytest.mark.parametrize(
    "fixture, first, second",
    [
        ("bf_theory.eft", ("reduce-bf", "--form", "potential", *README_SET), ("reduce-bf",)),
        ("theta_term.eft", ("compute", "--keep-divergences"), ("compute",)),
        ("bf_theory.eft", ("compute", "--format", "structured"), ("compute",)),
    ],
    ids=["set-then-none", "keep-divergences-then-plain", "structured-then-text"],
)
def test_in_process_calls_in_a_row_print_what_fresh_processes_print(capsys, fixture, first, second):
    path = str(REPO_ROOT / fixture)
    first, second = (argv[:1] + (path,) + argv[1:] for argv in (first, second))
    expected = {argv: fresh(*argv) for argv in (first, second)}
    assert expected[first] != expected[second]
    for argv in (first, second, first, second):
        assert run(capsys, *argv) == expected[argv]


def test_usage_errors_and_help_leave_the_shared_parser_unchanged(
    capsys, monkeypatch, theta_model_path
):
    monkeypatch.setenv("COLUMNS", "80")
    usage, help_ = ("compute",), ("check-quantization", "--help")
    plain = ("compute", str(theta_model_path))
    expected = {argv: fresh(*argv) for argv in (usage, help_, plain)}
    assert expected[usage][0] == 2
    assert expected[usage][2].startswith("usage: dipoleft compute ")
    assert expected[help_][0] == 0
    assert expected[help_][1].startswith("usage: dipoleft check-quantization ")
    for argv in (usage, plain, help_, plain, usage, help_, usage, plain):
        assert run_or_exit(capsys, *argv) == expected[argv]


EPS_FF = "eps[mu nu rho sigma] F[mu nu] F[rho sigma]\n"
# The theta fixture's line each model-file spelling replaces.
_FIXTURE_LINE = {"coeff": "coeff e*alpha/2", "scale": "scale 1/32/pi^2", "dim": "dim 4"}


@pytest.mark.parametrize(
    "where,spelling,code,expected",
    [
        # one grammar: a rational is -?N[/N] in ASCII digits, everywhere
        ("scale", "1.5", 1, "bad-scale"),
        ("scale", "1e-3", 1, "bad-scale"),
        ("scale", "1_0", 1, "bad-scale"),
        ("scale", "+3", 1, "bad-scale"),
        ("scale", ".5/pi", 1, "bad-scale"),
        ("scale", "3/pi^x", 1, "bad-scale"),
        ("coeff", "1.5*e*alpha", 1, "bad-monomial"),
        ("coeff", "٣*e*alpha/2", 1, "bad-monomial"),
        ("dim", "٤", 1, "syntax"),
        ("--set", "e=1.5", 1, "error:"),
        ("--set", "e=+2", 1, "error:"),
        ("--theta", "+1pi", 1, "error:"),
        ("--theta", "١pi", 1, "error:"),
        # spellings the grammar accepts keep their result
        ("scale", "1/32/pi^2", 0, "(1/32) * e^2 * thetaF * pi^-2 * " + EPS_FF),
        ("scale", "1/pi", 0, "(1) * e^2 * thetaF * pi^-1 * " + EPS_FF),
        ("scale", "-0/3/pi", 1, "bad-scale"),
        ("--set", "thetaF=-1/8*e^2*pi^-1", 0, "(-1/256) * e^4 * pi^-3 * " + EPS_FF),
        ("--theta", "-2pi", 0, "theta = -2 pi, Nf = 3\n"),
    ],
)
def test_names_and_numbers_follow_one_grammar(
    capsys, tmp_path, theta_model_path, where, spelling, code, expected
):
    if where == "--theta":
        argv = ["check-quantization", f"--theta={spelling}", "--nf", "3"]
    elif where == "--set":
        argv = ["compute", str(theta_model_path), "--set", spelling]
    else:
        model = tmp_path / "spelled.eft"
        text = theta_model_path.read_text()
        model.write_text(text.replace(_FIXTURE_LINE[where], f"{where} {spelling}"))
        argv = ["compute", str(model)]
    got_code, out, err = run(capsys, *argv)
    assert got_code == code
    if code == 0:
        assert out.startswith(expected) and err == ""
        return
    assert out == ""
    assert err.startswith("error: ") if expected == "error:" else f": {expected}: " in err
    for internal in ("Traceback", "invalid literal", "base 10"):
        assert internal not in err


def test_set_rejects_mass_zero(tmp_path, capsys):
    # mass 0 is not a name, so --set may not give it a value
    model = tmp_path / "massless.eft"
    model.write_text(
        THETA_HEADER
        + "flavor psi mass m chirality + coeff e*alpha/2 combo F\n"
        + "flavor chi mass 0 chirality + coeff e*alpha/2 combo F\n"
        + "absorb alpha^2 as thetaF scale 1/32/pi^2\n"
    )
    code, out, err = run(capsys, "compute", str(model), "--set", "0=5")
    assert (code, out) == (1, "")
    assert err == "error: --set '0' names no declared constant, finite name or mass\n"


def with_a_closed_pipe(closed: str, argv, unbuffered: bool) -> subprocess.CompletedProcess:
    """``python -m dipoleft.cli`` with ``closed`` ("stdout" or "stderr") on a
    pipe whose reader has exited before the command writes, as `head` may,
    and the other stream captured."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
    try:
        return run_module(argv, unbuffered, **streams)
    finally:
        os.close(write_end)


def run_module(argv, unbuffered: bool, **streams) -> subprocess.CompletedProcess:
    """``python -m dipoleft.cli`` on the source tree from the repo root, its
    stdout and stderr buffered or not."""
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "dipoleft.cli", *argv], text=True, env=env, cwd=REPO_ROOT, **streams
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "theta_term.eft"),
        ("reduce-bf", "theta_term.eft"),  # the note, too, is not printed
        ("selftest", "--count", "5"),
        ("--version",),
        ("compute", "--help"),
    ],
    ids=["compute", "note", "selftest", "version", "help"],
)
def test_closed_stdout_exits_1_without_an_error_line(argv, unbuffered):
    proc = with_a_closed_pipe("stdout", argv, unbuffered)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reduce_bf_note_follows_its_action_on_a_shared_stream(unbuffered):
    argv = ("reduce-bf", "theta_term.eft")
    proc = run_module(argv, unbuffered, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert proc.returncode == 0
    assert proc.stdout == (
        "(1/32) * e^2 * thetaF * pi^-2 * " + EPS_FF
        + "note: no fundamental 2-form slot; action returned unchanged\n"
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, out",
    [
        # reduce-bf's note follows the action it prints
        (("reduce-bf", "theta_term.eft"), "(1/32) * e^2 * thetaF * pi^-2 * " + EPS_FF),
        (("compute", "no_such_model.eft"), ""),  # the error line is lost
        (("bogus",), ""),  # and so are argparse's usage lines
    ],
    ids=["note", "error", "usage"],
)
def test_closed_stderr_exits_1_after_what_stdout_holds(argv, out, unbuffered):
    proc = with_a_closed_pipe("stderr", argv, unbuffered)
    assert (proc.returncode, proc.stdout) == (1, out)
