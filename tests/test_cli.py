"""Command-line behavior and exit codes."""

import json
import shutil
import subprocess

import pytest

from dipoleft.cli import main
from dipoleft.render import structured_to_action


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


def test_reduce_bf_noop_notice(capsys, theta_model_path):
    code, out, err = run(capsys, "reduce-bf", str(theta_model_path))
    assert code == 0
    assert "unchanged" in err
    assert out.strip().startswith("(1/32)")


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


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--count", "40")
    assert code == 0
    assert "selftest: pass" in out


@pytest.mark.skipif(shutil.which("dipoleft") is None, reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["dipoleft", "check-quantization", "--theta", "1/3pi", "--nf", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "TRI-nontrivial" in proc.stdout
