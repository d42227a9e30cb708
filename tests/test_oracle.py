"""Gamma representation invariants, equivalence suite, radial integral, loop
normalization against explicit matrices, and the import budget (numpy only
for numeric checks)."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dipoleft import oracle
from dipoleft.action import assemble
from dipoleft.algebra import Coefficient, G5, gamma
from dipoleft.dirac import trace_word
from dipoleft.modelfile import parse_model
from dipoleft.oracle import (
    DEFAULT_REP,
    GammaRep,
    dipole_trace_identity_checks,
    euclidean_scalar_integral,
    log_slope,
    loop_normalization_deviation,
    numeric_trace,
    one_flavor_model,
    quadrature_grid_max_relative_error,
    randomized_equivalence_suite,
)


def test_clifford_invariants_hold_to_machine_precision():
    assert DEFAULT_REP.max_clifford_deviation() < 1e-12


def test_convention_fixing_trace():
    assert abs(DEFAULT_REP.convention_trace() - (-4j)) < 1e-12


def test_numeric_trace_base_cases():
    assert numeric_trace((gamma("a"), gamma("b")), {"a": 0, "b": 0}) == pytest.approx(4)
    assert numeric_trace((gamma("a"), gamma("b")), {"a": 0, "b": 1}) == pytest.approx(0)
    word = (G5, gamma("a"), gamma("b"), gamma("c"), gamma("d"))
    assignment = {"a": 0, "b": 1, "c": 2, "d": 3}
    assert numeric_trace(word, assignment) == pytest.approx(-4j)


def test_equivalence_suite_passes_deterministically():
    first = randomized_equivalence_suite(seed=1, count=80)
    second = randomized_equivalence_suite(seed=1, count=80)
    assert first == second
    assert first.passed
    assert first.max_deviation < 1e-10


def test_equivalence_suite_empty_count_trivially_passes():
    report = randomized_equivalence_suite(seed=3, count=0)
    assert report.passed and report.max_deviation == 0.0


def test_equivalence_suite_flags_corrupted_rule():
    def corrupted(word, mode):
        return trace_word(word, mode).scaled(Coefficient.rational(2))

    report = randomized_equivalence_suite(seed=1, count=60, trace_fn=corrupted)
    assert not report.passed
    assert any(name.startswith("tr(") for name in report.failures)
    assert any("FAIL" in line for line in report.lines())


def test_dipole_identities_over_all_tuples():
    eps_dev, contracted_dev = dipole_trace_identity_checks()
    assert eps_dev < 1e-10
    assert contracted_dev < 1e-10


def test_euclidean_scalar_integral_matches_closed_form():
    from dipoleft.loops import cutoff_scalar_closed_form

    value = euclidean_scalar_integral(1.0, 1e3)
    assert value == pytest.approx(cutoff_scalar_closed_form(1.0, 1e3), rel=1e-8)


def test_euclidean_scalar_integral_domain():
    with pytest.raises(ValueError):
        euclidean_scalar_integral(1.0, 0.5)
    with pytest.raises(ValueError):
        euclidean_scalar_integral(-1.0, 2.0)


def test_quadrature_grid_twenty_points():
    assert quadrature_grid_max_relative_error() < 1e-8


def test_log_slope_matches_pole_normalization():
    slope = log_slope()
    target = 1.0 / (8 * math.pi**2)
    assert abs(slope - target) / target < 0.01


def test_import_loads_oracle_but_defers_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, dipoleft; print('dipoleft.oracle' in sys.modules, 'scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == ["True", "False"]


# ---------------------------------------------------------------------------
# Loop normalization against explicit matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chirality", [+1, -1])
def test_loop_normalization_matches_matrix_integrand(chirality):
    rank0_dev, rank2 = loop_normalization_deviation(one_flavor_model(chirality), GammaRep())
    assert rank0_dev <= 1e-12
    assert rank2 < 1e-12


@pytest.mark.parametrize("fixture", ["theta_model_path", "bf_model_path"])
def test_loop_normalization_holds_on_fixtures(request, fixture):
    model = parse_model(request.getfixturevalue(fixture).read_text())
    rank0_dev, rank2 = loop_normalization_deviation(model)
    assert rank0_dev <= 1e-10
    assert rank2 <= 1e-10


def test_loop_normalization_detects_a_flipped_combo_sign(monkeypatch, bf_model_path):
    model = parse_model(bf_model_path.read_text())
    first = model.flavors[0]
    (s1, a), (s2, b) = first.combo
    flipped = replace(model, flavors=(replace(first, combo=((s1, a), (-s2, b))),) + model.flavors[1:])
    monkeypatch.setattr(oracle, "assemble", lambda _: assemble(flipped))
    rank0_dev, _ = loop_normalization_deviation(model)
    assert rank0_dev > 1e-3


@pytest.mark.parametrize("chirality", [+1, -1])
def test_massless_flavor_assembles_to_zero(chirality):
    assert assemble(one_flavor_model(chirality, "0")).terms == ()


# ---------------------------------------------------------------------------
# Import budget: numpy loads only for numeric checks
# ---------------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]

_NUMPY_AFTER_MAIN = (
    "import sys\n"
    "from dipoleft import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print('numpy' in sys.modules, code)\n"
)


def _probe(source: str, *args: str) -> list[str]:
    """Last stdout line of a fresh interpreter running ``source`` on the source tree."""
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, check=True,
    )
    return proc.stdout.splitlines()[-1].split()


def test_import_does_not_load_numpy():
    assert _probe("import sys, dipoleft; print('numpy' in sys.modules)") == ["False"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "theta_term.eft"],
        ["reduce-bf", "bf_theory.eft", "--form", "potential",
         "--set", "LambdaF=1/2*pi^-1", "--set", "CF=-1/8*e^2*pi^-1"],
        ["check-quantization", "--theta=1/3pi", "--nf", "3"],
    ],
    ids=["compute", "reduce-bf", "check-quantization"],
)
def test_symbolic_commands_do_not_load_numpy(argv):
    assert _probe(_NUMPY_AFTER_MAIN, *argv) == ["False", "0"]


def test_selftest_loads_numpy():
    assert _probe(_NUMPY_AFTER_MAIN, "selftest", "--count", "5") == ["True", "0"]


def test_oracle_names_still_importable():
    from dipoleft import GammaRep as exported
    from dipoleft import oracle
    from dipoleft.oracle import DEFAULT_REP as first

    assert exported is GammaRep
    assert isinstance(first, GammaRep)
    assert oracle.DEFAULT_REP is first
    with pytest.raises(AttributeError):
        oracle.NOT_A_NAME
