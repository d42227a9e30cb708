"""Golden CLI output: the bytes each command prints on the bundled fixtures.

The expected files under ``tests/golden/`` pin the text, LaTeX and
structured output of ``compute`` on both fixtures, with and without
``--keep-divergences``, and the README's ``reduce-bf`` command, so a
refactor of the pipeline must reproduce them byte for byte.
"""

from pathlib import Path

import pytest

from dipoleft.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def _compute_cases():
    for fixture in ("theta_term", "bf_theory"):
        for form in ("fs", "potential"):
            for fmt in ("text", "latex", "structured"):
                for keep in (False, True):
                    name = f"compute-{fixture}-{form}-{fmt}" + ("-keep" if keep else "")
                    argv = ["compute", f"{fixture}.eft", "--form", form, "--format", fmt]
                    if keep:
                        argv.append("--keep-divergences")
                    yield pytest.param(argv, name, id=name)


CASES = list(_compute_cases()) + [
    pytest.param(
        [
            "reduce-bf", "bf_theory.eft", "--form", "potential",
            "--set", "LambdaF=1/2*pi^-1", "--set", "CF=-1/8*e^2*pi^-1",
        ],
        "reduce-bf-readme",
        id="reduce-bf-readme",
    )
]


@pytest.mark.parametrize("argv, name", CASES)
def test_cli_output_matches_golden(capsys, argv, name):
    argv = [str(REPO_ROOT / a) if a.endswith(".eft") else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
