"""Every function in ``src/dipoleft`` is entered by a command, or listed here.

A fresh interpreter runs every command in-process under ``sys.settrace``,
which records each function entered.  It must be a fresh one: the
``_kernel``, ``_pairing_table``, ``_g5_table``, ``_build_parser`` and
``_legendre_rule`` caches would hide calls in a warm process.  Two lists name what the
commands leave out, each entry with its one reader:

- ``UNENTERED``: functions that no command enters;
- ``SELFTEST_ONLY``: functions in the engine modules (every module but
  ``selftest`` and ``oracle``, which hold the checks) that only the
  ``selftest`` run enters.

A function that is missing from its list fails the test, and so does a
listed function that a command now reaches: it is wired in, moved or
deleted, or it is listed with the reader that keeps it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

# Every command but selftest, in every output form and format, then
# argparse's own output: the version, a help text and a usage error.  The
# last two are a malformed model and a model whose divergence no line absorbs.
OUTPUTS = [("--form", form, "--format", fmt)
           for form in ("fs", "potential") for fmt in ("text", "latex", "structured")]
COMMANDS = [
    *[(command, fixture, *flags)
      for command in ("compute", "reduce-bf")
      for fixture in ("theta_term.eft", "bf_theory.eft")
      for flags in OUTPUTS],
    ("compute", "theta_term.eft", "--keep-divergences"),
    ("compute", "bf_theory.eft", "--keep-divergences", "--format", "structured"),
    ("compute", "theta_term.eft", "--set", "e=2", "--set", "thetaF=1/2*pi^-1"),
    ("reduce-bf", "bf_theory.eft", "--form", "potential",
     "--set", "LambdaF=1/2*pi^-1", "--set", "CF=-1/8*e^2*pi^-1"),
    ("reduce-bf", "bf_theory.eft", "--set", "LambdaF=0"),
    ("check-quantization", "--theta", "1/3pi", "--nf", "3"),
    ("--version",),
    ("compute", "--help"),
    ("bogus",),
    ("compute", "{malformed}"),
    ("compute", "{unabsorbed}"),
]
SELFTEST = ("selftest", "--count", "5")

MALFORMED = "dim 4\nslot F exact A\nflavor psi mass m chirality + coeff e combo F\n"
UNABSORBED = (
    "dim 4\nconstant e real positive\nslot F exact A\n"
    "flavor psi mass m chirality + coeff e combo F\n"
)

# Runs each stage's commands through ``main`` under a tracer that records
# every code object entered, then prints as JSON the qualified names of all
# functions in the package's source, the exit codes (a ``SystemExit``'s
# code for argparse's own output), and per stage the names entered so far.
PROBE = r"""
import contextlib, io, json, sys
from pathlib import Path

package = Path(sys.argv[1]) / "dipoleft"
codes = set()  # every code object entered


def names(code, module):
    # the functions and classes compiled in code, but no <lambda> or <genexpr>
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            if not const.co_name.startswith("<"):
                yield f"{module}.{const.co_qualname}"
            yield from names(const, module)


def tracer(frame, event, arg):
    codes.add(frame.f_code)


def entered():
    return sorted(
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in codes.copy()  # the tracer adds this call's own frames
        if Path(code.co_filename).parent == package and not code.co_name.startswith("<")
    )


everything = []
for path in sorted(package.glob("*.py")):
    everything += names(compile(path.read_text(), str(path), "exec"), path.stem)
runs = json.loads(sys.argv[2])
sys.settrace(tracer)
from dipoleft.cli import main

exits, seen = [], {}
for stage, argvs in runs.items():
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                exits.append(main(argv))
            except SystemExit as exc:
                exits.append(exc.code)
    seen[stage] = entered()
sys.settrace(None)
print(json.dumps({"all": everything, "exits": exits, **seen}))
"""


UNENTERED = {
    # the schema-1 reader stays library API; the benchmark's model-sweep
    # round trip wraps it by name
    "render.structured_to_action": "library API (dipoleft.structured_to_action)",
    "render._coefficient_from_structured": "render.structured_to_action",
    "render._declare": "render.structured_to_action",
    "render._slot_from_structured": "render.structured_to_action",
    "render._structured_int": "render.structured_to_action",
    # the value-type protocol; the commands neither hash, print nor copy a value
    "algebra._Value.__delattr__": "tests/test_algebra.py (values are immutable)",
    "algebra._Value.__hash__": "tests/test_algebra.py (hash of the field tuple)",
    "algebra._Value.__reduce__": "tests/test_algebra.py (pickle and copy)",
    "algebra._Value.__repr__": "tests/test_algebra.py (repr of the fields)",
    "algebra._Value.__setattr__": "tests/test_algebra.py (values are immutable)",
    "algebra.Expression.__neg__": "tests/test_dirac.py (the product-rule trace reference)",
    "algebra.Expression.is_zero": "tests (an expression's zero test)",
    "algebra.Expression.scalar": "benchmark/test_benchmark.py",
    # the tests' term-by-term reference for evaluate_expression_numeric
    "oracle.evaluate_term_numeric": "tests/test_oracle.py",
    "oracle._summed": "oracle.evaluate_term_numeric",
    # names a failing word; a passing suite has none
    "selftest._word_name": "tests/test_cli.py (a failing equivalence suite)",
}

SELFTEST_ONLY = {
    "cli._run_selftest": "the selftest command",
    # integrate's rank-2 branch, reached by the symbolic-d kernel
    # (polarization at_dimension=None) that selftest compares at d = 4
    "loops.evaluate_cutoff": "integrate",
    "loops.cutoff_tensor_bracket": "loops.evaluate_cutoff",
    "loops.cutoff_log_atom": "loops.cutoff_tensor_bracket",
    "algebra.Coefficient.with_log": "loops.cutoff_tensor_bracket",
    # the dimreg value of I0 and the cutoff leading log
    "algebra.Coefficient.monomial": "selftest.laurent_expand",
    "algebra.Coefficient.with_eps": "selftest.laurent_expand",
}


def _probe(tmp_path):
    malformed = tmp_path / "malformed.eft"
    malformed.write_text(MALFORMED)
    unabsorbed = tmp_path / "unabsorbed.eft"
    unabsorbed.write_text(UNABSORBED)
    files = {"malformed": malformed, "unabsorbed": unabsorbed}
    runs = {
        "commands": [[arg.format(**files) for arg in argv] for argv in COMMANDS],
        "selftest": [list(SELFTEST)],
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), json.dumps(runs)],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _against(listed: dict, found: set) -> dict:
    """What ``found`` adds to the list, and the list's stale entries."""
    return {"unlisted": sorted(found - listed.keys()), "stale": sorted(listed.keys() - found)}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_every_function_is_entered_by_a_command_or_listed(tmp_path):
    report = _probe(tmp_path)
    everything = set(report["all"])
    assert len(everything) == len(report["all"]), "two functions share a qualified name"
    # every command succeeds but the usage error, the malformed and the
    # unabsorbed model, then selftest passes
    assert report["exits"] == [0] * (len(COMMANDS) - 3) + [2, 1, 2] + [0]
    commands, after_selftest = set(report["commands"]), set(report["selftest"])
    assert _against(UNENTERED, everything - after_selftest) == {"unlisted": [], "stale": []}
    selftest_only = {
        name for name in after_selftest - commands
        if name.split(".", 1)[0] not in ("selftest", "oracle")
    }
    assert _against(SELFTEST_ONLY, selftest_only) == {"unlisted": [], "stale": []}
