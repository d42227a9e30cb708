"""Tests of the benchmark itself: seeded inputs and the independent checks.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dipoleft  # noqa: E402
import inputs  # noqa: E402
from check import CheckError, check_cli, check_model, check_word  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import ModelSweep, TraceOracle  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.ROUNDS))
def test_same_seed_same_inputs(workload):
    first = list(islice(inputs.rounds(workload, 7), 2))
    again = list(islice(inputs.rounds(workload, 7), 2))
    other = list(islice(inputs.rounds(workload, 8), 2))
    assert first == again
    assert first != other


def test_rounds_keep_their_shapes_across_seeds():
    def shapes(seed):
        (words,) = islice(inputs.rounds("trace-oracle", seed), 1)
        return sorted((w.length, w.g5_count) for w in words)

    assert shapes(1) == shapes(2)
    (models,) = islice(inputs.rounds("model-sweep", 3), 1)
    assert len(models) == sum(inputs.GENERAL_COPIES) + sum(inputs.BF_COPIES)


def small_models():
    rng = random.Random(5)
    yield inputs.WARMUP_MODEL
    yield inputs.general_model(rng, 2, (2, 1), 0)
    yield inputs.bf_model(rng, 2, 2, 1)


@pytest.mark.parametrize("model", list(small_models()), ids=["theta", "general", "bf"])
def test_model_check_accepts_engine_and_rejects_a_flipped_sign(model):
    sweep = ModelSweep()
    result = sweep.op(model)
    check_model(model, result)
    for stage in ("assembled", "renormalized", "final"):
        wrong = dict(result)
        action = result[stage]
        first = dataclasses.replace(action.terms[0], coeff=-action.terms[0].coeff)
        wrong[stage] = dataclasses.replace(action, terms=(first,) + action.terms[1:])
        with pytest.raises(CheckError):
            check_model(model, wrong)


@pytest.mark.parametrize("model", list(small_models())[:2], ids=["theta", "general"])
def test_model_check_rejects_the_engine_run_with_a_flipped_chirality(model):
    flavor = model.flavors[0]
    chirality = "+" if flavor.chirality > 0 else "-"
    flipped = "-" if flavor.chirality > 0 else "+"
    text = model.text.replace(
        f"flavor {flavor.name} mass {flavor.mass} chirality {chirality}",
        f"flavor {flavor.name} mass {flavor.mass} chirality {flipped}",
    )
    assert text != model.text
    wrong = ModelSweep().op(dataclasses.replace(model, text=text))
    with pytest.raises(CheckError):
        check_model(model, wrong)


def test_model_check_rejects_a_wrong_text_rendering():
    sweep = ModelSweep()
    result = sweep.op(inputs.WARMUP_MODEL)
    result["text"] = result["text"].replace("(1/32)", "(1/16)")
    with pytest.raises(CheckError):
        check_model(inputs.WARMUP_MODEL, result)


@pytest.mark.parametrize("length,g5", [(4, 1), (6, 0), (6, 1), (8, 1), (8, 2)])
def test_trace_check_accepts_engine_and_rejects_any_dropped_term(length, g5):
    oracle = TraceOracle()
    word = inputs.gamma_word(random.Random(length * 3 + g5), length, g5)
    result = oracle.op(word)
    check_word(word, result)
    terms = result["expr"].terms
    for k in range(0, len(terms), max(1, len(terms) // 12)):
        result["expr"] = dipoleft.Expression(terms[:k] + terms[k + 1:])
        with pytest.raises(CheckError):
            check_word(word, result)


def test_trace_check_rejects_a_nonzero_odd_trace():
    oracle = TraceOracle()
    word = inputs.gamma_word(random.Random(2), 5, 1)
    result = oracle.op(word)
    check_word(word, result)
    result["expr"] = dipoleft.Expression.scalar(dipoleft.Coefficient.rational(4))
    with pytest.raises(CheckError):
        check_word(word, result)


def test_trace_check_rejects_a_wrong_oracle_value():
    oracle = TraceOracle()
    word = inputs.gamma_word(random.Random(1), 4, 0)
    result = oracle.op(word)
    result["oracle_matrix"] += 1
    with pytest.raises(CheckError):
        check_word(word, result)


def test_cli_check_rejects_wrong_outputs():
    (calls,) = islice(inputs.rounds("cli-cold", 3), 1)
    by_kind = {c.kind: c for c in calls}
    theta = "(1/32) * e^2 * thetaF * pi^-2 * eps[mu nu rho sigma] F[mu nu] F[rho sigma]"
    check_cli(by_kind["compute"], 0, theta + "\n", "")
    with pytest.raises(CheckError):
        check_cli(by_kind["compute"], 0, theta.replace("(1/32)", "(-1/32)"), "")
    with pytest.raises(CheckError):
        check_cli(by_kind["compute"], 1, theta, "error")
    q = by_kind["check-quantization"]
    scaled = q.theta * q.nf * q.nf
    wrong = "TRI-trivial" if scaled.denominator != 1 or scaled.numerator % 2 else "not-TRI"
    out = (
        f"theta = {q.theta} pi, Nf = {q.nf}\n"
        f"topological charge quantized in units of Nf^2 = {q.nf * q.nf}\n"
        f"classification: {wrong}\n"
    )
    with pytest.raises(CheckError):
        check_cli(q, 0, out, "")
    cf = by_kind["reduce-bf"].cf
    doubled = dataclasses.replace(cf, value=cf.value * 2)
    line = f"({doubled.value})" + "".join(
        f" * {n}^{k}" for n, k in sorted(doubled.powers) if n != "pi"
    ) + "".join(f" * pi^{k}" for n, k in doubled.powers if n == "pi")
    line += " * eps[mu nu rho sigma] dA[mu nu] dA[rho sigma]"
    with pytest.raises(CheckError):
        check_cli(by_kind["reduce-bf"], 0, line, "")


def test_classification_follows_parity():
    from check import classify

    assert classify(Fraction(1, 3), 3) == "TRI-nontrivial"
    assert classify(Fraction(2, 9), 3) == "TRI-trivial"
    assert classify(Fraction(1, 2), 3) == "not-TRI"


def test_tracer_wraps_imported_names_and_restores_them():
    action = sys.modules["dipoleft.action"]
    algebra = sys.modules["dipoleft.algebra"]
    original = algebra.canonicalize
    tracer = Tracer()
    tracer.install()
    try:
        assert action.canonicalize is algebra.canonicalize is not original
        ModelSweep().op(inputs.WARMUP_MODEL)
    finally:
        tracer.uninstall()
    assert action.canonicalize is algebra.canonicalize is original
    names = {tracer.names[n] for n in tracer.name_of}
    assert {"action.polarization", "algebra.canonicalize", "algebra.product"} <= names
    own = tracer.self_times()
    assert all(t >= -1e-9 for t in own)
