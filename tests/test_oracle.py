"""Gamma representation invariants, the as-written evaluator, equivalence
suite, radial integrals, loop normalization against explicit matrices, and
the import budget (numpy never at run time, only as the tests' dense
reference; SymPy never; ``dipoleft.selftest`` only for ``selftest``)."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dipoleft import loops, oracle, selftest
from dipoleft.action import FlavorSpec, ModelSpec, assemble
from dipoleft.algebra import (
    LOG_LAMBDA,
    Coefficient,
    Epsilon,
    Expression,
    G5,
    Metric,
    Momentum,
    Term,
    contract,
    gamma,
    substitute_dimension,
)
from dipoleft.dirac import FOUR_DIM, SYMBOLIC_DIM, trace_word
from dipoleft.modelfile import parse_model
from dipoleft.oracle import ETA, evaluate_expression_numeric, evaluate_term_numeric, numeric_trace
from dipoleft.selftest import (
    convention_trace,
    cutoff_scalar_closed_form,
    cutoff_tensor_grid_max_relative_error,
    dipole_trace_identity_checks,
    euclidean_scalar_integral,
    euclidean_tensor_integral,
    log_slope,
    loop_normalization_deviation,
    max_clifford_deviation,
    one_flavor_model,
    quadrature_grid_max_relative_error,
    randomized_equivalence_suite,
)


def test_clifford_invariants_hold_to_machine_precision():
    assert max_clifford_deviation() < 1e-12


def test_convention_fixing_trace():
    assert abs(convention_trace() - (-4j)) < 1e-12


def test_numeric_trace_base_cases():
    assert numeric_trace((gamma("a"), gamma("b")), {"a": 0, "b": 0}) == pytest.approx(4)
    assert numeric_trace((gamma("a"), gamma("b")), {"a": 0, "b": 1}) == pytest.approx(0)
    word = (G5, gamma("a"), gamma("b"), gamma("c"), gamma("d"))
    assignment = {"a": 0, "b": 1, "c": 2, "d": 3}
    assert numeric_trace(word, assignment) == pytest.approx(-4j)


@pytest.mark.parametrize("evaluate", ["expression", "matrix"])
def test_unassigned_free_index_is_a_value_error_naming_it(evaluate):
    # numeric_trace used to raise a bare KeyError('b')
    word = (gamma("a"), gamma("b"))
    with pytest.raises(ValueError, match="free index 'b' has no assigned value"):
        if evaluate == "expression":
            evaluate_expression_numeric(trace_word(word), {"a": 0})
        else:
            numeric_trace(word, {"a": 0})


def _dense_trace(word, assignment: dict[str, int]) -> complex:
    """Trace of the dense product of numpy arrays built here from the oracle's
    monomial tables, one @ per letter."""
    import numpy as np

    *mats, g5 = [np.zeros((4, 4), dtype=complex) for _ in range(5)]
    for m, table in zip((*mats, g5), (*oracle._GAMMA_TABLES, oracle._G5_TABLE)):
        for r, (c, p) in enumerate(table):
            m[r, c] = 1j**p
    product = np.eye(4, dtype=complex)
    for letter in word:
        product = product @ (g5 if letter == G5 else mats[assignment[letter[1]]])
    return complex(np.trace(product))


@st.composite
def assigned_words(draw):
    """Words of 0-10 gammas on labels a-e, repeats allowed, with 0-2 g5, and a value for every label."""
    labels = draw(st.lists(st.sampled_from("abcde"), max_size=10))
    word = [gamma(label) for label in labels]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        word.insert(draw(st.integers(min_value=0, max_value=len(word))), G5)
    return tuple(word), {x: draw(st.integers(min_value=0, max_value=3)) for x in sorted(set(labels))}


@settings(max_examples=300, deadline=None)
@given(case=assigned_words(), bad=st.sampled_from([-1, 4, 1.0, True]))
@example(case=((G5, gamma("a"), gamma("b"), gamma("c"), gamma("d")),
               {"a": 0, "b": 1, "c": 2, "d": 3}), bad=4)
@example(case=((G5, G5), {}), bad=-1)
def test_numeric_trace_equals_the_dense_matrix_product(case, bad):
    word, assignment = case
    value = numeric_trace(word, assignment)
    assert type(value) is complex and value == _dense_trace(word, assignment)
    if assignment:
        label = min(assignment)
        text = f"index {label!r} has value {bad!r}, not an int in 0..3"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            numeric_trace(word, {**assignment, label: bad})
        text = f"free index {label!r} has no assigned value"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            numeric_trace(word, {x: v for x, v in assignment.items() if x != label})


# ---------------------------------------------------------------------------
# The evaluator reads a trace as written
# ---------------------------------------------------------------------------


def _scheme(word) -> str:
    return FOUR_DIM if sum(1 for letter in word if letter == G5) % 2 else SYMBOLIC_DIM


def _matrix_value(word, assignment: dict[str, int]) -> complex:
    """numeric_trace summed over the values of each label used twice, one index lowered."""
    labels = [letter[1] for letter in word if letter != G5]
    dummies = sorted({x for x in labels if labels.count(x) == 2})
    total = 0j
    for values in itertools.product(range(4), repeat=len(dummies)):
        lowered = math.prod(ETA[v] for v in values)
        total += lowered * numeric_trace(word, {**assignment, **dict(zip(dummies, values))})
    return total


def _termwise(expr, assignment):
    total = 0j
    for term in expr.terms:
        total += evaluate_term_numeric(term, assignment)
    return total


@st.composite
def words_with_assignment(draw):
    """Words of 0-8 gammas, a-d usable twice, with 0-2 g5, and values for the labels used once."""
    length = draw(st.integers(min_value=0, max_value=8))
    labels = draw(st.permutations(["a", "a", "b", "b", "c", "c", "d", "d", "e", "f"]))[:length]
    word = [gamma(label) for label in labels]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        word.insert(draw(st.integers(min_value=0, max_value=len(word))), G5)
    free = sorted(x for x in set(labels) if labels.count(x) == 1)
    return tuple(word), {x: draw(st.integers(min_value=0, max_value=3)) for x in free}


def _word(text: str, g5: int = 0):
    return tuple(gamma(x) for x in text) + (G5,) * g5


@settings(max_examples=60, deadline=None)
@given(case=words_with_assignment())
@example(case=(_word("aabbcc"), {}))
@example(case=(_word("abab"), {}))
@example(case=(_word("abcabd", 1), {"d": 0}))
def test_value_is_unchanged_by_contraction_and_dimension_substitution(case):
    word, assignment = case
    expr = trace_word(word, _scheme(word))
    as_written = evaluate_expression_numeric(expr, assignment)
    contracted = evaluate_expression_numeric(contract(substitute_dimension(expr, 4)), assignment)
    assert abs(as_written - contracted) <= 1e-9 * max(1.0, abs(as_written))


@pytest.mark.parametrize(
    "evaluate", [evaluate_expression_numeric, _termwise], ids=["expression", "termwise"]
)
@settings(max_examples=60, deadline=None)
@given(case=words_with_assignment())
@example(case=(_word("aabbcc"), {}))
@example(case=(_word("abcabc", 2), {}))
@example(case=(_word("abcdab", 1), {"c": 2, "d": 3}))
def test_value_matches_matrix_trace_summed_over_dummies(evaluate, case):
    word, assignment = case
    value = evaluate(trace_word(word, _scheme(word)), assignment)
    want = _matrix_value(word, assignment)
    assert abs(value - want) <= 1e-9 * max(1.0, abs(want))


def test_eps_eps_dummy_is_summed_with_one_index_lowered():
    # eps^{012x} eps^{012}_x = eta_33 = -1
    expr = Expression.of(Term(Coefficient.one(), (Epsilon(("a", "b", "c", "x")), Epsilon(("d", "e", "f", "x")))))
    assignment = {"a": 0, "b": 1, "c": 2, "d": 0, "e": 1, "f": 2}
    assert evaluate_expression_numeric(expr, assignment) == -1


def test_dimension_made_by_contraction_is_four():
    word = _word("abcdeabcde")
    expr = trace_word(word)
    assert any(t.coeff.const_power("d") for t in contract(substitute_dimension(expr, 4)).terms)
    want = _matrix_value(word, {})
    assert want == pytest.approx(256)
    assert evaluate_expression_numeric(expr, {}) == pytest.approx(want)
    assert evaluate_expression_numeric(contract(expr), {}) == pytest.approx(want)


def test_dimension_powers_are_four():
    term = Term(Coefficient.monomial(3, 1, d=2), (Metric("a", "b"),))
    assert evaluate_expression_numeric(Expression.of(term), {"a": 1, "b": 1}) == -48


@pytest.mark.parametrize(
    "term, assignment",
    [
        (Term(Coefficient.one(), word=(gamma("a"),)), {"a": 0}),
        (Term(Coefficient.one().with_log(LOG_LAMBDA)), {}),
        (Term(Coefficient.one().with_eps(-1)), {}),
        (Term(Coefficient.monomial(1, 1, m=2)), {}),
        (Term(Coefficient.one(), (Momentum("p", "a"),)), {"a": 0}),
        (Term(Coefficient.one(), (Metric("a", "b"),)), {"a": 0}),
        (Term(Coefficient.one(), (Metric("a", "a"), Metric("a", "b"))), {"b": 0}),
    ],
    ids=["word", "log", "pole", "constant", "momentum", "unassigned", "thrice"],
)
def test_evaluator_rejects_what_is_not_a_number(term, assignment):
    with pytest.raises(ValueError):
        evaluate_expression_numeric(Expression.of(term), assignment)


@pytest.mark.parametrize("value", [-1, 4, 1.0, True], ids=["minus-one", "four", "float", "bool"])
@pytest.mark.parametrize("evaluate", ["expression", "matrix"])
def test_index_value_outside_0_to_3_names_its_label(evaluate, value):
    # -1 used to read as index 3, 4 ended in IndexError and 1.0 in TypeError
    word = (gamma("a"), gamma("b"))
    assignment = {"b": 0, "a": value}
    with pytest.raises(ValueError, match="index 'a' has value"):
        if evaluate == "expression":
            evaluate_expression_numeric(trace_word(word), assignment)
        else:
            numeric_trace(word, assignment)


# Shared objects the drawn expressions are built from: a factor or
# coefficient object may sit in several terms, as trace_word's leaves share
# them.  Labels a-e; "d" and "e" are often left unassigned.
_SHARED_FACTORS = (
    Metric("a", "b"),
    Metric("a", "c"),
    Metric("b", "c"),
    Metric("a", "a"),
    Metric("c", "d"),
    Metric("d", "e"),
    Epsilon(("a", "b", "c", "d")),
    Epsilon(("b", "a", "e", "c")),
    Epsilon(("a", "b", "c", "e")),
    Epsilon(("a", "c", "a", "a")),
)
_SHARED_COEFFS = (
    Coefficient.rational(4),
    Coefficient.imaginary(-4),
    Coefficient.monomial(3, 2, d=1),
    Coefficient(re=Fraction(-1, 3), im=Fraction(5, 7)),
)
_BAD_TERMS = (
    Term(_SHARED_COEFFS[0], word=(gamma("a"), gamma("b"))),
    Term(_SHARED_COEFFS[1], (Momentum("p", "a"),)),
    Term(_SHARED_COEFFS[2], (_SHARED_FACTORS[0], Momentum("p", "c"))),
    Term(Coefficient.one().with_log(LOG_LAMBDA), (_SHARED_FACTORS[0],)),
)


@st.composite
def shared_expressions(draw):
    """1-8 terms of 0-3 shared eta and eps factors, perhaps one term that is
    not a number at any position, and values for a subset of a-e."""
    terms = [
        Term(
            draw(st.sampled_from(_SHARED_COEFFS)),
            tuple(draw(st.lists(st.sampled_from(_SHARED_FACTORS), max_size=3))),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=8)))
    ]
    if draw(st.booleans()):
        bad = draw(st.sampled_from(_BAD_TERMS))
        terms.insert(draw(st.integers(min_value=0, max_value=len(terms))), bad)
    labels = draw(st.lists(st.sampled_from("abcde"), unique=True))
    assignment = {x: draw(st.integers(min_value=0, max_value=3)) for x in labels}
    return Expression(tuple(terms)), assignment


def _outcome(evaluate):
    try:
        return evaluate()
    except ValueError as exc:
        return f"ValueError: {exc}"


_AB, _AC = _SHARED_FACTORS[0], _SHARED_FACTORS[1]


@settings(max_examples=300, deadline=None)
@given(case=shared_expressions())
# one eta(a,b) object in three terms: a free, then a and b dummies, then a dummy
@example(case=(Expression.of(
    Term(_SHARED_COEFFS[0], (_AB,)),
    Term(_SHARED_COEFFS[0], (_AB, _AB)),
    Term(_SHARED_COEFFS[1], (_AB, _AC, _SHARED_FACTORS[2])),
), {"a": 1, "b": 1, "c": 2}))
# a pending word after a term with the same coefficient object
@example(case=(Expression.of(Term(_SHARED_COEFFS[0], (_AB,)), _BAD_TERMS[0]), {"a": 0, "b": 0}))
# a label three times in one eps, every label assigned
@example(case=(Expression.of(Term(_SHARED_COEFFS[1], (_SHARED_FACTORS[-1],))), {"a": 0, "c": 1}))
def test_expression_value_is_the_left_to_right_sum_of_term_values(case):
    expr, assignment = case
    want = _outcome(lambda: _termwise(expr, assignment))
    got = _outcome(lambda: evaluate_expression_numeric(expr, assignment))
    assert got == want and type(got) is type(want)


def test_oracle_uses_no_engine_algebra():
    for name in ("contract", "substitute_dimension", "canonicalize"):
        assert not hasattr(oracle, name)


def test_equivalence_suite_passes_deterministically():
    first = randomized_equivalence_suite(seed=1, count=80)
    second = randomized_equivalence_suite(seed=1, count=80)
    assert first == second
    assert first.passed
    assert first.max_deviation < 1e-10


def test_equivalence_suite_empty_count_trivially_passes():
    report = randomized_equivalence_suite(seed=3, count=0)
    assert report.passed and report.max_deviation == 0.0


def test_equivalence_suite_flags_corrupted_rule(monkeypatch):
    def corrupted(word, mode):
        return trace_word(word, mode).scaled(Coefficient.rational(2))

    monkeypatch.setattr(selftest, "trace_word", corrupted)
    report = randomized_equivalence_suite(seed=1, count=60)
    assert not report.passed
    assert any(name.startswith("tr(") for name in report.failures)
    assert any("FAIL" in line for line in report.lines())


def test_equivalence_suite_is_exact(monkeypatch):
    # both values are small integers held in floats, so one part in 10^12 is a fault
    for seed in (42, 1, 7, 101):
        assert randomized_equivalence_suite(seed=seed, count=500).max_deviation == 0.0
    scale = Coefficient.rational(Fraction(10**12 + 1, 10**12))
    monkeypatch.setattr(selftest, "trace_word", lambda word, mode: trace_word(word, mode).scaled(scale))
    report = randomized_equivalence_suite(seed=42, count=50)
    assert not report.passed
    assert 0 < report.max_deviation < 1e-11


def test_dipole_identities_over_all_tuples():
    eps_dev, contracted_dev = dipole_trace_identity_checks()
    assert eps_dev < 1e-10
    assert contracted_dev < 1e-10


def test_euclidean_scalar_integral_matches_closed_form():
    value = euclidean_scalar_integral(1.0, 1e3)
    assert value == pytest.approx(cutoff_scalar_closed_form(1.0, 1e3), rel=1e-8)


def test_euclidean_scalar_integral_domain():
    with pytest.raises(ValueError):
        euclidean_scalar_integral(1.0, 0.5)
    with pytest.raises(ValueError):
        euclidean_scalar_integral(-1.0, 2.0)


@pytest.mark.parametrize("ratio", [10.0, 1e5])
@pytest.mark.parametrize("mass", [0.5, 5.0])
def test_euclidean_tensor_integral_matches_closed_form(mass, ratio):
    # Int_0^{L^2} u^2/(u+m^2)^2 du = L^2 - 2 m^2 log(1 + L^2/m^2) + m^2 - m^4/(L^2 + m^2)
    cutoff = mass * ratio
    m2, l2 = mass**2, cutoff**2
    exact = (l2 - 2 * m2 * math.log1p(l2 / m2) + m2 - m2 * m2 / (l2 + m2)) / (16 * math.pi**2)
    assert euclidean_tensor_integral(mass, cutoff) == pytest.approx(exact, rel=1e-10)


def test_cutoff_tensor_bracket_matches_quadrature():
    assert cutoff_tensor_grid_max_relative_error() < 1e-6


@pytest.mark.parametrize(
    "bracket",
    [
        # the former table: + log, no -i/4
        Expression.of(
            Term(Coefficient.monomial(1, 16, pi=-2, Lambda=2)),
            Term(Coefficient.monomial(1, 4, pi=-2, m=2).with_log(LOG_LAMBDA)),
        ),
        # the log sign fixed, still no -i/4
        Expression.of(
            Term(Coefficient.monomial(1, 16, pi=-2, Lambda=2)),
            Term(Coefficient.monomial(-1, 4, pi=-2, m=2).with_log(LOG_LAMBDA)),
        ),
        # -i/4 applied, the former + log kept
        Expression.of(
            Term(Coefficient.monomial(1, 16, pi=-2, Lambda=2)),
            Term(Coefficient.monomial(1, 4, pi=-2, m=2).with_log(LOG_LAMBDA)),
        ).scaled(Coefficient.imaginary(-1, 4)),
    ],
    ids=["former-table", "no-minus-i-over-4", "plus-log"],
)
def test_cutoff_tensor_check_rejects_a_wrong_bracket(monkeypatch, bracket):
    monkeypatch.setattr(loops, "cutoff_tensor_bracket", lambda mass="m": bracket)
    assert cutoff_tensor_grid_max_relative_error() > 1e-5


def test_quadrature_grid_twenty_points():
    assert quadrature_grid_max_relative_error() < 1e-8


def test_legendre_rule_matches_numpy_leggauss():
    import numpy as np

    nodes, weights = selftest._legendre_rule()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(selftest._RADIAL_NODES)
    assert np.abs(np.array(nodes) - want_nodes).max() <= 1e-14
    assert np.abs(np.array(weights) - want_weights).max() <= 1e-14


def test_log_slope_matches_numpy_polyfit():
    import numpy as np

    cutoffs = (1e2, 1e3, 1e4)
    ys = [euclidean_scalar_integral(1.0, cutoff) for cutoff in cutoffs]
    slope, _ = np.polyfit(np.log(cutoffs), ys, 1)
    assert abs(log_slope() - slope) <= 1e-12


def test_log_slope_matches_pole_normalization():
    slope = log_slope()
    target = 1.0 / (8 * math.pi**2)
    assert abs(slope - target) / target < 0.01


# ---------------------------------------------------------------------------
# Loop normalization against explicit matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chirality", [+1, -1])
def test_loop_normalization_matches_matrix_integrand(chirality):
    rank0_dev, rank2 = loop_normalization_deviation(one_flavor_model(chirality))
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
    flipped_first = FlavorSpec(first.name, first.mass, first.chirality, first.coeff, ((s1, a), (-s2, b)))
    flipped = ModelSpec(model.slots, (flipped_first,) + model.flavors[1:], model.absorb, model.constants)
    monkeypatch.setattr(selftest, "assemble", lambda _: assemble(flipped))
    rank0_dev, _ = loop_normalization_deviation(model)
    assert rank0_dev > 1e-3


@pytest.mark.parametrize("chirality", [+1, -1])
def test_massless_flavor_assembles_to_zero(chirality):
    assert assemble(one_flavor_model(chirality, "0")).terms == ()


# ---------------------------------------------------------------------------
# Import budget: numpy never loads, and json only to print structured output
# ---------------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]

_NUMPY_AFTER_MAIN = (
    "import sys\n"
    "from dipoleft import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print('numpy' in sys.modules, 'scipy' in sys.modules, code)\n"
)


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` on the source tree."""
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=REPO_ROOT, check=True,
    )


def _probe(source: str, *args: str) -> list[str]:
    """Last stdout line of a fresh interpreter running ``source`` on the source tree."""
    return _fresh("-c", source, *args).stdout.splitlines()[-1].split()


def test_import_does_not_load_numpy():
    assert _probe("import sys, dipoleft; print('numpy' in sys.modules)") == ["False"]


_CLI_IMPORT_THEN_STRUCTURED = (
    "import contextlib, io, sys\n"
    "import dipoleft.cli\n"
    "loaded = ['dipoleft.oracle' in sys.modules, 'json' in sys.modules]\n"
    "bound = [hasattr(sys.modules[m], 'dataclass') for m in ('dipoleft.modelfile', 'dipoleft.oracle')]\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    code = dipoleft.cli.main(['compute', 'theta_term.eft', '--format', 'structured'])\n"
    "golden = open('tests/golden/compute-theta_term-fs-structured.txt', encoding='utf-8').read()\n"
    "print(*loaded, *bound, code, out.getvalue() == golden, 'json' in sys.modules)\n"
)


def test_cli_import_loads_the_oracle_but_not_json():
    # benchmark/worker.py reads sys.modules["dipoleft.oracle"] after `import dipoleft`;
    # json loads only when --format structured prints, and still prints the golden bytes
    assert _probe(_CLI_IMPORT_THEN_STRUCTURED) == [
        "True", "False", "False", "False", "0", "True", "True"
    ]


_CLI_MODULES = {"dipoleft"} | {
    f"dipoleft.{name}" for name in ("action", "algebra", "dirac", "loops", "modelfile", "oracle", "render")
}


@pytest.mark.parametrize(
    "argv, checks",
    [
        (["compute", "theta_term.eft"], set()),
        (["reduce-bf", "bf_theory.eft"], set()),
        (["check-quantization", "--theta=1/3pi", "--nf", "3"], set()),
        (["selftest", "--count", "5"], {"dipoleft.selftest"}),
    ],
    ids=["compute", "reduce-bf", "check-quantization", "selftest"],
)
def test_only_selftest_imports_the_checks(argv, checks):
    # -X importtime names each module on stderr as it is first imported;
    # `python -m` runs dipoleft.cli as __main__, so it is not among them
    stderr = _fresh("-X", "importtime", "-m", "dipoleft.cli", *argv).stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")}
    assert {n for n in names if n.partition(".")[0] == "dipoleft"} == _CLI_MODULES | checks


def test_import_defines_the_evaluators_in_the_oracle_and_loads_no_checks():
    # benchmark/worker.py and benchmark/tracer.py read both evaluators off dipoleft.oracle
    source = (
        "import sys, dipoleft\n"
        "print(dipoleft.oracle.numeric_trace.__module__, dipoleft.oracle.evaluate_expression_numeric.__module__,\n"
        "      'dipoleft.selftest' in sys.modules, 'statistics' in sys.modules)\n"
    )
    assert _probe(source) == ["dipoleft.oracle", "dipoleft.oracle", "False", "False"]


def test_oracle_values_on_distinct_assigned_labels_do_not_load_numpy():
    # the second word repeats a label, so its terms are summed over dummies
    source = (
        "import sys\n"
        "from dipoleft.algebra import G5, gamma\n"
        "from dipoleft.dirac import FOUR_DIM, SYMBOLIC_DIM, trace_word\n"
        "from dipoleft.oracle import evaluate_expression_numeric, numeric_trace\n"
        "word = (gamma('a'), gamma('b'), G5, gamma('c'), gamma('d'), gamma('e'), gamma('f'))\n"
        "values = {'a': 0, 'b': 1, 'c': 2, 'd': 3, 'e': 1, 'f': 1}\n"
        "symbolic = evaluate_expression_numeric(trace_word(word, FOUR_DIM), values)\n"
        "repeated = evaluate_expression_numeric(trace_word(tuple(map(gamma, 'abab')), SYMBOLIC_DIM), {})\n"
        "print(symbolic == numeric_trace(word, values) == 4j, repeated == -32, 'numpy' in sys.modules)\n"
    )
    assert _probe(source) == ["True", "True", "False"]


def test_import_exposes_the_documented_api():
    names = "sorted(n for n in vars(dipoleft) if not n.startswith('_'))"
    assert _probe(f"import dipoleft; print(*{names})") == [
        "Coefficient", "Expression", "action", "algebra", "assemble", "check_quantization",
        "dirac", "eliminate_bf", "loops", "modelfile", "oracle", "parse_model", "render",
        "render_structured", "render_text", "renormalize", "structured_to_action",
    ]


def test_import_does_not_load_sympy():
    assert _probe("import sys, dipoleft; print('sympy' in sys.modules)") == ["False"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "theta_term.eft"],
        ["reduce-bf", "bf_theory.eft", "--form", "potential",
         "--set", "LambdaF=1/2*pi^-1", "--set", "CF=-1/8*e^2*pi^-1"],
        ["check-quantization", "--theta=1/3pi", "--nf", "3"],
        ["selftest", "--count", "5"],
    ],
    ids=["compute", "reduce-bf", "check-quantization", "selftest"],
)
def test_symbolic_commands_do_not_load_numpy(argv):
    assert _probe(_NUMPY_AFTER_MAIN, *argv) == ["False", "False", "0"]


def test_selftest_passes_with_numpy_import_blocked():
    # an entry of None in sys.modules makes `import numpy` raise ImportError,
    # so this holds even where numpy is installed
    source = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from dipoleft import cli\n"
        "print(cli.main(sys.argv[1:]))\n"
    )
    assert _probe(source, "selftest", "--count", "5") == ["0"]


def test_oracle_names_still_importable():
    from dipoleft import loops, oracle

    with pytest.raises(AttributeError):
        oracle.NOT_A_NAME
