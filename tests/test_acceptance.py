"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All symbolic checks are exact (zero tolerance); the numeric-oracle
checks carry the stated floating-point tolerances.
"""

import json
import math
import random
from fractions import Fraction

from dipoleft.algebra import Coefficient, LOG_LAMBDA
from dipoleft.action import (
    ActionTerm,
    TRI_NONTRIVIAL,
    TRI_TRIVIAL,
    NOT_TRI,
    assemble,
    check_quantization,
    polarization,
    renormalize,
)
from dipoleft.algebra import Epsilon, Expression, Term, canonicalize, contract, gamma, G5, Metric
from dipoleft.cli import main
from dipoleft.dirac import FOUR_DIM, SYMBOLIC_DIM, commutator, trace
from dipoleft.modelfile import parse_model
from dipoleft.selftest import (
    cutoff_scalar_leading,
    dipole_trace_identity_checks,
    laurent_expand,
    log_slope,
    quadrature_grid_max_relative_error,
    randomized_equivalence_suite,
)

def _cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_theta_term_reproduction(capsys, theta_model_path):
    code, out = _cli(capsys, "compute", str(theta_model_path))
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines == [
        "(1/32) * e^2 * thetaF * pi^-2 * eps[mu nu rho sigma] F[mu nu] F[rho sigma]"
    ]
    code, out = _cli(capsys, "compute", str(theta_model_path), "--form", "potential")
    assert code == 0
    assert out.splitlines() == [
        "(1/8) * e^2 * thetaF * pi^-2 * eps[mu nu rho sigma] dA[mu nu] dA[rho sigma]"
    ]
    code, out = _cli(capsys, "compute", str(theta_model_path), "--format", "structured")
    payload = json.loads(out)
    assert payload["terms"][0]["coefficient"] == {
        "num": 1,
        "den": 32,
        "i_power": 0,
        "pi_power": -2,
        "constants": {"e": 2, "thetaF": 1},
    }
    print("PASS criterion 1: theta-term coefficients e^2 thetaF/32pi^2 and thetaF e^2/8pi^2, exact")


def test_criterion_2_metric_sector_vanishes_exactly():
    result = polarization(+1, "m")
    metric_terms = [
        t for t in result.terms if not any(isinstance(f, Epsilon) for f in t.factors)
    ]
    assert metric_terms == []
    # the multiplying integral is genuinely divergent: the cutoff bracket
    # carries a Lambda^2 power, yet the total is the exact zero expression
    undropped = polarization(+1, "m", at_dimension=None)
    assert any(
        t.coeff.const_power("Lambda") == 2
        for t in undropped.terms
        if not any(isinstance(f, Epsilon) for f in t.factors)
    )
    print("PASS criterion 2: metric sector is the exact zero expression at d = 4")


def test_criterion_3_epsilon_sector_structure(theta_model_path):
    model = parse_model(theta_model_path.read_text())
    action = assemble(model)
    assert action.terms == (
        ActionTerm(
            Coefficient.monomial(1, 1, e=2, m=2, alpha=2, I0=1), "F", "F"
        ),
    )
    print("PASS criterion 3: unrenormalized epsilon sector equals e^2 m^2 alpha^2 I0 eps, exact")


def test_criterion_4_dimreg_chain():
    expansion = laurent_expand()
    base = Coefficient.monomial(1, 16, pi=-2)
    expected = canonicalize(
        Expression.of(
            Term(base.gaussian_scaled(Fraction(2)).with_eps(-1)),
            Term(base.with_log("log(mu^2/m^2)")),
            Term(base.with_log("log(4pi)")),
            Term((-base).with_consts(gammaE=1)),
        )
    )
    assert expansion == expected
    print("PASS criterion 4: I0 Laurent expansion (2/eps + log(mu^2/m^2) + log 4pi - gammaE)/16pi^2, exact")


def test_criterion_5_bf_reproduction(capsys, bf_model_path):
    code, out = _cli(capsys, "compute", str(bf_model_path), "--form", "potential")
    assert code == 0
    assert sorted(out.splitlines()) == sorted(
        [
            "(1) * LambdaF * eps[mu nu rho sigma] dA[mu nu] b[rho sigma]",
            "(1) * LambdaF * eps[mu nu rho sigma] da[mu nu] b[rho sigma]",
            "(1) * CF * eps[mu nu rho sigma] dA[mu nu] da[rho sigma]",
        ]
    )
    model = parse_model(bf_model_path.read_text())
    action = renormalize(assemble(model), model.absorb)
    pairs = {(t.slot_a, t.slot_b) for t in action.terms}
    assert pairs == {("F", "b"), ("f", "b"), ("F", "f")}  # no FF, ff or bb terms
    for sign, token in ((+1, "1/8"), (-1, "-1/8")):
        code, out = _cli(
            capsys,
            "reduce-bf",
            str(bf_model_path),
            "--form",
            "potential",
            "--set",
            f"CF={token}*e^2*pi^-1",
            "--set",
            "LambdaF=1/2*pi^-1",
        )
        assert code == 0
        assert out.splitlines() == [
            f"({token}) * e^2 * pi^-1 * eps[mu nu rho sigma] dA[mu nu] dA[rho sigma]"
        ]
    print("PASS criterion 5: BF action has exactly LambdaF, LambdaF, CF terms; reduction gives +-e^2/8pi eps dA dA, exact")


def test_criterion_6_oracle_equivalence():
    report = randomized_equivalence_suite(seed=42, count=500)
    assert report.passed
    assert report.max_deviation < 1e-10
    eps_dev, contracted_dev = dipole_trace_identity_checks()
    assert eps_dev < 1e-10 and contracted_dev < 1e-10
    # the same identities, symbolically and exactly
    g5_expr = commutator("m", "n") * commutator("r", "s") * Expression.of(Term(Coefficient.one(), word=(G5,)))
    assert trace(g5_expr, FOUR_DIM) == canonicalize(
        Expression.of(Term(Coefficient.imaginary(-16), factors=(Epsilon(("m", "n", "r", "s")),)))
    )
    contracted = (
        commutator("m", "n")
        * Expression.of(Term(Coefficient.one(), word=(gamma("al"),)))
        * commutator("r", "s")
        * Expression.of(Term(Coefficient.one(), word=(gamma("be"),)))
        * Expression.of(Term(Coefficient.one(), factors=(Metric("al", "be"),)))
    )
    from dipoleft.algebra import substitute_dimension

    assert substitute_dimension(contract(trace(contracted, SYMBOLIC_DIM)), 4).is_zero()
    print(
        f"PASS criterion 6: 500-word oracle suite (max dev {report.max_deviation:.2e} < 1e-10) "
        "and both trace identities, numeric and symbolic"
    )


def test_criterion_7_integral_oracle():
    grid_err = quadrature_grid_max_relative_error()
    assert grid_err < 1e-8
    slope = log_slope()
    target = 1.0 / (8 * math.pi**2)
    assert abs(slope - target) / target < 0.01
    # consistency with the symbolic leading log: (1/8pi^2) per unit log(Lambda/m)
    (leading,) = cutoff_scalar_leading().terms
    assert leading.coeff == Coefficient.monomial(1, 8, pi=-2).with_log(LOG_LAMBDA)
    print(
        f"PASS criterion 7: quadrature grid max rel err {grid_err:.2e} < 1e-8; "
        f"log slope {slope:.6e} within 1% of 1/8pi^2"
    )


def test_criterion_8_quantization_classifier():
    assert check_quantization(Fraction(1), 1).classification == TRI_NONTRIVIAL
    assert check_quantization(Fraction(1, 3), 3).classification == TRI_NONTRIVIAL
    assert check_quantization(Fraction(2), 1).classification == TRI_TRIVIAL
    assert check_quantization(Fraction(1, 2), 1).classification == NOT_TRI
    rng = random.Random(8)
    for _ in range(100):
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 15))
        nf = rng.choice([1, 3, 5, 7, 9])
        assert (
            check_quantization(q, nf).classification
            == check_quantization(q + 2, nf).classification
        )
    print("PASS criterion 8: classifier cases and 100-sample 2pi periodicity")
