"""Independent checks of the engine's outputs.

Nothing here uses the engine's arithmetic: coefficients are exact
``Fraction`` polynomials built from the seeded input description, traces
are evaluated with the benchmark's own 4x4 Dirac-representation matrices,
and text output is parsed back by a parser of the benchmark's own.  The
engine's objects are only read (their fields), never asked to compute.
No numpy or SymPy is imported, so the measured process stays the
program's own.

Every check raises ``CheckError`` with a reason when an output is wrong.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

from inputs import BUBBLE, CliCall, GammaWord, Model, Monomial

EPS = "epsilon"
METRIC = "metric"


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


# ---------------------------------------------------------------------------
# Exact polynomials: {monomial: Fraction}, a monomial is a sorted tuple of
# (name, power) with nonzero powers.
# ---------------------------------------------------------------------------


def mono(**powers: int) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((n, k) for n, k in powers.items() if k))


def mono_mul(a, b):
    merged = dict(a)
    for n, k in b:
        merged[n] = merged.get(n, 0) + k
    return tuple(sorted((n, k) for n, k in merged.items() if k))


def mono_div(a, b):
    return mono_mul(a, tuple((n, -k) for n, k in b))


def poly_add(acc: dict, m, value: Fraction) -> None:
    acc[m] = acc.get(m, Fraction(0)) + value
    if not acc[m]:
        del acc[m]


# An action is {(structure, slot_a, slot_b): poly} with a before b in the
# declaration order of the slots.
def _pair(order: dict, a: str, b: str) -> tuple[str, str]:
    return (a, b) if order[a] <= order[b] else (b, a)


def expected_assembled(model: Model, renormalized: bool) -> dict:
    """Closed form of the one-loop eps term, before or after absorption.

    Slot pair (a, b) gets, summed over flavors,
    (2 if a != b else 1) * 4 * chi * c^2 * s_a * s_b * m^2 * I0[m]:
    the paper's single-flavor normalization, bilinear in the combo.
    Massless flavors give nothing and the metric sector vanishes at d = 4.
    With ``renormalized``, each coupling^2 m^2 I0[m] bundle is replaced by
    its finite constant times the absorb scale.
    """
    order = {name: k for k, (name, _) in enumerate(model.slots)}
    absorb = {a.coupling: a for a in model.absorb}
    action: dict = {}
    for f in model.flavors:
        if f.mass == "0":
            continue
        if renormalized:
            a = absorb[f.coupling]
            m = mono(e=2 * f.e_power, pi=a.pi_power, **{a.finite: 1})
            base = 4 * f.chirality * f.value**2 * a.scale
        else:
            m = mono(e=2 * f.e_power, **{f.coupling: 2, f.mass: 2, BUBBLE[f.mass]: 1})
            base = 4 * f.chirality * f.value**2
        for s1, a1 in f.combo:
            for s2, a2 in f.combo:
                key = (EPS,) + _pair(order, a1, a2)
                poly_add(action.setdefault(key, {}), m, base * s1 * s2)
    return {k: v for k, v in action.items() if v}


def expected_reduced(model: Model, action: dict) -> tuple[dict, tuple[str, ...]]:
    """Integrate out the multiplier slot, with eliminate_bf's orientation.

    The multiplier b couples to exact slots X_i with single-monomial
    coefficients c_i.  The last-declared X_t is replaced by
    sum_{i != t} (c_i / c_t) X_i in every term that does not touch b, so an
    induced quadratic term keeps the sign of its parent.  Returns the
    reduced action and its remaining slots.
    """
    b = model.fundamental
    order = {name: k for k, (name, _) in enumerate(model.slots)}
    constraint = []
    remaining = {}
    for (structure, a1, a2), poly in action.items():
        if b not in (a1, a2):
            remaining[(structure, a1, a2)] = poly
            continue
        if a1 == a2 or structure != EPS or len(poly) != 1:
            raise CheckError(f"input is not a reducible BF model: {(structure, a1, a2)}")
        constraint.append((a2 if a1 == b else a1, next(iter(poly.items()))))
    constraint.sort(key=lambda item: order[item[0]])
    target, (t_mono, t_val) = constraint[-1]
    ratios = [(name, mono_div(m, t_mono), v / t_val) for name, (m, v) in constraint[:-1]]

    def expand(slot):
        if slot != target:
            return [(slot, (), Fraction(1))]
        return ratios

    reduced: dict = {}
    for (structure, a1, a2), poly in remaining.items():
        for n1, m1, v1 in expand(a1):
            for n2, m2, v2 in expand(a2):
                key = (structure,) + _pair(order, n1, n2)
                acc = reduced.setdefault(key, {})
                for m, v in poly.items():
                    poly_add(acc, mono_mul(mono_mul(m, m1), m2), v * v1 * v2)
    slots = tuple(n for n, _ in model.slots if n not in (b, target))
    return {k: v for k, v in reduced.items() if v}, slots


def action_poly(action) -> dict:
    """Sum an engine EffectiveAction into the polynomial form, by its fields."""
    out: dict = {}
    for t in action.terms:
        c = t.coeff
        if c.im or c.logs or c.eps_power:
            raise CheckError(f"unexpected coefficient {c!r}")
        poly_add(out.setdefault((t.structure, t.slot_a, t.slot_b), {}), tuple(c.consts), c.re)
    return {k: v for k, v in out.items() if v}


def compare_actions(got: dict, want: dict, what: str) -> None:
    if got != want:
        keys = sorted(set(got) | set(want))
        diff = [(k, got.get(k), want.get(k)) for k in keys if got.get(k) != want.get(k)]
        raise CheckError(f"{what}: mismatch {diff[:3]}")


# ---------------------------------------------------------------------------
# Text output parser
# ---------------------------------------------------------------------------

_TERM = re.compile(
    r"^\((?P<value>-?\d+(?:/\d+)?)\)(?P<mid>(?: \* [^*]+)*?) \* "
    r"(?P<tensor>eps\[mu nu rho sigma\]|eta\[mu rho\] eta\[nu sigma\]) "
    r"(?P<a>\w+)\[mu nu\] (?P<b>\w+)\[rho sigma\]$"
)
_FACTOR = re.compile(r"^(?P<name>[A-Za-z_][\w\[\]]*)(?:\^(?P<pow>-?\d+))?$")


def parse_text(text: str, names: dict[str, str] | None = None) -> dict:
    """Parse render_text output into {(structure, a, b): poly}.

    ``names`` maps displayed slot names (e.g. ``dA``) back to slots.
    """
    out: dict = {}
    for line in text.splitlines():
        m = _TERM.match(line)
        if not m:
            raise CheckError(f"unparseable output line {line!r}")
        powers: dict[str, int] = {}
        for piece in m.group("mid").split(" * ")[1:]:
            f = _FACTOR.match(piece.strip())
            if not f or f.group("name") == "i":
                raise CheckError(f"unexpected factor {piece!r} in {line!r}")
            powers[f.group("name")] = int(f.group("pow") or 1)
        structure = EPS if m.group("tensor").startswith("eps") else METRIC
        a, b = m.group("a"), m.group("b")
        if names:
            a, b = names.get(a, a), names.get(b, b)
        poly_add(out.setdefault((structure, a, b), {}), mono(**powers), Fraction(m.group("value")))
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# model-sweep
# ---------------------------------------------------------------------------


def check_model(model: Model, result: dict) -> None:
    """``result`` holds the engine's outputs of one model-sweep operation."""
    want_raw = expected_assembled(model, renormalized=False)
    compare_actions(action_poly(result["assembled"]), want_raw, "assembled action")
    want = expected_assembled(model, renormalized=True)
    compare_actions(action_poly(result["renormalized"]), want, "renormalized action")
    final = result["final"]
    if model.fundamental is not None:
        want, slots = expected_reduced(model, want)
        compare_actions(action_poly(final), want, "reduced action")
        if tuple(s.name for s in final.slots) != slots:
            raise CheckError(f"reduced slots {final.slots} != {slots}")
    compare_actions(parse_text(result["text"]), want, "text output")
    back, form = result["round_trip"]
    if back != final or form != "potential":
        raise CheckError("structured output does not round-trip to the same action")


# ---------------------------------------------------------------------------
# trace-oracle: own Dirac matrices, exact Gaussian integers as complex
# ---------------------------------------------------------------------------

ETA = (1, -1, -1, -1)
PROBE_MAX_TERMS = 40


def _matmul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


def _dirac_matrices():
    one = ((1, 0), (0, 1))
    paulis = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))

    def block(a, b, c, d):
        return tuple(a[i] + b[i] for i in range(2)) + tuple(c[i] + d[i] for i in range(2))

    zero = ((0, 0), (0, 0))
    neg = lambda m: tuple(tuple(-v for v in row) for row in m)  # noqa: E731
    g0 = block(one, zero, zero, neg(one))
    spatial = [block(zero, s, neg(s), zero) for s in paulis]
    gammas = [g0] + spatial
    g5 = _matmul(_matmul(gammas[0], gammas[1]), _matmul(gammas[2], gammas[3]))
    g5 = tuple(tuple(1j * v for v in row) for row in g5)
    return gammas, g5


GAMMAS, GAMMA5 = _dirac_matrices()


def matrix_trace(word: GammaWord) -> complex:
    """tr of the explicit product, with gamma^mu for the assigned mu."""
    assignment = dict(word.assignment)
    m = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for x in word.letters:
        m = _matmul(m, GAMMA5 if x is None else GAMMAS[assignment[x]])
    return complex(sum(m[i][i] for i in range(4)))


def _levi_civita(idx) -> int:
    if len(set(idx)) < 4:
        return 0
    sign, items = 1, list(idx)
    for i in range(4):
        for j in range(3 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign


def _compile(expr) -> list[tuple]:
    """Each term as (re, im, factors, dummies), ready to evaluate many times.

    Every factor is read with upper indices, eta = diag(1,-1,-1,-1) and
    eps^{0123} = +1; a label occurring twice is a contraction, summed with
    one index lowered by eta.
    """
    out = []
    for term in expr.terms:
        c = term.coeff
        if c.logs or c.eps_power or any(n != "d" for n, _ in c.consts):
            raise CheckError(f"trace coefficient {c!r} is not a number")
        scale = Fraction(4) ** dict(c.consts).get("d", 0)
        factors = []
        for f in term.factors:
            kind = type(f).__name__
            if kind == "Metric":
                factors.append((False, (f.i, f.j)))
            elif kind == "Epsilon":
                factors.append((True, tuple(f.idx)))
            else:
                raise CheckError(f"unexpected factor {f!r} in a trace")
        labels = [x for _, idx in factors for x in idx]
        dummies = sorted({x for x in labels if labels.count(x) == 2})
        out.append((c.re * scale, c.im * scale, factors, dummies))
    return out


def _tensor_value(factors, env: dict[str, int]) -> int:
    v = 1
    for eps, idx in factors:
        if eps:
            v *= _levi_civita(tuple(env[x] for x in idx))
        else:
            i, j = env[idx[0]], env[idx[1]]
            v *= ETA[i] if i == j else 0
        if not v:
            return 0
    return v


def _evaluate(compiled, assignment: dict[str, int]) -> complex:
    """Exact sum of the compiled terms for concrete free indices."""
    re_sum, im_sum = Fraction(0), Fraction(0)
    for re, im, factors, dummies in compiled:
        if dummies:
            total = 0
            env = dict(assignment)
            for values in product(range(4), repeat=len(dummies)):
                env.update(zip(dummies, values))
                lowered = 1
                for x in values:
                    lowered *= ETA[x]
                total += lowered * _tensor_value(factors, env)
        else:
            total = _tensor_value(factors, assignment)
        if total:
            re_sum += re * total
            im_sum += im * total
    return complex(float(re_sum), float(im_sum))


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _pairings(labels: list[str]):
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for k, partner in enumerate(rest):
        for tail in _pairings(rest[:k] + rest[k + 1:]):
            yield ((first, partner),) + tail


def probe_assignments(word: GammaWord) -> list[tuple[tuple[str, int], ...]]:
    """Index assignments at which every possible term of the trace is live.

    A trace term pairs labels by metrics and, with g5, puts four of them in
    an epsilon.  For each choice of epsilon labels and each pairing of the
    rest there is one assignment: the epsilon labels take four different
    values and each pair one value.  Derived from the word alone, so a
    missing or wrong term is caught wherever it lives.
    """
    rng = random.Random(repr(word.letters))
    labels = [x for x, _ in word.assignment]
    if len(labels) % 2:
        return []
    choices = combinations(labels, 4) if word.g5_count % 2 else [()]
    out = []
    for eps in choices:
        rest = [x for x in labels if x not in eps]
        for pairing in _pairings(rest):
            values = dict(zip(eps, rng.sample(range(4), len(eps))))
            for a, b in pairing:
                values[a] = values[b] = rng.randrange(4)
            out.append(tuple((x, values[x]) for x in labels))
    return out


def check_word(word: GammaWord, result: dict, thorough: bool = True) -> None:
    """Symbolic trace, oracle values and own matrix trace all agree.

    With ``thorough``, traces of at most PROBE_MAX_TERMS terms are also
    compared at every probe assignment; longer ones rest on the workload's
    assignment and, when plain, the exact term count.
    """
    expr = result["expr"]
    want = matrix_trace(word)
    tol = 1e-10 * max(1.0, abs(want))
    for key in ("oracle_symbolic", "oracle_matrix"):
        if abs(result[key] - want) > tol:
            raise CheckError(f"{key} {result[key]} != matrix trace {want} for {word}")
    assignments = [word.assignment]
    if thorough and len(expr.terms) <= PROBE_MAX_TERMS:
        assignments += probe_assignments(word)
    compiled = _compile(expr)
    for assignment in assignments:
        probe = replace(word, assignment=assignment)
        want = matrix_trace(probe)
        got = _evaluate(compiled, dict(assignment))
        if abs(got - want) > 1e-10 * max(1.0, abs(want)):
            raise CheckError(f"symbolic trace {got} != matrix trace {want} for {probe}")
    n = word.length
    if n % 2 and expr.terms:
        raise CheckError(f"odd-length word traced to {len(expr.terms)} terms")
    if word.g5_count % 2 == 0 and n % 2 == 0 and len(expr.terms) != double_factorial(n - 1):
        raise CheckError(f"plain trace of {n} labels has {len(expr.terms)} terms")


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

THETA_RESULT = {  # (1/32) e^2 thetaF pi^-2 eps F F, the stated theta-term result
    (EPS, "F", "F"): {mono(e=2, thetaF=1, pi=-2): Fraction(1, 32)}
}


def _single_term(monomial: Monomial, a: str, b: str) -> dict:
    return {(EPS, a, b): {mono(**dict(monomial.powers)): monomial.value}}


def classify(theta: Fraction, nf: int) -> str:
    scaled = theta * nf * nf
    if scaled.denominator != 1:
        return "not-TRI"
    return "TRI-nontrivial" if scaled.numerator % 2 else "TRI-trivial"


def check_cli(call: CliCall, returncode: int, out: str, err: str) -> None:
    if returncode != 0:
        raise CheckError(f"{call.argv} exited {returncode}: {err.strip()}")
    if call.kind == "compute":
        compare_actions(parse_text(out), THETA_RESULT, "compute")
    elif call.kind == "compute-potential":
        # each exact slot doubles in potential form: (1/8) e^2 thetaF pi^-2 eps dA dA
        want = {k: {m: v * 4 for m, v in p.items()} for k, p in THETA_RESULT.items()}
        compare_actions(parse_text(out, {"dA": "F"}), want, "compute --form potential")
    elif call.kind == "compute-structured":
        doc = json.loads(out)
        terms = {}
        for t in doc["terms"]:
            c = t["coefficient"]
            powers = dict(c["constants"], pi=c["pi_power"])
            if c["i_power"]:
                raise CheckError("imaginary structured coefficient")
            poly_add(terms.setdefault((t["tensor"], *t["slots"]), {}), mono(**powers),
                     Fraction(c["num"], c["den"]))
        if doc["schema"] != 1 or doc["divergent"] or doc["form"] != "field-strength":
            raise CheckError(f"structured header {doc}")
        compare_actions(terms, THETA_RESULT, "compute --format structured")
    elif call.kind == "reduce-bf":
        # reduced action is CF eps dA dA in potential form
        compare_actions(parse_text(out, {"dA": "F"}), _single_term(call.cf, "F", "F"), "reduce-bf")
    else:
        want = [
            f"theta = {call.theta} pi, Nf = {call.nf}",
            f"topological charge quantized in units of Nf^2 = {call.nf * call.nf}",
            f"classification: {classify(call.theta, call.nf)}",
        ]
        if out.splitlines() != want:
            raise CheckError(f"check-quantization printed {out!r}, expected {want}")
