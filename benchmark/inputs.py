"""Seeded inputs for the three workloads.

Pure Python: nothing here imports dipoleft, so the same description of an
input serves both the engine (as text or argv) and the independent checks
in ``check.py``.  The same seed always gives the same inputs.

Every round of a workload holds the same operations in the same
proportions: the seed chooses names, signs, chiralities, masses,
coefficients and order, while the shape of each operation (word length
and g5 count, number of slots, combo sizes, massless flavors) is fixed by
the schedules below.  Run-to-run cost then depends on the engine, not on
which shapes a seed happened to draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

THETA_FIXTURE = "theta_term.eft"
BF_FIXTURE = "bf_theory.eft"


@dataclass(frozen=True)
class Monomial:
    """A rational times integer powers of named constants (pi included)."""

    value: Fraction
    powers: tuple[tuple[str, int], ...]

    def text(self) -> str:
        """The ``NAME=MONOMIAL`` syntax that ``--set`` accepts."""
        return "*".join([str(self.value)] + [f"{n}^{k}" for n, k in self.powers])


@dataclass(frozen=True)
class CliCall:
    kind: str  # compute | compute-potential | compute-structured | reduce-bf | check-quantization
    argv: tuple[str, ...]
    cf: Monomial | None = None  # reduce-bf: the value substituted for CF
    theta: Fraction | None = None  # check-quantization: theta / pi
    nf: int | None = None


def _nonzero_rational(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.choice([k for k in range(-span, span + 1) if k])
    return Fraction(num, rng.choice([1, 2, 3, 4, 8, 16, 32]))


def _monomial(rng: random.Random) -> Monomial:
    powers = []
    for name, choices in (("e", (0, 1, 2, 3)), ("pi", (-2, -1, 0, 1))):
        k = rng.choice(choices)
        if k:
            powers.append((name, k))
    return Monomial(_nonzero_rational(rng), tuple(powers))


def cli_round(rng: random.Random) -> list[CliCall]:
    """One round of the cold-CLI mix: three compute forms, reduce-bf, check."""
    lam, cf = _monomial(rng), _monomial(rng)
    theta = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 3, 9, 2, 5]))
    nf = rng.choice([1, 3, 5, 7])
    calls = [
        CliCall("compute", ("compute", THETA_FIXTURE)),
        CliCall("compute-potential", ("compute", THETA_FIXTURE, "--form", "potential")),
        CliCall("compute-structured", ("compute", THETA_FIXTURE, "--format", "structured")),
        CliCall(
            "reduce-bf",
            ("reduce-bf", BF_FIXTURE, "--form", "potential",
             "--set", f"LambdaF={lam.text()}", "--set", f"CF={cf.text()}"),
            cf=cf,
        ),
        CliCall(
            "check-quantization",
            # --theta=VALUE: argparse reads a separate "-2pi" as an option
            ("check-quantization", f"--theta={theta}pi", "--nf", str(nf)),
            theta=theta,
            nf=nf,
        ),
    ]
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# model-sweep
# ---------------------------------------------------------------------------

MASSES = ("m", "M")
BUBBLE = {"m": "I0", "M": "I0[M]"}  # the engine's bubble symbol per mass
COUPLINGS = ("alpha", "beta", "lambda", "kappa", "zeta", "omega")
EXACT_SLOTS = (("F", "A"), ("G", "B"), ("H", "C"))
FUNDAMENTAL_SLOT = "b"
UNABSORBED = "e"


@dataclass(frozen=True)
class Flavor:
    name: str
    mass: str  # "m", "M" or "0"
    chirality: int
    value: Fraction  # the coefficient is value * e^e_power * coupling
    e_power: int
    coupling: str
    combo: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class Absorb:
    coupling: str
    finite: str
    scale: Fraction
    pi_power: int  # scale is `scale * pi^pi_power`, pi_power <= 0


@dataclass(frozen=True)
class Model:
    text: str
    slots: tuple[tuple[str, str | None], ...]  # (name, potential), None marks fundamental
    flavors: tuple[Flavor, ...]
    absorb: tuple[Absorb, ...]

    @property
    def fundamental(self) -> str | None:
        return next((n for n, pot in self.slots if pot is None), None)


# A general model: (exact slots, combo size per flavor, massless flavors).
# P = sum of squared combo sizes counts polarization calls, which set the cost.
GENERAL_SHAPES = (
    (1, (1,), 0),  # P = 1, the theta-term shape
    (2, (2, 1), 0),  # P = 5
    (3, (2, 1, 1, 1, 1, 1), 1),  # P = 9, six flavors
    (3, (3, 2, 1, 1), 1),  # P = 15
)
# A BF-family model: (exact slots, exact slots coupled to the multiplier,
# chirality pairs across two exact slots).
BF_SHAPES = (
    (1, 1, 0),  # P = 8
    (2, 2, 1),  # P = 24, the bf_theory shape
)
# Copies per round, in the order above: 20 models, 9 of them BF-family.
# Sorted by cost, the six P = 15 models hold ranks 8-13 and the seven
# P = 24 models ranks 14-20, so the median and the p75 tail each fall
# inside one shape, whichever models the seed draws.
GENERAL_COPIES = (2, 1, 2, 6)
BF_COPIES = (2, 7)


def _coupling_value(rng: random.Random) -> tuple[Fraction, int]:
    return _nonzero_rational(rng, 3), rng.choice([1, 1, 2])


def _signed_combo(rng: random.Random, names: list[str]) -> tuple[tuple[int, str], ...]:
    return tuple((rng.choice([1, -1]), n) for n in names)


def _combo_text(combo: tuple[tuple[int, str], ...]) -> str:
    out = ""
    for k, (sign, name) in enumerate(combo):
        out += ("-" if sign < 0 else ("+" if k else "")) + name
    return out


def _render_model(slots, flavors, absorb) -> str:
    lines = ["dim 4", f"constant {UNABSORBED} real positive"]
    lines += [f"constant {a.coupling} real" for a in absorb]
    for name, pot in slots:
        lines.append(f"slot {name} fundamental" if pot is None else f"slot {name} exact {pot}")
    for f in flavors:
        coeff = f"{f.value}*{UNABSORBED}" + (f"^{f.e_power}" if f.e_power != 1 else "")
        coeff += f"*{f.coupling}"
        chir = "+" if f.chirality > 0 else "-"
        lines.append(
            f"flavor {f.name} mass {f.mass} chirality {chir} coeff {coeff} combo {_combo_text(f.combo)}"
        )
    for a in absorb:
        scale = f"{a.scale}" + (f"/pi^{-a.pi_power}" if a.pi_power else "")
        lines.append(f"absorb {a.coupling}^2 as N{a.coupling} scale {scale}")
    return "\n".join(lines) + "\n"


def _model(slots, flavors, absorb) -> Model:
    return Model(_render_model(slots, flavors, absorb), slots, flavors, absorb)


def _finish(rng: random.Random, slots, raw_flavors) -> Model:
    """Name flavors, declare couplings and absorb directives, shuffle order."""
    rng.shuffle(raw_flavors)
    flavors = tuple(
        Flavor(f"psi{k + 1}", *fields) for k, fields in enumerate(raw_flavors)
    )
    used = sorted({f.coupling for f in flavors}, key=COUPLINGS.index)
    absorb = tuple(
        Absorb(c, f"N{c}", _nonzero_rational(rng, 4), rng.choice([0, -1, -2])) for c in used
    )
    return _model(tuple(slots), flavors, absorb)


def general_model(rng: random.Random, n_slots: int, sizes: tuple[int, ...], massless: int) -> Model:
    """Flavors on exact slots only, sharing two (chirality, mass) shapes.

    Flavor k takes shape k % 2 and coupling k % 3: which flavors share a
    mass and a coupling, and so how many terms merge, is the same for
    every seed.  The seed draws chiralities, slots, signs and coefficients.
    """
    slots = rng.sample(EXACT_SLOTS, n_slots)
    names = [n for n, _ in slots]
    couplings = rng.sample(COUPLINGS, min(3, len(sizes)))
    chiralities = [rng.choice([1, -1]) for _ in MASSES]
    raw = []
    for k, size in enumerate(sizes):
        mass = "0" if k < massless else MASSES[k % 2]
        value, e_power = _coupling_value(rng)
        combo = _signed_combo(rng, rng.sample(names, size))
        raw.append((mass, chiralities[k % 2], value, e_power, couplings[k % len(couplings)], combo))
    return _finish(rng, slots, raw)


def bf_model(rng: random.Random, n_exact: int, n_coupled: int, n_cross: int) -> Model:
    """Chirality pairs with opposite multiplier signs, built like bf_theory.eft.

    Each pair shares mass and coefficient, so the diagonal terms cancel.
    Each exact slot coupled to the multiplier is fed by one pair with its
    own coupling, so every multiplier term is a single monomial.  Pair k
    has mass MASSES[k % 2].
    """
    exact = rng.sample(EXACT_SLOTS, n_exact)
    slots = exact + [(FUNDAMENTAL_SLOT, None)]
    rng.shuffle(slots)
    names = [n for n, _ in exact]
    couplings = rng.sample(COUPLINGS, n_coupled + n_cross)
    pairs = [(name, FUNDAMENTAL_SLOT) for name in rng.sample(names, n_coupled)]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(n_cross)]
    raw = []
    for k, (first, second) in enumerate(pairs):
        value, e_power = _coupling_value(rng)
        s1, s2 = rng.choice([1, -1]), rng.choice([1, -1])
        for chirality in (1, -1):
            combo = ((s1, first), (chirality * s2, second))
            raw.append((MASSES[k % 2], chirality, value, e_power, couplings[k], combo))
    return _finish(rng, slots, raw)


def sweep_round(rng: random.Random) -> list[Model]:
    """One round of the model sweep: every shape, its fixed number of times."""
    models = []
    for shape, copies in zip(GENERAL_SHAPES, GENERAL_COPIES):
        models += [general_model(rng, *shape) for _ in range(copies)]
    for shape, copies in zip(BF_SHAPES, BF_COPIES):
        models += [bf_model(rng, *shape) for _ in range(copies)]
    rng.shuffle(models)
    return models


WARMUP_MODEL = _model(
    (("F", "A"),),
    (Flavor("psi", "m", 1, Fraction(1, 2), 1, "alpha", ((1, "F"),)),),
    (Absorb("alpha", "Nalpha", Fraction(1, 32), -2),),
)


# ---------------------------------------------------------------------------
# trace-oracle
# ---------------------------------------------------------------------------

LABELS = tuple("abcdefghjkpqrstuvwyz")


@dataclass(frozen=True)
class GammaWord:
    letters: tuple[str | None, ...]  # a label per gamma, None for g5
    assignment: tuple[tuple[str, int], ...]  # numeric index per label

    @property
    def length(self) -> int:
        return sum(1 for x in self.letters if x is not None)

    @property
    def g5_count(self) -> int:
        return sum(1 for x in self.letters if x is None)


# Words per round for each (length, g5 count); the same for every seed.
# Odd lengths and short words check the zero and small cases; the weight
# on length 6 keeps the median inside one class of words, and the three
# length-10 words hold the top 3 % that sets the p98 tail.
def _word_copies(length: int) -> int:
    return {6: 10, 4: 2, 8: 2}.get(length, 1)


WORD_CLASSES = tuple(
    (length, g5, _word_copies(length)) for length in range(11) for g5 in range(3)
)


def gamma_word(rng: random.Random, length: int, g5_count: int) -> GammaWord:
    labels = rng.sample(LABELS, length)
    letters: list[str | None] = list(labels)
    for _ in range(g5_count):
        letters.insert(rng.randint(0, len(letters)), None)
    assignment = tuple((x, rng.randrange(4)) for x in labels)
    return GammaWord(tuple(letters), assignment)


def oracle_round(rng: random.Random) -> list[GammaWord]:
    words = [
        gamma_word(rng, length, g5)
        for length, g5, copies in WORD_CLASSES
        for _ in range(copies)
    ]
    rng.shuffle(words)
    return words


WARMUP_WORD = GammaWord(("a", "b", None, "c", "d"), (("a", 0), ("b", 1), ("c", 2), ("d", 3)))


# ---------------------------------------------------------------------------

ROUNDS = {"cli-cold": cli_round, "model-sweep": sweep_round, "trace-oracle": oracle_round}


def rounds(workload: str, seed: int):
    """Endless stream of rounds for a workload; the seed fixes every round."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    while True:
        yield make(rng)
