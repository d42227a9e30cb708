"""Line-oriented model-file parser with per-line diagnostics.

Directives:

    dim 4
    constant <name> [real] [positive]
    slot <name> exact <potential>
    slot <name> fundamental
    flavor <name> mass <sym> chirality +|- coeff <monomial> combo <signed-slot-sum>
    absorb <constant>^2 as <name> [scale <rational>[/pi^<k>]]

'#' starts a comment.  Every declared name has one kind (constant, slot,
potential, flavor, mass or finite name) and one declaring line, and only a
mass symbol may repeat (across flavors); mass ``0`` is not a name.  A name
that is not an identifier (a letter or ``_``, then letters, digits or
``_``) is ``bad-name``, a reserved engine name ``reserved-name``, a name
declared again as the same kind ``duplicate-<kind>`` and as another kind
``name-clash``, each citing the earlier line.  Constants must be declared
before use, and a constant has at most one absorb directive
(``duplicate-absorb``).  A zero denominator (``coeff e*alpha/0``,
``scale 1/0``) is a ``bad-monomial`` or ``bad-scale`` diagnostic, and so
is a zero scale (``scale 0``, ``0/pi^2``), which would silently replace
the divergent bundle by zero.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .algebra import RESERVED_NAMES, Coefficient, _powmap
from .action import AbsorbDirective, FlavorSpec, ModelSpec, SlotSpec

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_COMBO_TOKEN = re.compile(r"([+-]?)([A-Za-z_][A-Za-z0-9_]*)")


@dataclass(frozen=True)
class Diagnostic:
    code: str
    line: int
    message: str
    text: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.code}: {self.message}"


class ModelFileError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics))


class _Collector:
    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []

    def add(self, code: str, line: int, message: str, text: str = "") -> None:
        self.diagnostics.append(Diagnostic(code, line, message, text))


def _parse_rational(token: str) -> Fraction:
    """``3``, ``-1/2``, ...; a zero denominator is a ValueError."""
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def parse_monomial(token: str, declared: set[str]) -> Coefficient:
    """Parse a product of declared constants with integer powers and one
    rational prefactor, e.g. ``e*alpha/2`` or ``-1/8*e^2*pi^-1``.

    A ValueError names a malformed factor, an undeclared constant or a zero
    denominator (``1/0``, ``alpha/0``)."""
    value = Fraction(1)
    powers: list[tuple[str, int]] = []
    for piece in token.split("*"):
        piece = piece.strip()
        if not piece:
            raise ValueError("empty factor in monomial")
        m = re.fullmatch(r"(-?\d+(?:/\d+)?)", piece)
        if m:
            value *= _parse_rational(piece)
            continue
        m = re.fullmatch(r"(-?)([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?(?:/(\d+))?", piece)
        if not m:
            raise ValueError(f"bad monomial factor {piece!r}")
        neg, name, power, divisor = m.groups()
        if name != "pi" and name not in declared:
            raise ValueError(f"undeclared constant {name!r}")
        powers.append((name, int(power) if power else 1))
        if neg:
            value = -value
        if divisor:
            if int(divisor) == 0:
                raise ValueError(f"zero denominator in {piece!r}")
            value /= int(divisor)
    return Coefficient(re=value, consts=_powmap(powers))


def _parse_scale(token: str) -> Coefficient:
    """``<rational>[/pi^<k>]`` with /pi meaning /pi^1."""
    pi_power = 0
    if "/pi" in token:
        head, _, tail = token.partition("/pi")
        if tail.startswith("^"):
            pi_power = -int(tail[1:])
        elif tail == "":
            pi_power = -1
        else:
            raise ValueError(f"bad scale suffix {tail!r}")
        token = head
    coeff = Coefficient(re=_parse_rational(token))
    if coeff.is_zero():
        raise ValueError("a zero scale would replace the divergent bundle by zero")
    if pi_power:
        coeff = coeff.with_consts(pi=pi_power)
    return coeff


def _parse_combo(token: str) -> list[tuple[int, str]]:
    combo: list[tuple[int, str]] = []
    pos = 0
    for m in _COMBO_TOKEN.finditer(token):
        if m.start() != pos:
            raise ValueError(f"bad combo near {token[pos:]!r}")
        sign, name = m.groups()
        combo.append((-1 if sign == "-" else +1, name))
        pos = m.end()
    if pos != len(token) or not combo:
        raise ValueError(f"bad combo {token!r}")
    return combo


def parse_model(text: str) -> ModelSpec:
    """Parse and validate a model file; raises ModelFileError with every
    diagnostic found (each carrying a line number)."""
    diags = _Collector()
    dimension: int | None = None
    names: dict[str, tuple[str, int]] = {}  # name -> (kind, declaring line)
    declared: defaultdict[str, set[str]] = defaultdict(set)  # kind -> its names
    slots: list[SlotSpec] = []
    flavors: list[FlavorSpec] = []
    absorb: list[AbsorbDirective] = []
    absorb_lines: dict[str, int] = {}

    def declare(name: str, kind: str, line_no: int, raw: str) -> bool:
        """Enter name as kind; False, with a diagnostic, if the table refuses it."""
        if not _IDENT.match(name):
            diags.add("bad-name", line_no, f"{kind} name {name!r} is not an identifier", raw)
            return False
        if name in RESERVED_NAMES:
            diags.add("reserved-name", line_no, f"{name!r} is reserved by the engine", raw)
            return False
        if name not in names:
            names[name] = (kind, line_no)
            declared[kind].add(name)
            return True
        prior, prior_line = names[name]
        if prior == kind == "mass":
            return True
        if prior == kind:
            code, message = f"duplicate-{kind.replace(' ', '-')}", "already declared"
        else:
            code, message = "name-clash", f"already declared as a {prior}"
        diags.add(code, line_no, f"{kind} {name!r} {message} on line {prior_line}", raw)
        return False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "dim":
            if len(tokens) != 2 or not tokens[1].isdecimal():
                diags.add("syntax", line_no, "expected: dim <integer>", raw)
            elif int(tokens[1]) != 4:
                diags.add("unsupported-dimension", line_no, f"unsupported dimension {tokens[1]}", raw)
            else:
                dimension = 4

        elif head == "constant":
            if len(tokens) < 2:
                diags.add("syntax", line_no, "expected: constant <name> [real] [positive]", raw)
                continue
            if not declare(tokens[1], "constant", line_no, raw):
                continue
            for flag in tokens[2:]:
                if flag not in ("real", "positive"):
                    diags.add("syntax", line_no, f"unknown constant flag {flag!r}", raw)

        elif head == "slot":
            if len(tokens) == 3 and tokens[2] == "fundamental":
                spec = SlotSpec(tokens[1], None)
            elif len(tokens) == 4 and tokens[2] == "exact":
                spec = SlotSpec(tokens[1], tokens[3])
            else:
                diags.add("syntax", line_no, "expected: slot <name> exact <potential> | slot <name> fundamental", raw)
                continue
            if not declare(spec.name, "slot", line_no, raw):
                continue
            if spec.exact and not declare(spec.potential, "potential", line_no, raw):
                continue
            slots.append(spec)

        elif head == "flavor":
            expected = ("flavor", None, "mass", None, "chirality", None, "coeff", None, "combo", None)
            if len(tokens) != len(expected) or any(
                want is not None and got != want for want, got in zip(expected, tokens)
            ):
                diags.add(
                    "syntax",
                    line_no,
                    "expected: flavor <name> mass <sym> chirality +|- coeff <monomial> combo <slots>",
                    raw,
                )
                continue
            name, mass, chir_tok, coeff_tok, combo_tok = tokens[1], tokens[3], tokens[5], tokens[7], tokens[9]
            if not declare(name, "flavor", line_no, raw):
                continue
            if mass != "0" and not declare(mass, "mass", line_no, raw):
                continue
            if chir_tok not in ("+", "-"):
                diags.add("syntax", line_no, "chirality must be + or -", raw)
                continue
            try:
                coeff = parse_monomial(coeff_tok, declared["constant"])
            except ValueError as exc:
                diags.add("bad-monomial", line_no, str(exc), raw)
                continue
            try:
                combo = _parse_combo(combo_tok)
            except ValueError as exc:
                diags.add("bad-combo", line_no, str(exc), raw)
                continue
            missing = [s for _, s in combo if s not in declared["slot"]]
            if missing:
                diags.add("unknown-slot", line_no, f"combo references undeclared slot(s) {missing}", raw)
                continue
            flavors.append(
                FlavorSpec(
                    name=name,
                    mass=mass,
                    chirality=+1 if chir_tok == "+" else -1,
                    coeff=coeff,
                    combo=tuple(combo),
                )
            )

        elif head == "absorb":
            m = re.fullmatch(
                r"absorb\s+([A-Za-z_][A-Za-z0-9_]*)\^2\s+as\s+([A-Za-z_][A-Za-z0-9_]*)"
                r"(?:\s+scale\s+(\S+))?",
                line,
            )
            if not m:
                diags.add("syntax", line_no, "expected: absorb <constant>^2 as <name> [scale <rational>[/pi^<k>]]", raw)
                continue
            coupling, finite, scale_tok = m.groups()
            if coupling not in declared["constant"]:
                diags.add("unknown-constant", line_no, f"absorb references undeclared constant {coupling!r}", raw)
                continue
            if not declare(finite, "finite name", line_no, raw):
                continue
            if coupling in absorb_lines:
                diags.add(
                    "duplicate-absorb",
                    line_no,
                    f"constant {coupling!r} is already absorbed on line {absorb_lines[coupling]}",
                    raw,
                )
                continue
            scale = Coefficient.one()
            if scale_tok is not None:
                try:
                    scale = _parse_scale(scale_tok)
                except ValueError as exc:
                    diags.add("bad-scale", line_no, f"bad scale {scale_tok!r}: {exc}", raw)
                    continue
            absorb_lines[coupling] = line_no
            absorb.append(AbsorbDirective(coupling=coupling, finite_name=finite, scale=scale))

        else:
            diags.add("syntax", line_no, f"unknown directive {head!r}", raw)

    if dimension is None and not any(d.code == "unsupported-dimension" for d in diags.diagnostics):
        diags.add("missing-dim", 0, "model file must declare 'dim 4'")
    if diags.diagnostics:
        raise ModelFileError(diags.diagnostics)
    return ModelSpec(
        dimension=dimension or 4,
        slots=tuple(slots),
        flavors=tuple(flavors),
        absorb=tuple(absorb),
        constants=tuple(sorted(declared["constant"])),
    )
