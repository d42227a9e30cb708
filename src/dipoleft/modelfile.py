"""Line-oriented model-file parser with per-line diagnostics.

Directives:

    dim 4
    constant <name> [real] [positive]
    slot <name> exact <potential>
    slot <name> fundamental
    flavor <name> mass <sym> chirality +|- coeff <monomial> combo <signed-slot-sum>
    absorb <constant>^2 as <name> [scale <rational>[/pi^<k>]]

'#' starts a comment.  The model file, ``--set NAME=MONOMIAL`` and
``--theta <rational>pi`` share two tokens: a name (a letter or ``_``, then
letters, digits or ``_``) and a rational ``-?N[/N]``, N a run of ASCII
digits; decimals, exponents, ``+``, ``_`` and other digits are errors.  A
monomial is a ``*``-product of rationals and ``[-]name[^k][/N]`` factors.

Every declared name has one kind (constant, slot, potential, flavor, mass
or finite name) and one declaring line, and only a mass symbol may repeat
(across flavors); mass ``0`` is not a name.  A name that is not an
identifier is ``bad-name``, a reserved engine name ``reserved-name``, a
name declared again as the same kind ``duplicate-<kind>`` and as another
kind ``name-clash``, each citing the earlier line.  ``declare_name`` is
this rule for both readers: the structured reader (``render``) cites
``in slots[0]`` where a model file cites a line.  Constants must be
declared before use, and a constant has at most one absorb directive
(``duplicate-absorb``).  A malformed monomial or one over zero
(``e*alpha/0``) is ``bad-monomial``; a malformed scale, one over zero or
a zero scale (``0``, ``0/pi^2``), which would silently replace the
divergent bundle by zero, is ``bad-scale``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction

from .algebra import RESERVED_NAMES, Coefficient, _powmap, _Value
from .action import AbsorbDirective, FlavorSpec, ModelSpec, SlotSpec

# The two tokens of every input, and the patterns built from them.
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_DIGITS = "[0-9]+"
_INTEGER = "-?" + _DIGITS
_RATIONAL = f"(?P<num>{_INTEGER})(?:/(?P<den>{_DIGITS}))?"

NAME = re.compile(_NAME)
RATIONAL = re.compile(_RATIONAL)
_NATURAL = re.compile(_DIGITS)
_FACTOR = re.compile(
    rf"{_RATIONAL}|(?P<neg>-?)(?P<name>{_NAME})(?:\^(?P<power>{_INTEGER}))?(?:/(?P<div>{_DIGITS}))?"
)
_SCALE = re.compile(rf"{_RATIONAL}(?P<pi>/pi(?:\^(?P<k>{_INTEGER}))?)?")
_ABSORB = re.compile(rf"absorb\s+({_NAME})\^2\s+as\s+({_NAME})(?:\s+scale\s+(\S+))?")
_COMBO_TOKEN = re.compile(f"([+-]?)({_NAME})")
# Lines break as editors and ``grep -n`` count them, unlike ``str.splitlines``.
_LINE_BREAK = re.compile("\r\n?|\n")


class Diagnostic(_Value):
    __slots__ = ("code", "line", "message")

    def __str__(self) -> str:
        return f"line {self.line}: {self.code}: {self.message}"


class ModelFileError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics))


def _denominator(den: str, token: str) -> int:
    """The denominator's digits as an int; zero is a ValueError naming ``token``."""
    value = int(den)
    if not value:
        raise ValueError(f"zero denominator in {token!r}")
    return value


def _rational(num: str, den: str | None, token: str) -> Fraction:
    """``num/den`` from the digits a pattern matched (den None: 1); a zero
    denominator is a ValueError naming ``token``."""
    if den is None:
        return Fraction(int(num))
    return Fraction(int(num), _denominator(den, token))


def parse_rational(token: str) -> Fraction:
    """``-?N[/N]``; a ValueError if malformed or over zero."""
    m = RATIONAL.fullmatch(token)
    if not m:
        raise ValueError(f"bad rational {token!r}")
    return _rational(m["num"], m["den"], token)


def parse_monomial(token: str, declared: set[str]) -> Coefficient:
    """Parse a product of declared constants with integer powers and one
    rational prefactor, e.g. ``e*alpha/2`` or ``-1/8*e^2*pi^-1``.

    A ValueError names a malformed factor, an undeclared constant or a zero
    denominator (``1/0``, ``alpha/0``)."""
    num = den = 1  # the prefactor, one Fraction built at the end
    powers: list[tuple[str, int]] = []
    for piece in token.split("*"):
        piece = piece.strip()
        if not piece:
            raise ValueError("empty factor in monomial")
        m = _FACTOR.fullmatch(piece)
        if not m:
            raise ValueError(f"bad monomial factor {piece!r}")
        name = m["name"]
        if name is None:
            num *= int(m["num"])
            if m["den"] is not None:
                den *= _denominator(m["den"], piece)
            continue
        if name != "pi" and name not in declared:
            raise ValueError(f"undeclared constant {name!r}")
        powers.append((name, int(m["power"] or 1)))
        if m["neg"]:
            num = -num
        if m["div"] is not None:
            den *= _denominator(m["div"], piece)
    return Coefficient(re=Fraction(num, den), consts=_powmap(powers))


def _parse_scale(token: str) -> Coefficient:
    """``<rational>[/pi^<k>]`` with /pi meaning /pi^1."""
    m = _SCALE.fullmatch(token)
    if not m:
        raise ValueError("expected <rational>[/pi^<k>]")
    value = _rational(m["num"], m["den"], token)
    if not value:
        raise ValueError("a zero scale would replace the divergent bundle by zero")
    return Coefficient(re=value).with_consts(pi=-int(m["k"] or 1) if m["pi"] else 0)


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


def declare_name(names: dict, name: object, kind: str, place: str) -> tuple[str, str] | None:
    """Enter ``name`` as ``kind`` declared ``place`` (``on line 3``) into ``names``
    (name -> (kind, place)); the (code, message) refusing it, or None."""
    if not isinstance(name, str) or not NAME.fullmatch(name):
        return "bad-name", f"{kind} name {name!r} is not an identifier"
    if name in RESERVED_NAMES:
        return "reserved-name", f"{name!r} is reserved by the engine"
    if name not in names:
        names[name] = (kind, place)
        return None
    prior, prior_place = names[name]
    if prior == kind == "mass":
        return None
    if prior == kind:
        return f"duplicate-{kind.replace(' ', '-')}", f"{kind} {name!r} already declared {prior_place}"
    return "name-clash", f"{kind} {name!r} already declared as a {prior} {prior_place}"


def parse_model(text: str) -> ModelSpec:
    """Parse and validate a model file, less one leading byte-order mark;
    raises ModelFileError with every diagnostic found (each carrying a line number)."""
    diagnostics: list[Diagnostic] = []
    has_dim = False
    names: dict[str, tuple[str, str]] = {}  # name -> (kind, "on line <n>")
    declared: defaultdict[str, set[str]] = defaultdict(set)  # kind -> its names
    slots: list[SlotSpec] = []
    flavors: list[FlavorSpec] = []
    absorb: list[AbsorbDirective] = []
    absorb_lines: dict[str, int] = {}

    def add(code: str, message: str) -> None:
        """A diagnostic on the line being read."""
        diagnostics.append(Diagnostic(code, line_no, message))

    def declare(name: str, kind: str) -> bool:
        """Enter name as kind; False, with a diagnostic, if the table refuses it."""
        if refusal := declare_name(names, name, kind, f"on line {line_no}"):
            add(*refusal)
            return False
        declared[kind].add(name)
        return True

    for line_no, raw in enumerate(_LINE_BREAK.split(text.removeprefix("\ufeff")), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "dim":
            if len(tokens) != 2 or not _NATURAL.fullmatch(tokens[1]):
                add("syntax", "expected: dim <integer>")
            elif int(tokens[1]) != 4:
                add("unsupported-dimension", f"unsupported dimension {tokens[1]}")
            else:
                has_dim = True

        elif head == "constant":
            if len(tokens) < 2:
                add("syntax", "expected: constant <name> [real] [positive]")
                continue
            if not declare(tokens[1], "constant"):
                continue
            for flag in tokens[2:]:
                if flag not in ("real", "positive"):
                    add("syntax", f"unknown constant flag {flag!r}")

        elif head == "slot":
            if len(tokens) == 3 and tokens[2] == "fundamental":
                spec = SlotSpec(tokens[1], None)
            elif len(tokens) == 4 and tokens[2] == "exact":
                spec = SlotSpec(tokens[1], tokens[3])
            else:
                add("syntax", "expected: slot <name> exact <potential> | slot <name> fundamental")
                continue
            if not declare(spec.name, "slot"):
                continue
            if spec.exact and not declare(spec.potential, "potential"):
                continue
            slots.append(spec)

        elif head == "flavor":
            expected = ("flavor", None, "mass", None, "chirality", None, "coeff", None, "combo", None)
            if len(tokens) != len(expected) or any(
                want is not None and got != want for want, got in zip(expected, tokens)
            ):
                add("syntax", "expected: flavor <name> mass <sym> chirality +|- coeff <monomial> combo <slots>")
                continue
            name, mass, chir_tok, coeff_tok, combo_tok = tokens[1], tokens[3], tokens[5], tokens[7], tokens[9]
            if not declare(name, "flavor"):
                continue
            if mass != "0" and not declare(mass, "mass"):
                continue
            if chir_tok not in ("+", "-"):
                add("syntax", "chirality must be + or -")
                continue
            try:
                coeff = parse_monomial(coeff_tok, declared["constant"])
            except ValueError as exc:
                add("bad-monomial", str(exc))
                continue
            try:
                combo = _parse_combo(combo_tok)
            except ValueError as exc:
                add("bad-combo", str(exc))
                continue
            missing = [s for _, s in combo if s not in declared["slot"]]
            if missing:
                add("unknown-slot", f"combo references undeclared slot(s) {missing}")
                continue
            chirality = +1 if chir_tok == "+" else -1
            flavors.append(FlavorSpec(name, mass, chirality, coeff, tuple(combo)))

        elif head == "absorb":
            m = _ABSORB.fullmatch(line)
            if not m:
                add("syntax", "expected: absorb <constant>^2 as <name> [scale <rational>[/pi^<k>]]")
                continue
            coupling, finite, scale_tok = m.groups()
            if coupling not in declared["constant"]:
                add("unknown-constant", f"absorb references undeclared constant {coupling!r}")
                continue
            if not declare(finite, "finite name"):
                continue
            if coupling in absorb_lines:
                prior_line = absorb_lines[coupling]
                add("duplicate-absorb", f"constant {coupling!r} is already absorbed on line {prior_line}")
                continue
            scale = Coefficient.one()
            if scale_tok is not None:
                try:
                    scale = _parse_scale(scale_tok)
                except ValueError as exc:
                    add("bad-scale", f"bad scale {scale_tok!r}: {exc}")
                    continue
            absorb_lines[coupling] = line_no
            absorb.append(AbsorbDirective(coupling, finite, scale))

        else:
            add("syntax", f"unknown directive {head!r}")

    if not has_dim and not any(d.code == "unsupported-dimension" for d in diagnostics):
        diagnostics.append(Diagnostic("missing-dim", 0, "model file must declare 'dim 4'"))
    if diagnostics:
        raise ModelFileError(diagnostics)
    return ModelSpec(
        slots=tuple(slots),
        flavors=tuple(flavors),
        absorb=tuple(absorb),
        constants=tuple(sorted(declared["constant"])),
    )
