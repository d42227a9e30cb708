"""Plain-text, LaTeX and structured renderers for effective actions.

Every action term is ``eps X_a X_b``, the one tensor rendered.  Rendering
is deterministic; the structured form is versioned (schema 1) and
round-trips back into an EffectiveAction exactly.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Any

from .action import ActionTerm, EffectiveAction, SlotSpec, normal_form
from .algebra import Coefficient
from .loops import bubble_mass
from .modelfile import declare_name

FIELD_STRENGTH = "field-strength"
POTENTIAL = "potential"
_FORMS = {FIELD_STRENGTH, POTENTIAL}

_INDEX_NAMES = ("mu", "nu", "rho", "sigma")
_LATEX_INDEX = {"mu": r"\mu", "nu": r"\nu", "rho": r"\rho", "sigma": r"\sigma"}
_LATEX_CONST = {
    "alpha": r"\alpha",
    "beta": r"\beta",
    "lambda": r"\lambda",
    "thetaF": r"\theta_{F}",
    "LambdaF": r"\Lambda_{F}",
    "CF": r"C_{F}",
    "gammaE": r"\gamma_{E}",
    "Lambda": r"\Lambda",
    "I0": r"I(0)",
    "mu": r"\mu",
}


class RenderError(ValueError):
    pass


def _check_form(form: Any) -> None:
    if not isinstance(form, str) or form not in _FORMS:
        raise RenderError(f"unknown form {form!r}; expected one of {sorted(_FORMS)}")


def _display_coeff(term: ActionTerm, action: EffectiveAction, form: str) -> Coefficient:
    """Stored coefficients sit in the field-strength basis; each exact slot
    contributes an exact factor 2 when printed in potential form.  A number
    with more digits than Python converts to a string
    (``sys.get_int_max_str_digits``) is a RenderError naming the term."""
    coeff = term.coeff
    if form == POTENTIAL:
        doubling = sum(1 for s in (term.slot_a, term.slot_b) if action.slot(s).exact)
        coeff = coeff.gaussian_scaled(Fraction(2**doubling))
    try:
        str(coeff.re), str(coeff.im)
    except ValueError:
        monomial = " * ".join(_monomial_pieces(coeff, *_consts(coeff))) or "1"
        raise RenderError(
            f"the coefficient of the eps {term.slot_a} {term.slot_b} term in {monomial} "
            f"is too large to print: it has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return coeff


def _parts(coeff: Coefficient, fmt: str = "") -> tuple[Fraction, int, dict[str, int], int]:
    """The value, power of i (0 or 1), other constants by name and power of
    pi of a purely real or purely imaginary coefficient; a ``fmt`` given
    cannot print a log atom or eps pole either."""
    if fmt and (coeff.logs or coeff.eps_power):
        raise RenderError(f"{fmt} coefficients cannot carry log atoms or eps poles")
    if coeff.re and coeff.im:
        raise RenderError("action coefficients must be purely real or purely imaginary")
    return (coeff.im, 1, *_consts(coeff)) if coeff.im else (coeff.re, 0, *_consts(coeff))


def _consts(coeff: Coefficient) -> tuple[dict[str, int], int]:
    """The constants of coeff other than pi by name, and its power of pi."""
    consts = dict(coeff.consts)
    return consts, consts.pop("pi", 0)


def coefficient_text(coeff: Coefficient) -> str:
    value, i_power, consts, pi_power = _parts(coeff)
    pieces = [f"({value})"]
    if i_power:
        pieces.append("i")
    return " * ".join(pieces + _monomial_pieces(coeff, consts, pi_power))


def _monomial_pieces(coeff: Coefficient, consts: dict[str, int], pi_power: int) -> list[str]:
    """The given constants and power of pi, then the log atoms and eps power
    of coeff, as text factors."""
    pieces = []
    for name in sorted(consts):
        exp = consts[name]
        pieces.append(name if exp == 1 else f"{name}^{exp}")
    if pi_power:
        pieces.append(f"pi^{pi_power}")
    for atom, exp in coeff.logs:
        pieces.append(atom if exp == 1 else f"{atom}^{exp}")
    if coeff.eps_power:
        pieces.append(f"eps^{coeff.eps_power}")
    return pieces


def _slot_display(slot: SlotSpec, form: str) -> str:
    if form == POTENTIAL and slot.exact:
        return f"d{slot.potential}"
    return slot.name


def render_term_text(term: ActionTerm, action: EffectiveAction, form: str = FIELD_STRENGTH) -> str:
    coeff = coefficient_text(_display_coeff(term, action, form))
    a = _slot_display(action.slot(term.slot_a), form)
    b = _slot_display(action.slot(term.slot_b), form)
    i1, i2, i3, i4 = _INDEX_NAMES
    return f"{coeff} * eps[{i1} {i2} {i3} {i4}] {a}[{i1} {i2}] {b}[{i3} {i4}]"


def render_text(action: EffectiveAction, form: str = FIELD_STRENGTH) -> str:
    _check_form(form)
    return "\n".join(render_term_text(t, action, form) for t in action.terms)


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------


def _latex_name(name: str) -> str:
    """A declared name in LaTeX, each ``_`` printed, not a subscript."""
    return name.replace("_", r"\_")


def _latex_const(name: str) -> str:
    """A constant's LaTeX; the bubble I0[M] of a mass other than m is I_{M}(0)."""
    if name not in _LATEX_CONST and (mass := bubble_mass(name)):
        return r"I_{%s}(0)" % _latex_const(mass)
    return _LATEX_CONST.get(name) or _latex_name(name)


def _latex_coefficient(coeff: Coefficient) -> str:
    value, i_power, consts, pi_power = _parts(coeff, "LaTeX")
    numer: list[str] = []
    denom: list[str] = []
    sign = "-" if value < 0 else ""
    value = abs(value)
    if value.numerator != 1 or not consts:
        numer.append(str(value.numerator))
    if i_power:
        numer.append("i")
    for name in sorted(consts):
        exp = consts[name]
        body = _latex_const(name)
        target = numer if exp > 0 else denom
        e = abs(exp)
        target.append(body if e == 1 else f"{body}^{{{e}}}")
    if value.denominator != 1:
        denom.insert(0, str(value.denominator))
    if pi_power:
        body = r"\pi" if abs(pi_power) == 1 else r"\pi^{%d}" % abs(pi_power)
        (numer if pi_power > 0 else denom).append(body)
    top = r"\,".join(numer) if numer else "1"
    if denom:
        bottom = r"\,".join(denom)
        return f"{sign}\\frac{{{top}}}{{{bottom}}}"
    return sign + top


def render_term_latex(term: ActionTerm, action: EffectiveAction, form: str = FIELD_STRENGTH) -> str:
    coeff = _latex_coefficient(_display_coeff(term, action, form))
    idx = [_LATEX_INDEX[n] for n in _INDEX_NAMES]
    eps = r"\epsilon^{%s}" % "".join(idx)
    parts = []
    for slot_name, pair in ((term.slot_a, idx[:2]), (term.slot_b, idx[2:])):
        slot = action.slot(slot_name)
        if form == POTENTIAL and slot.exact:
            potential = _latex_name(slot.potential)
            parts.append(r"\partial_{%s} %s_{%s}" % (pair[0], potential, pair[1]))
        else:
            parts.append(r"%s_{%s%s}" % (_latex_name(slot.name), pair[0], pair[1]))
    return f"{coeff}\\, {eps} {parts[0]} {parts[1]}"


def render_latex(action: EffectiveAction, form: str = FIELD_STRENGTH) -> str:
    _check_form(form)
    # no term holds " + ", so each " + -" joins a negative later term
    body = " + ".join(render_term_latex(t, action, form) for t in action.terms).replace(" + -", " - ")
    if not body:
        return ""
    return f"\\[ S = \\int d^4x\\; {body} \\]"


# ---------------------------------------------------------------------------
# Structured (schema 1)
# ---------------------------------------------------------------------------


def coefficient_structured(coeff: Coefficient) -> dict[str, Any]:
    value, i_power, consts, pi_power = _parts(coeff, "structured")
    if "d" in consts:
        raise RenderError("structured coefficients cannot carry the symbolic dimension")
    return {
        "num": value.numerator,
        "den": value.denominator,
        "i_power": i_power,
        "pi_power": pi_power,
        "constants": {name: exp for name, exp in sorted(consts.items())},
    }


def _structured_int(value: Any, what: str) -> int:
    if type(value) is not int:
        raise RenderError(f"coefficient {what} {value!r} is not an integer")
    return value


def _declare(table: dict, name: Any, kind: str, place: str) -> None:
    """``modelfile.declare_name``, the model file's name rule; its refusal is a RenderError."""
    if refusal := declare_name(table, name, kind, place):
        raise RenderError(refusal[1])


def _coefficient_from_structured(obj: dict[str, Any], table: dict, place: str) -> Coefficient:
    """Inverse of ``coefficient_structured``; RenderError for a missing
    num/den, a non-integer number or exponent, an i_power other than 0 or 1,
    or a constant the name rule refuses.  Each constant (for a bubble
    I0[mass], its mass) is declared ``place`` by the first term using it."""
    if not isinstance(obj, dict) or {"num", "den"} - obj.keys():
        raise RenderError(f"coefficient {obj!r} needs integer 'num' and 'den'")
    num = _structured_int(obj["num"], "num")
    den = _structured_int(obj["den"], "den")
    if den == 0:
        raise RenderError("coefficient has denominator 0")
    i_power = _structured_int(obj.get("i_power", 0), "i_power")
    if i_power not in (0, 1):
        raise RenderError(f"coefficient i_power {i_power!r} is not 0 or 1")
    constants = obj.get("constants", {})
    if not isinstance(constants, dict):
        raise RenderError(f"coefficient constants {constants!r} is not an object")
    for name in constants:
        mass = bubble_mass(name) if isinstance(name, str) else None
        symbol = name if mass is None else mass
        if table.get(symbol, ("",))[0] != "constant":
            _declare(table, symbol, "constant", place)
    powers = {
        name: _structured_int(exp, f"exponent of {name!r}") for name, exp in constants.items()
    }
    pi_power = _structured_int(obj.get("pi_power", 0), "pi_power")
    if pi_power:
        powers["pi"] = pi_power
    value = Fraction(num, den)
    coeff = Coefficient(im=value) if i_power else Coefficient(re=value)
    return coeff.with_consts(**powers)


def render_structured(action: EffectiveAction, form: str = FIELD_STRENGTH) -> dict[str, Any]:
    _check_form(form)
    slots = [
        {"name": s.name, "kind": "exact" if s.exact else "fundamental"}
        | ({"potential": s.potential} if s.exact else {})
        for s in action.slots
    ]
    terms = [
        {
            "coefficient": coefficient_structured(_display_coeff(t, action, form)),
            "tensor": ActionTerm.structure,
            "slots": [t.slot_a, t.slot_b],
            "form": form,
        }
        for t in action.terms
    ]
    return {
        "schema": 1,
        "form": form,
        "divergent": action.is_divergent(),
        "slots": slots,
        "terms": terms,
    }


def _slot_from_structured(entry: dict[str, Any], table: dict, place: str) -> SlotSpec:
    """A ``name`` and an exact slot's potential, each declared ``place``;
    ``kind`` "exact" with a potential or "fundamental" without one."""
    name = entry.get("name")
    _declare(table, name, "slot", place)
    kind, potential = entry.get("kind"), entry.get("potential")
    if kind == "fundamental" and potential is None:
        return SlotSpec(name)
    if kind != "exact" or potential is None:
        raise RenderError(f"slot {name!r} of kind {kind!r} with potential {potential!r}")
    _declare(table, potential, "potential", place)
    return SlotSpec(name, potential)


def structured_to_action(obj: dict[str, Any]) -> tuple[EffectiveAction, str]:
    """Rebuild an action from its structured form; RenderError for a
    payload that is not an object, ``slots`` or ``terms`` that are not
    lists of objects, an entry that lacks a key, a malformed slot entry
    (``_slot_from_structured``) or coefficient, a slot name, potential or
    constant that the model file's name rule refuses, a tensor other than
    ``"epsilon"``, an unknown form, or term slots that are not two names
    listed in ``slots``.  The terms come back in the action normal form
    (``normal_form``)."""
    if not isinstance(obj, dict):
        raise RenderError(f"structured action must be an object, got {obj!r}")
    schema = obj.get("schema")
    if type(schema) is not int or schema != 1:  # True and 1.0 compare equal to 1
        raise RenderError(f"unsupported schema {schema!r}")
    for key in ("slots", "terms"):
        entries = obj.get(key)
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise RenderError(f"{key!r} must be a list of objects, got {entries!r}")
    table: dict[str, tuple[str, str]] = {}  # name -> (kind, "in slots[<i>]" or "in terms[<i>]")
    slots = tuple(_slot_from_structured(s, table, f"in slots[{i}]") for i, s in enumerate(obj["slots"]))
    declared = {s.name: s.exact for s in slots}
    form = obj.get("form", FIELD_STRENGTH)
    _check_form(form)
    terms = []
    for i, entry in enumerate(obj["terms"]):
        missing = {"coefficient", "tensor", "slots"} - entry.keys()
        if missing:
            raise RenderError(f"term entry lacks {sorted(missing)}")
        coeff = _coefficient_from_structured(entry["coefficient"], table, f"in terms[{i}]")
        if entry["tensor"] != ActionTerm.structure:
            raise RenderError(f"unknown tensor {entry['tensor']!r}; every term is 'epsilon'")
        names = entry["slots"]
        if not isinstance(names, list) or len(names) != 2 or not all(
            isinstance(n, str) for n in names
        ):
            raise RenderError(f"term slots {names!r} do not name exactly two slots")
        a, b = names
        undeclared = [s for s in (a, b) if s not in declared]
        if undeclared:
            raise RenderError(f"term slot(s) {undeclared} not listed in slots")
        entry_form = entry.get("form", form)
        _check_form(entry_form)
        if entry_form == POTENTIAL:
            coeff = coeff.gaussian_scaled(Fraction(1, 2 ** (declared[a] + declared[b])))
        terms.append(ActionTerm(coeff, a, b))
    return normal_form(terms, slots), form


def render_structured_json(action: EffectiveAction, form: str = FIELD_STRENGTH) -> str:
    import json  # only ``--format structured`` loads it
    return json.dumps(render_structured(action, form), indent=2, sort_keys=True)
