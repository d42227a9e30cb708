"""Plain-text, LaTeX and structured renderers for effective actions.

Rendering is deterministic; the structured form is versioned (schema 1)
and round-trips back into an EffectiveAction exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .action import ActionTerm, EffectiveAction, EPSILON_SECTOR, METRIC_SECTOR, SlotSpec
from .algebra import Coefficient

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


def _check_form(form: str) -> None:
    if form not in _FORMS:
        raise RenderError(f"unknown form {form!r}; expected one of {sorted(_FORMS)}")


def _display_coeff(term: ActionTerm, action: EffectiveAction, form: str) -> Coefficient:
    """Stored coefficients sit in the field-strength basis; each exact slot
    contributes an exact factor 2 when printed in potential form."""
    coeff = term.coeff
    if form == POTENTIAL:
        doubling = sum(1 for s in (term.slot_a, term.slot_b) if action.slot(s).exact)
        coeff = coeff.gaussian_scaled(Fraction(2**doubling))
    return coeff


def _gaussian_parts(coeff: Coefficient) -> tuple[Fraction, int]:
    if coeff.im == 0:
        return coeff.re, 0
    if coeff.re == 0:
        return coeff.im, 1
    raise RenderError("action coefficients must be purely real or purely imaginary")


def coefficient_text(coeff: Coefficient) -> str:
    value, i_power = _gaussian_parts(coeff)
    pieces = [f"({value})"]
    if i_power:
        pieces.append("i")
    consts = dict(coeff.consts)
    pi_power = consts.pop("pi", 0)
    for name in sorted(consts):
        exp = consts[name]
        pieces.append(name if exp == 1 else f"{name}^{exp}")
    if pi_power:
        pieces.append(f"pi^{pi_power}")
    for atom, exp in coeff.logs:
        pieces.append(atom if exp == 1 else f"{atom}^{exp}")
    if coeff.eps_power:
        pieces.append(f"eps^{coeff.eps_power}")
    return " * ".join(pieces)


def _slot_display(slot: SlotSpec, form: str) -> str:
    if form == POTENTIAL and slot.exact:
        return f"d{slot.potential}"
    return slot.name


def render_term_text(term: ActionTerm, action: EffectiveAction, form: str = FIELD_STRENGTH) -> str:
    _check_form(form)
    coeff = coefficient_text(_display_coeff(term, action, form))
    a = _slot_display(action.slot(term.slot_a), form)
    b = _slot_display(action.slot(term.slot_b), form)
    i1, i2, i3, i4 = _INDEX_NAMES
    if term.structure == EPSILON_SECTOR:
        tensor = f"eps[{i1} {i2} {i3} {i4}] {a}[{i1} {i2}] {b}[{i3} {i4}]"
    else:
        tensor = f"eta[{i1} {i3}] eta[{i2} {i4}] {a}[{i1} {i2}] {b}[{i3} {i4}]"
    return f"{coeff} * {tensor}"


def render_text(action: EffectiveAction, form: str = FIELD_STRENGTH) -> str:
    _check_form(form)
    return "\n".join(render_term_text(t, action, form) for t in action.terms)


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------


def _latex_const(name: str) -> str:
    return _LATEX_CONST.get(name, name)


def _latex_coefficient(coeff: Coefficient) -> str:
    value, i_power = _gaussian_parts(coeff)
    consts = dict(coeff.consts)
    pi_power = consts.pop("pi", 0)
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
    _check_form(form)
    coeff = _latex_coefficient(_display_coeff(term, action, form))
    idx = [_LATEX_INDEX[n] for n in _INDEX_NAMES]
    eps = r"\epsilon^{%s}" % "".join(idx)
    parts = []
    for slot_name, pair in ((term.slot_a, idx[:2]), (term.slot_b, idx[2:])):
        slot = action.slot(slot_name)
        if form == POTENTIAL and slot.exact:
            parts.append(r"\partial_{%s} %s_{%s}" % (pair[0], slot.potential, pair[1]))
        else:
            parts.append(r"%s_{%s%s}" % (slot.name, pair[0], pair[1]))
    if term.structure == EPSILON_SECTOR:
        tensor = f"{eps} {parts[0]} {parts[1]}"
    else:
        etas = r"\eta^{%s%s} \eta^{%s%s}" % (idx[0], idx[2], idx[1], idx[3])
        tensor = f"{etas} {parts[0]} {parts[1]}"
    return f"{coeff}\\, {tensor}"


def render_latex(action: EffectiveAction, form: str = FIELD_STRENGTH) -> str:
    body = " + ".join(render_term_latex(t, action, form) for t in action.terms)
    if not body:
        return ""
    return f"\\[ S = \\int d^4x\\; {body} \\]"


# ---------------------------------------------------------------------------
# Structured (schema 1)
# ---------------------------------------------------------------------------


def coefficient_structured(coeff: Coefficient) -> dict[str, Any]:
    if coeff.logs or coeff.eps_power:
        raise RenderError("structured coefficients cannot carry log atoms or eps poles")
    value, i_power = _gaussian_parts(coeff)
    consts = dict(coeff.consts)
    pi_power = consts.pop("pi", 0)
    if "d" in consts:
        raise RenderError("structured coefficients cannot carry the symbolic dimension")
    return {
        "num": value.numerator,
        "den": value.denominator,
        "i_power": i_power,
        "pi_power": pi_power,
        "constants": {name: exp for name, exp in sorted(consts.items())},
    }


def _coefficient_from_structured(obj: dict[str, Any]) -> Coefficient:
    if int(obj["den"]) == 0:
        raise RenderError("coefficient has denominator 0")
    value = Fraction(int(obj["num"]), int(obj["den"]))
    coeff = Coefficient(im=value) if obj.get("i_power", 0) else Coefficient(re=value)
    powers = dict(obj.get("constants", {}))
    if obj.get("pi_power", 0):
        powers["pi"] = obj["pi_power"]
    return coeff.with_consts(**{k: int(v) for k, v in powers.items()})


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
            "tensor": t.structure,
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


def structured_to_action(obj: dict[str, Any]) -> tuple[EffectiveAction, str]:
    """Rebuild an action from its structured form; RenderError for an entry
    that lacks a key, a zero denominator, a repeated slot name, an unknown
    tensor, or term slots that are not two names listed in ``slots``."""
    if obj.get("schema") != 1:
        raise RenderError(f"unsupported schema {obj.get('schema')!r}")
    if any("name" not in s for s in obj["slots"]):
        raise RenderError("every slot entry needs a 'name'")
    slots = tuple(
        SlotSpec(name=s["name"], potential=s.get("potential"))
        for s in obj["slots"]
    )
    action = EffectiveAction(terms=(), slots=slots)
    declared = {s.name for s in slots}
    if len(declared) != len(slots):
        raise RenderError("two slot entries share a name")
    terms = []
    form = obj.get("form", FIELD_STRENGTH)
    for entry in obj["terms"]:
        missing = {"coefficient", "tensor", "slots"} - entry.keys()
        if missing:
            raise RenderError(f"term entry lacks {sorted(missing)}")
        coeff = _coefficient_from_structured(entry["coefficient"])
        tensor = entry["tensor"]
        if tensor not in (EPSILON_SECTOR, METRIC_SECTOR):
            raise RenderError(
                f"unknown tensor {tensor!r}; expected {EPSILON_SECTOR!r} or {METRIC_SECTOR!r}"
            )
        if not isinstance(entry["slots"], list) or len(entry["slots"]) != 2:
            raise RenderError(f"term slots {entry['slots']!r} do not name exactly two slots")
        a, b = entry["slots"]
        undeclared = [s for s in (a, b) if s not in declared]
        if undeclared:
            raise RenderError(f"term slot(s) {undeclared} not listed in slots")
        entry_form = entry.get("form", form)
        _check_form(entry_form)
        if entry_form == POTENTIAL:
            doubling = sum(1 for s in (a, b) if action.slot(s).exact)
            coeff = coeff.gaussian_scaled(Fraction(1, 2**doubling))
        terms.append(ActionTerm(coeff, tensor, a, b))
    return EffectiveAction(terms=tuple(terms), slots=slots), form


def render_structured_json(action: EffectiveAction, form: str = FIELD_STRENGTH) -> str:
    return json.dumps(render_structured(action, form), indent=2, sort_keys=True)
