"""Command-line interface.

Exit codes: 0 success, 1 diagnostics (parse/model/domain errors),
2 renormalization left divergent terms, 3 a failed selftest check.
Every write raises on a closed stream, argparse's own output
(``--version``, ``--help``, a usage error) included, and ``main``'s one
handler makes a closed stdout (``dipoleft selftest | head -1``) or stderr
a silent exit 1; ``reduce-bf``'s note follows its action.  Any other
exception is an engine bug and propagates.  A usage error also exits 2,
with argparse's ``usage:`` and ``error:`` lines on stderr; called
in-process, ``main`` raises it as ``SystemExit(2)`` rather than
returning 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .action import (
    ActionTerm,
    DomainError,
    EffectiveAction,
    NotReducibleError,
    RenormalizationIncompleteError,
    assemble,
    check_quantization,
    eliminate_bf,
    normal_form,
    renormalize,
)
from .dirac import ModelError
from .modelfile import ModelFileError, parse_model, parse_monomial, parse_rational
from .render import (
    FIELD_STRENGTH,
    POTENTIAL,
    RenderError,
    render_latex,
    render_structured_json,
    render_text,
)

_FORM_CHOICES = {"fs": FIELD_STRENGTH, "potential": POTENTIAL}
_RENDERERS = {"text": render_text, "latex": render_latex, "structured": render_structured_json}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose own output raises on a closed stream, as
    every other write does, where argparse ignores the failure."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built on first use and shared by every later
    ``main`` call in the process; it holds no per-call state.  Its
    subparsers are ``_Parser`` too."""
    parser = _Parser(
        prog="dipoleft",
        description="One-loop effective actions for dipole-coupled neutral fermions",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--form", choices=sorted(_FORM_CHOICES), default="fs")
        p.add_argument("--format", choices=list(_RENDERERS), default="text")
        p.add_argument(
            "--set",
            dest="assignments",
            action="append",
            default=None,
            metavar="NAME=MONOMIAL",
            help="substitute a finite constant, e.g. CF=-1/8*e^2*pi^-1",
        )

    p_compute = sub.add_parser("compute", help="assemble and renormalize a model file")
    p_compute.add_argument("file")
    p_compute.add_argument(
        "--keep-divergences",
        action="store_true",
        help="skip renormalization and print symbolic divergences",
    )
    add_output_flags(p_compute)

    p_reduce = sub.add_parser("reduce-bf", help="compute, then integrate out the multiplier 2-form")
    p_reduce.add_argument("file")
    add_output_flags(p_reduce)

    p_check = sub.add_parser("check-quantization", help="classify time-reversal behavior")
    p_check.add_argument(
        "--theta",
        required=True,
        metavar="<q>pi",
        help="e.g. 1pi, 1/3pi; give a negative value as --theta=-2pi",
    )
    p_check.add_argument("--nf", required=True, type=int, help="odd positive flavor number")

    p_self = sub.add_parser("selftest", help="run the numeric-oracle suites and exact scheme checks")
    p_self.add_argument("--seed", type=int, default=42)
    p_self.add_argument("--count", type=int, default=500, help="random equivalence checks to run (positive)")
    return parser


def _emit(action: EffectiveAction, args: argparse.Namespace) -> None:
    text = _RENDERERS[args.format](action, _FORM_CHOICES[args.form])
    if text:
        print(text)


def _apply_assignments(action: EffectiveAction, args, model) -> EffectiveAction:
    """Substitute each ``--set`` value, then return the action normal form.

    Terms a substitution makes zero are dropped and terms it makes alike
    merge, as in every other stage.
    """
    if not args.assignments:
        return action
    declared = set(model.constants)
    declared |= {d.finite_name for d in model.absorb}
    declared |= {f.mass for f in model.flavors} - {"0"}
    terms, seen = list(action.terms), set()
    for item in args.assignments:
        name, _, value_tok = item.partition("=")
        if not value_tok:
            raise ModelError(f"bad --set argument {item!r}; expected NAME=MONOMIAL")
        if name not in declared:
            raise ModelError(f"--set {name!r} names no declared constant, finite name or mass")
        if name in seen:
            raise ModelError(f"--set {name!r} is given more than once; set each name once")
        seen.add(name)
        try:
            value = parse_monomial(value_tok, declared)
        except ValueError as exc:
            raise ModelError(str(exc)) from None
        if value.is_zero() and any(t.coeff.const_power(name) < 0 for t in terms):
            raise ModelError(
                f"--set {name}=0 divides by zero: the action carries {name!r} to a negative power"
            )
        terms = [
            ActionTerm(t.coeff.substitute_const(name, value), t.slot_a, t.slot_b) for t in terms
        ]
    return normal_form(terms, action.slots)


def _run_compute(args: argparse.Namespace, reduce_multiplier: bool) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        model = parse_model(handle.read())
    action = assemble(model)
    if not getattr(args, "keep_divergences", False):
        action = renormalize(action, model.absorb)
    action = _apply_assignments(action, args, model)
    action, reduced = eliminate_bf(action) if reduce_multiplier else (action, True)
    _emit(action, args)
    if not reduced:
        multipliers = [s.name for s in action.slots if not s.exact]
        reason = (
            f"multiplier slot {multipliers[0]!r} couples to nothing"
            if multipliers
            else "no fundamental 2-form slot"
        )
        sys.stdout.flush()  # the action precedes the note; a closed stdout fails before it
        print(f"note: {reason}; action returned unchanged", file=sys.stderr)
    return 0


def _run_check(args: argparse.Namespace) -> int:
    theta = args.theta.strip()
    try:
        theta_over_pi = parse_rational(theta[:-2] if theta.endswith("pi") else "")
    except ValueError:
        raise DomainError(
            f"bad --theta {args.theta!r}; expected a rational with a nonzero denominator "
            "followed by 'pi'"
        ) from None
    result = check_quantization(theta_over_pi, args.nf)
    print(f"theta = {result.theta_over_pi} pi, Nf = {result.nf}")
    print(f"topological charge quantized in units of Nf^2 = {result.charge_multiplier}")
    print(f"classification: {result.classification}")
    return 0


def _run_selftest(args: argparse.Namespace) -> int:
    if args.count <= 0:
        raise DomainError(f"--count must be a positive integer, got {args.count}")
    if args.seed < 0:
        raise DomainError(f"--seed must be a non-negative integer, got {args.seed}")
    from . import selftest  # only this command loads the checks

    failed = False
    for passed, line in selftest.checks(args.seed, args.count):
        failed |= not passed
        print(f"{'ok' if passed else 'FAIL'}: {line}")
    print("selftest: " + ("fail" if failed else "pass"))
    return 3 if failed else 0


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command; a diagnostic goes to stderr, and its exit code is returned."""
    try:
        if args.command == "compute":
            return _run_compute(args, reduce_multiplier=False)
        if args.command == "reduce-bf":
            return _run_compute(args, reduce_multiplier=True)
        if args.command == "check-quantization":
            return _run_check(args)
        return _run_selftest(args)
    except BrokenPipeError:
        raise  # an OSError, but a closed stream is not a diagnostic
    except ModelFileError as exc:
        for diag in exc.diagnostics:
            print(f"{getattr(args, 'file', '<input>')}:{diag}", file=sys.stderr)
        return 1
    except RenormalizationIncompleteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, NotReducibleError, DomainError, RenderError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    """Run one command; every call in a process shares ``_build_parser()``."""
    try:
        code = _run(_build_parser().parse_args(argv))
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:
        # A reader of stdout or stderr has gone.  Flush stdout first, so what it holds
        # precedes a failed stderr write, and point each stream still holding what it
        # failed to write at devnull, so the shutdown flush cannot fail; print nothing.
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
