"""Spans around the calls into each dipoleft module, recorded from outside.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper, in the defining module and in every dipoleft module that imported
the name (``action`` and ``dirac`` import ``canonicalize``, ``trace``,
``expand_vertex``, ``contract`` and ``evaluate_cutoff`` by name).
``Expression.__mul__`` is wrapped on the class.  Spans (name, start, end,
parent, operation id) are kept in flat lists in memory and written out by
``write`` when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _terms(expr) -> int:
    return len(expr.terms)


def _word_shape(args, out) -> tuple:
    """(gammas, g5 count mod 2, terms out) of one trace_word call."""
    word = args[0]
    g5 = sum(1 for letter in word if letter == ("g5",))
    return (len(word) - g5, g5 % 2, len(out.terms))


# (module, attribute, span name, extra recorded per call from (args, result))
TARGETS = (
    ("dipoleft.modelfile", "parse_model", "modelfile.parse_model", None),
    ("dipoleft.action", "assemble", "action.assemble", lambda a, out: len(out.terms)),
    ("dipoleft.action", "polarization", "action.polarization", None),
    ("dipoleft.action", "renormalize", "action.renormalize", None),
    ("dipoleft.action", "eliminate_bf", "action.eliminate_bf", None),
    ("dipoleft.dirac", "expand_vertex", "dirac.expand_vertex", None),
    ("dipoleft.dirac", "trace", "dirac.trace", None),
    ("dipoleft.dirac", "trace_word", "dirac.trace_word", _word_shape),
    ("dipoleft.loops", "evaluate_cutoff", "loops.evaluate_cutoff", None),
    ("dipoleft.algebra", "canonicalize", "algebra.canonicalize",
     lambda a, out: (_terms(a[0]), _terms(out))),
    ("dipoleft.algebra", "contract", "algebra.contract", None),
    ("dipoleft.algebra", "substitute_dimension", "algebra.substitute_dimension", None),
    ("dipoleft.algebra", "Expression.__mul__", "algebra.product", lambda a, out: _terms(out)),
    ("dipoleft.render", "render_text", "render.render_text", None),
    ("dipoleft.render", "render_structured", "render.render_structured", None),
    ("dipoleft.render", "structured_to_action", "render.structured_to_action", None),
    ("dipoleft.oracle", "evaluate_expression_numeric", "oracle.evaluate_expression_numeric", None),
    ("dipoleft.oracle", "numeric_trace", "oracle.numeric_trace", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.extra: dict[int, object] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extra):
        nid = len(self.names)
        self.names.append(name)
        stack, start, end = self._stack, self.start, self.end
        parent, name_of, op, extras = self.parent, self.name_of, self.op, self.extra

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if extra is not None:
                extras[idx] = extra(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dipoleft" or n.startswith("dipoleft.")]
        for module_name, attr, name, extra in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[method]
                self._restore.append((cls, method, orig))
                setattr(cls, method, self._wrap(name, orig, extra))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, extra)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[idx] - self.start[idx]
        return own

    def write(self, path) -> None:
        """One span per line: name, start, end, parent, operation id."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for idx, nid in enumerate(self.name_of):
                fh.write(
                    f"{self.names[nid]}\t{self.start[idx]:.9f}\t{self.end[idx]:.9f}\t"
                    f"{self.parent[idx]}\t{self.op[idx]}\n"
                )
