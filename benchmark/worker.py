"""One fresh interpreter that does a workload's work; started by run.py.

    python3 benchmark/worker.py --root . --workload model-sweep --seed 1 \
        --seconds 30 --mode measure

It imports dipoleft from ``<root>/src`` (on ``cli-cold`` only its cold
child processes do), makes its inputs from the seed, runs one warm-up
operation and prints ``ready``: run.py times set-up from process start to
that line.  Mode ``setup`` stops there.  Mode ``measure`` then makes whole
passes over a fixed set of rounds in a closed loop, one operation at a
time, as many as fit in ``--seconds`` (at least two), checks every output
outside the timed region, and prints one JSON line with the end-to-end
metrics.  Mode ``trace`` runs rounds plainly and
under the tracer by turns and prints the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from itertools import chain
from pathlib import Path
from time import perf_counter

import inputs
from check import CheckError, check_cli, check_model, check_word
from procs import child_env, reference_process, run_child

# Distinct rounds of inputs per measured run, and the tail percentile: the
# highest with at least ten operations beyond it: model-sweep 2 x 20
# models, p75; trace-oracle 8 x 64 words, p98.  cli-cold has 2 x 5 calls,
# too few for a tail; its p90 is the slowest command, reduce-bf.
DISTINCT_ROUNDS = {"cli-cold": 2, "model-sweep": 2, "trace-oracle": 8}
TAIL_PERCENTILE = {"cli-cold": 90, "model-sweep": 75, "trace-oracle": 98}
# Passes over those rounds: as many as fit in --seconds, at least MIN_PASSES.
MIN_PASSES = 2
# The reference loop's length, about 2 ms; it runs between operations.
REFERENCE_ITERATIONS = 300
COMPUTE_KINDS = ("compute", "compute-potential", "compute-structured")
CHILD_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# Workloads: each has warmup(), op(item) -> result, check(item, result),
# kind(item) and reference() -> seconds; op is the timed part.
# ---------------------------------------------------------------------------


def reference_loop() -> int:
    """Fixed pure-Python work, about 2 ms, that uses nothing of dipoleft.

    Small dicts, tuples and a keyed sort: allocation like the engine's,
    which slows with the host more than plain arithmetic does.
    """
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        table = {("x", i % 7, k): (k, i) for k in range(8)}
        ranked = sorted(table.items(), key=lambda kv: (kv[1][0] * 31 + i) % 11)
        total += len(tuple(x for x in ranked if x[1][0] % 2))
    return total


def loop_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


class CliCold:
    """Fresh ``python -m dipoleft.cli`` processes on the bundled fixtures.

    They run in the worker's directory, the checkout's root.
    """

    def __init__(self) -> None:
        self.env = child_env(Path.cwd())
        self.rss_kib: list[int] = []

    def kind(self, call: inputs.CliCall) -> str:
        return call.kind

    def op(self, call: inputs.CliCall):
        argv = [sys.executable, "-m", "dipoleft.cli", *call.argv]
        done = run_child(argv, None, self.env, CHILD_TIMEOUT_S)
        self.rss_kib.append(done.peak_rss_kib)
        if done.code != 0:
            raise RuntimeError(f"exit {done.code}: {done.err.strip()}")
        return done.code, done.out, done.err

    def check(self, call: inputs.CliCall, result) -> None:
        check_cli(call, *result)

    def reference(self) -> float:
        return reference_process(None, self.env, CHILD_TIMEOUT_S)

    def warmup(self) -> None:
        call = inputs.CliCall("compute", ("compute", inputs.THETA_FIXTURE))
        self.check(call, self.op(call))
        self.rss_kib.clear()

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss_kib) / 1024


class InProcessCli:
    """The cold-CLI commands through ``dipoleft.cli.main`` in this process.

    The traced run uses it, since the CLI's pipeline can be traced only
    in-process, and so do the fixture controls of the in-process workloads.
    """

    reference = staticmethod(loop_reference)

    def __init__(self) -> None:
        self.main = importlib.import_module("dipoleft.cli").main

    def kind(self, call: inputs.CliCall) -> str:
        return call.kind

    def op(self, call: inputs.CliCall):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(list(call.argv))
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return code, out.getvalue(), err.getvalue()

    def check(self, call: inputs.CliCall, result) -> None:
        check_cli(call, *result)


class ModelSweep:
    """parse -> assemble -> renormalize -> [eliminate_bf] -> render -> round trip."""

    reference = staticmethod(loop_reference)

    def __init__(self) -> None:
        self.api = sys.modules["dipoleft"]
        self.potential = sys.modules["dipoleft.render"].POTENTIAL

    def kind(self, model: inputs.Model) -> str:
        return "bf" if model.fundamental else "general"

    def op(self, model: inputs.Model) -> dict:
        api = self.api
        spec = api.parse_model(model.text)
        assembled = api.assemble(spec)
        renormalized = api.renormalize(assembled, spec.absorb)
        final = renormalized
        if any(not s.exact for s in spec.slots):
            final, _ = api.eliminate_bf(renormalized)
        text = api.render_text(final)
        structured = api.render_structured(final, self.potential)
        return {
            "assembled": assembled,
            "renormalized": renormalized,
            "final": final,
            "text": text,
            "round_trip": api.structured_to_action(structured),
        }

    def check(self, model: inputs.Model, result: dict) -> None:
        check_model(model, result)

    def warmup(self) -> None:
        self.check(inputs.WARMUP_MODEL, self.op(inputs.WARMUP_MODEL))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class TraceOracle:
    """The per-word work of ``selftest``: symbolic trace, then both oracle values."""

    reference = staticmethod(loop_reference)

    def __init__(self) -> None:
        self.dirac = sys.modules["dipoleft.dirac"]
        self.oracle = sys.modules["dipoleft.oracle"]
        self.algebra = sys.modules["dipoleft.algebra"]
        self.probed: set[inputs.GammaWord] = set()

    def kind(self, word: inputs.GammaWord) -> str:
        return f"len{word.length}" + ("_g5" if word.g5_count % 2 else "")

    def engine_word(self, word: inputs.GammaWord) -> tuple:
        a = self.algebra
        return tuple(a.G5 if x is None else a.gamma(x) for x in word.letters)

    def op(self, word: inputs.GammaWord) -> dict:
        letters = self.engine_word(word)
        scheme = self.dirac.FOUR_DIM if word.g5_count % 2 else self.dirac.SYMBOLIC_DIM
        assignment = dict(word.assignment)
        expr = self.dirac.trace_word(letters, scheme)
        return {
            "expr": expr,
            "oracle_symbolic": self.oracle.evaluate_expression_numeric(expr, assignment),
            "oracle_matrix": self.oracle.numeric_trace(letters, assignment),
        }

    def check(self, word: inputs.GammaWord, result: dict) -> None:
        """The costlier probe assignments run the first time a word is checked."""
        check_word(word, result, thorough=word not in self.probed)
        self.probed.add(word)

    def warmup(self) -> None:
        self.check(inputs.WARMUP_WORD, self.op(inputs.WARMUP_WORD))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {"cli-cold": CliCold, "model-sweep": ModelSweep, "trace-oracle": TraceOracle}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        # (round, op, kind, seconds, reference seconds around it)
        self.samples: list[tuple[int, int, str, float, float]] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run_round(self, work, items, first_op: int = 0, tracer=None) -> None:
        """Time each operation of one round; check its output outside the timing.

        The workload's reference runs before the first operation and after
        each one; an operation's reference time is the mean of the two
        runs around it.  Operations are numbered from ``first_op`` so that
        passes over the same inputs give the same operation the same number.
        """
        refs, timed = [work.reference()], []
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.op_id = self.attempted
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = work.op(item)
            except Exception:  # an operation the program failed: count it, keep going
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                refs.append(work.reference())
                continue
            dt = perf_counter() - t0
            refs.append(work.reference())
            timed.append((first_op + k, work.kind(item), dt, (refs[-2] + refs[-1]) / 2))
            try:
                work.check(item, result)
            except CheckError as exc:
                self.wrong += 1
                print(f"wrong output: {exc}", file=sys.stderr)
        self.samples += [(self.rounds, *sample) for sample in timed]
        self.rounds += 1

    def round_rates(self) -> list[float]:
        """Operations per second of timed work, one value per round."""
        per_round: dict[int, list[float]] = {}
        for r, _, _, dt, _ in self.samples:
            per_round.setdefault(r, []).append(dt)
        return [len(v) / sum(v) for _, v in sorted(per_round.items())]

    def per_operation(self) -> list[tuple[str, float]]:
        """(kind, median over passes of time in references) per operation."""
        ratios: dict[int, tuple[str, list[float]]] = {}
        for _, op, kind, dt, ref in self.samples:
            ratios.setdefault(op, (kind, []))[1].append(dt / ref)
        return [(kind, statistics.median(r)) for kind, r in (ratios[op] for op in sorted(ratios))]

    def reference_ms(self) -> float:
        return statistics.median(ref for *_, ref in self.samples) * 1e3


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# The fixture commands that compute_ref and reduce_bf_ref time.  cli-cold
# runs them as cold processes in its mix.  The in-process workloads end
# each pass with CONTROL_CALLS calls of each through cli.main, a control
# for the fixtures' pipeline without interpreter start and import.
FIXTURE_CALLS = (
    inputs.CliCall("compute", ("compute", inputs.THETA_FIXTURE)),
    inputs.CliCall(
        "reduce-bf",
        ("reduce-bf", inputs.BF_FIXTURE, "--form", "potential",
         "--set", "LambdaF=1/2*pi^-1", "--set", "CF=-1/8*e^2*pi^-1"),
        cf=inputs.Monomial(Fraction(-1, 8), (("e", 2), ("pi", -1))),
    ),
)
CONTROL_CALLS = 4


def measure(workload: str, work, rounds, seconds: float) -> dict:
    """Whole passes over a fixed set of rounds, as many as fit in ``seconds``.

    Everything from the first pass on counts against ``seconds``: the
    references, the checks and the fixture controls too.  A further pass
    starts only while one more of the last pass's length still fits, and
    there are at least MIN_PASSES.  Times are in units of the workload's
    reference (see reference_loop and procs.REFERENCE_CHILD), and each
    operation counts with its median pass: README.md shows why.
    """
    distinct = [next(rounds) for _ in range(DISTINCT_ROUNDS[workload])]
    tally, controls = Tally(), Tally()
    control = None if workload == "cli-cold" else InProcessCli()
    begin = perf_counter()
    passes, pass_s = 0, 0.0
    while passes < MIN_PASSES or perf_counter() - begin + pass_s <= seconds:
        t0 = perf_counter()
        first = 0
        for items in distinct:
            tally.run_round(work, items, first)
            first += len(items)
        if control is not None:
            controls.run_round(control, FIXTURE_CALLS * CONTROL_CALLS)
        pass_s = perf_counter() - t0
        passes += 1
    per_op = tally.per_operation()
    times = [t for _, t in per_op]
    fixture_ops = per_op if control is None else controls.per_operation()
    metrics = {
        "throughput_ops_ref": (len(times) / sum(times), "1/ref"),
        "latency_p50_ref": (statistics.median(times), "ref"),
        "latency_tail_ref": (percentile(times, TAIL_PERCENTILE[workload]), "ref"),
        "peak_rss_mb": (work.peak_rss_mb(), "MB"),
        "compute_ref": (statistics.median(t for k, t in fixture_ops if k in COMPUTE_KINDS), "ref"),
        "reduce_bf_ref": (statistics.median(t for k, t in fixture_ops if k == "reduce-bf"), "ref"),
    }
    return {
        "correct": tally.wrong == 0 and controls.wrong == 0,
        "attempted": tally.attempted + controls.attempted,
        "failed": tally.failed + controls.failed,
        "passes": passes,
        "measured_s": perf_counter() - begin,
        "reference_ms": tally.reference_ms(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

TRACE_WORD_LENGTHS = (4, 6, 8, 10)


def cli_probe() -> dict:
    """In-process ``cli.main`` wall time, import excluded: median of five calls each."""
    cli = InProcessCli()
    out = {}
    for name, call in zip(("cli.main_compute_ms", "cli.main_reduce_bf_ms"), FIXTURE_CALLS):
        times = []
        for _ in range(5):
            t0 = perf_counter()
            result = cli.op(call)
            times.append((perf_counter() - t0) * 1e3)
            cli.check(call, result)
        out[name] = (statistics.median(times), "ms")
    return out


def layer_metrics(tracer, rounds_traced: int) -> dict:
    """Per-round self times and counts by module, from the spans."""
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for idx, nid in enumerate(tracer.name_of):
        by_name.setdefault(tracer.names[nid], []).append(idx)
    per_round = 1.0 / rounds_traced

    def self_ms(name: str) -> float:
        return sum(own[i] for i in by_name.get(name, ())) * 1e3 * per_round

    def calls(name: str) -> float:
        return len(by_name.get(name, ())) * per_round

    def extra_sum(name: str, pick=lambda x: x) -> float:
        return sum(pick(tracer.extra[i]) for i in by_name.get(name, ())) * per_round

    m = {}
    for name in ("modelfile.parse_model", "action.assemble", "action.polarization",
                 "action.renormalize", "action.eliminate_bf", "dirac.expand_vertex",
                 "dirac.trace", "dirac.trace_word", "loops.evaluate_cutoff",
                 "algebra.canonicalize", "algebra.contract", "algebra.substitute_dimension",
                 "algebra.product", "render.render_text", "render.render_structured",
                 "render.structured_to_action", "oracle.evaluate_expression_numeric",
                 "oracle.numeric_trace"):
        m[f"{name}_ms"] = (self_ms(name), "ms")
    for name in ("action.polarization", "dirac.expand_vertex", "dirac.trace_word",
                 "loops.evaluate_cutoff", "algebra.canonicalize"):
        m[f"{name}_calls"] = (calls(name), "count")
    m["action.terms_out"] = (extra_sum("action.assemble"), "count")
    m["algebra.canonicalize_terms_in"] = (extra_sum("algebra.canonicalize", lambda x: x[0]), "count")
    m["algebra.canonicalize_terms_out"] = (extra_sum("algebra.canonicalize", lambda x: x[1]), "count")
    m["algebra.product_terms"] = (extra_sum("algebra.product"), "count")
    # Per word length: median inclusive time of one trace_word call and its terms.
    shapes: dict[tuple, list[int]] = {}
    for i in by_name.get("dirac.trace_word", ()):
        length, g5, _ = tracer.extra[i]
        shapes.setdefault((length, g5), []).append(i)
    for length in TRACE_WORD_LENGTHS:
        for g5, suffix in ((0, ""), (1, "_g5")):
            idx = shapes.get((length, g5), [])
            ms = statistics.median((tracer.end[i] - tracer.start[i]) * 1e3 for i in idx) if idx else 0.0
            terms = statistics.mean(tracer.extra[i][2] for i in idx) if idx else 0.0
            m[f"dirac.trace_word_ms.len{length}{suffix}"] = (ms, "ms")
            m[f"dirac.trace_word_terms.len{length}{suffix}"] = (terms, "count")
    m["trace.spans"] = (len(tracer.name_of) * per_round, "count")
    return m


def trace_run(workload: str, work, root: Path, rounds, seconds: float, seed: int) -> dict:
    from tracer import Tracer

    metrics = cli_probe()
    if workload == "cli-cold":
        work = InProcessCli()
    # Plain and traced rounds alternate on the same inputs, so that slow
    # spells of the host hit both sides alike.
    plain, traced, tracer = Tally(), Tally(), Tracer()
    # A further pair of rounds starts only while one more of the last
    # pair's length still fits in ``seconds``.
    begin = perf_counter()
    for items in rounds:
        t0 = perf_counter()
        plain.run_round(work, items)
        tracer.install()
        try:
            traced.run_round(work, items, tracer=tracer)
        finally:
            tracer.uninstall()
        now = perf_counter()
        if now - begin + (now - t0) > seconds:
            break
    ratios = [p / t for p, t in zip(plain.round_rates(), traced.round_rates())]
    metrics.update(layer_metrics(tracer, traced.rounds))
    metrics["trace.untraced_ops_s"] = (statistics.median(plain.round_rates()), "1/s")
    metrics["trace.traced_ops_s"] = (statistics.median(traced.round_rates()), "1/s")
    metrics["trace.overhead_pct"] = ((statistics.median(ratios) - 1.0) * 100.0, "%")
    metrics["host.reference_ms"] = (plain.reference_ms(), "ms")
    out_dir = root / "benchmark" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.tsv")
    return {
        "correct": plain.wrong == 0 and traced.wrong == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    args = parser.parse_args()
    root = args.root.resolve()
    os.chdir(root)  # the CLI calls name the fixtures relative to the root

    src = root / "src"
    sys.path.insert(0, str(src))
    if args.workload == "cli-cold" and args.mode != "trace":
        # The cold processes import dipoleft; this one only checks where from.
        origin = importlib.util.find_spec("dipoleft").origin
    else:
        origin = importlib.import_module("dipoleft").__file__
    if Path(origin).resolve().parent != src / "dipoleft":
        raise SystemExit(f"dipoleft resolves to {origin}, not to {src}")
    work = WORKLOADS[args.workload]()
    rounds = inputs.rounds(args.workload, args.seed)
    rounds = chain([next(rounds)], rounds)  # input generation counts as set-up
    work.warmup()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        result = measure(args.workload, work, rounds, args.seconds)
    else:
        result = trace_run(args.workload, work, root, rounds, args.seconds, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
