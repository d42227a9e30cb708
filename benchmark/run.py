"""The dipoleft benchmark: one command for every workload and metric.

    python3 benchmark/run.py --workload model-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it uses ``src/dipoleft`` and
the bundled fixtures there and installs nothing.  Workloads: ``cli-cold``,
``model-sweep`` and ``trace-oracle`` (see README.md).

With ``--trace 0`` it starts the worker afresh 1 + SETUP_STARTS times,
times each start but the first up to its first timed operation (set-up),
and lets the last start measure for ``--seconds``; it prints the
end-to-end metrics.  With
``--trace 1`` it times the import in fresh interpreters and runs the
traced worker; it prints the per-layer metrics.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from procs import child_env, reference_process, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "model-sweep", "trace-oracle")
REQUIRED = ("BENCHMARK.json", "src/dipoleft/__init__.py", "theta_term.eft", "bf_theory.eft")
# Set-up is taken over SETUP_STARTS fresh starts, after one discarded start
# that warms the file cache.  A reference process (procs.REFERENCE_CHILD)
# runs before the first counted start and after each; setup_s is the median
# ratio of a start's set-up to the mean of the references around it, times
# SETUP_REFERENCE_S, the reference's time on the machine of the README's
# figures: wall seconds at that machine's speed.
SETUP_STARTS = 5
SETUP_REFERENCE_S = 0.15
IMPORT_PROBES = 5
# Every process is killed after this; a whole run must end inside 180 s.
DEADLINE_S = 170.0

IMPORT_CODE = (
    "import sys, time\n"
    "before = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import dipoleft\n"
    "print((time.perf_counter() - t) * 1e3, len(sys.modules) - before)\n"
)


class BenchError(RuntimeError):
    pass


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.at = perf_counter() + seconds

    def left(self) -> float:
        left = self.at - perf_counter()
        if left <= 0:
            raise BenchError("the run exceeded its deadline")
        return left


def run_worker(args, mode: str, deadline: Deadline) -> tuple[float, dict | None]:
    """Start a worker; returns (seconds from start to 'ready', final JSON or None)."""
    argv = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    done = run_child(argv, ROOT, child_env(ROOT), deadline.left())
    sys.stderr.write(done.err)
    lines = done.out.splitlines()
    if done.code != 0 or not lines or lines[0] != "ready":
        raise BenchError(f"worker ({mode}) exited {done.code} with {lines[:1]}")
    return done.first_line_s, json.loads(lines[-1]) if len(lines) > 1 else None


def import_probe(deadline: Deadline) -> dict:
    """Fresh interpreters: bare start-up, and the time and modules of `import dipoleft`."""
    bare, imports, modules = [], [], []
    for _ in range(IMPORT_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=deadline.left())
        bare.append((perf_counter() - t0) * 1e3)
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=child_env(ROOT), check=True,
            capture_output=True, text=True, timeout=deadline.left(),
        ).stdout.split()
        imports.append(float(out[0]))
        modules.append(int(out[1]))
    return {
        "import.interpreter_ms": {"value": statistics.median(bare), "unit": "ms"},
        "import.dipoleft_ms": {"value": statistics.median(imports), "unit": "ms"},
        "import.modules_loaded": {"value": statistics.median(modules), "unit": "count"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="dipoleft benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a dipoleft checkout, missing {missing}", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    try:
        if args.trace:
            probe = import_probe(deadline)
            _, result = run_worker(args, "trace", deadline)
            result["metrics"] = {**probe, **result["metrics"]}
        else:
            run_worker(args, "setup", deadline)
            refs, ratios = [reference_process(ROOT, child_env(ROOT), deadline.left())], []
            for start in range(SETUP_STARTS):
                mode = "measure" if start == SETUP_STARTS - 1 else "setup"
                setup, result = run_worker(args, mode, deadline)
                refs.append(reference_process(ROOT, child_env(ROOT), deadline.left()))
                ratios.append(setup / ((refs[-2] + refs[-1]) / 2))
            setup_s = statistics.median(ratios) * SETUP_REFERENCE_S
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != wanted:
            raise BenchError(f"metrics {sorted(printed)} differ from BENCHMARK.json")
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if "reference_ms" in result:
        print(f"passes: {result['passes']} in {result['measured_s']:.1f} s, "
              f"reference: {result['reference_ms']:.3f} ms", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
