"""Run a child process to its end, with a deadline, and read its peak RSS."""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


def child_env(root) -> dict:
    """The environment of a child that imports dipoleft from ``<root>/src``."""
    return dict(os.environ, PYTHONPATH=str(Path(root) / "src"))


@dataclass
class Finished:
    code: int
    out: str
    err: str
    wall_s: float  # from start to exit
    first_line_s: float | None  # from start to the first complete stdout line
    peak_rss_kib: int


def run_child(argv: list[str], cwd, env: dict, timeout: float) -> Finished:
    """Both pipes are drained with a selector, so neither can fill and block
    the child; the child is then reaped with wait4, which returns its own
    resource usage.  A child still running at the deadline is killed."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    first_line = None
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - perf_counter()
                if left <= 0:
                    raise TimeoutError(f"{argv[1:4]} did not finish in {timeout:.0f} s")
                for key, _ in sel.select(timeout=min(left, 1.0)):
                    data = os.read(key.fd, 65536)
                    if not data:
                        sel.unregister(key.fileobj)
                        continue
                    chunks[key.fileobj].append(data)
                    if first_line is None and key.fileobj is proc.stdout and b"\n" in data:
                        first_line = perf_counter() - t0
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = perf_counter() - t0
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Finished(
        code=proc.returncode,
        out=b"".join(chunks[proc.stdout]).decode(),
        err=b"".join(chunks[proc.stderr]).decode(),
        wall_s=wall,
        first_line_s=first_line,
        peak_rss_kib=usage.ru_maxrss,
    )


# A fresh interpreter importing stdlib modules, about 150 ms: the reference
# for work done in fresh processes, cold CLI calls and set-up.  Child
# processes slow with the host unlike an in-process loop.
REFERENCE_CHILD = (
    "import asyncio, decimal, email.parser, http.client, json, sqlite3, unittest, "
    "xml.etree.ElementTree"
)


def reference_process(cwd, env: dict, timeout: float) -> float:
    """Wall seconds of one REFERENCE_CHILD process."""
    done = run_child([sys.executable, "-c", REFERENCE_CHILD], cwd, env, timeout)
    if done.code != 0:
        raise RuntimeError(f"reference process exited {done.code}: {done.err.strip()}")
    return done.wall_s
