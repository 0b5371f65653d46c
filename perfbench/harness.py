"""Shared pieces of the benchmark: paths, the closed loop, child processes,
output comparison and the run environment."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Relative tolerance of every numeric output check.
CHECK_RTOL = 1e-8

#: A child that has not exited after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0


class SetupError(Exception):
    """The benchmark cannot run: sources missing, or its inputs could not be made."""


@dataclass
class Op:
    """One operation: its wall time, the rows it read or wrote, and its output.

    ``error`` is set when the call raised or the child exited non-zero;
    ``problem`` is set by the output check. Either makes the operation failed.
    """

    kind: str
    wall_s: float
    rows: int
    output: Any = None
    error: str = ""
    problem: str = ""
    peak_rss_mb: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problem)


def closed_loop(cycle: tuple[str, ...], seconds: float, run: Callable[[str], Op]) -> list[Op]:
    """Run whole cycles of ``cycle`` until the operations' wall time reaches ``seconds``.

    One caller; each operation starts when the previous one has returned.
    Stopping only at a cycle boundary keeps every operation kind equally
    represented, so medians do not depend on where the budget ran out.
    """
    ops: list[Op] = []
    busy = 0.0
    while busy < seconds:
        for kind in cycle:
            op = run(kind)
            ops.append(op)
            busy += op.wall_s
    return ops


def timed_call(kind: str, rows: int, call: Callable[[], Any]) -> Op:
    """Time one in-process call; an exception is recorded, not raised."""
    start = time.perf_counter()
    try:
        output = call()
    except Exception as exc:  # an operation failure is counted, the run goes on
        return Op(kind, time.perf_counter() - start, rows, error=f"{type(exc).__name__}: {exc}")
    return Op(kind, time.perf_counter() - start, rows, output)


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    wall_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    """Environment of every child: the working tree's ``src`` and nothing installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], err_path: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion, timed from process start to exit.

    The child is reaped with ``wait4`` so that its own peak resident set is
    known; stderr goes to ``err_path``.
    """
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        try:
            stdout = _read_until_eof(proc.stdout.fileno(), start + timeout)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0)


def _read_until_eof(fd: int, deadline: float) -> bytes:
    chunks = []
    while True:
        ready, _, _ = select.select([fd], [], [], max(deadline - time.perf_counter(), 0.0))
        if not ready:
            raise TimeoutError("child did not finish in time")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def compile_package(err_path: Path) -> None:
    """Rebuild the package's bytecode cache from scratch, as a fresh install would."""
    result = run_child([sys.executable, "-m", "compileall", "-q", "-f", str(SRC / "pdd")], err_path)
    if result.returncode != 0:
        raise SetupError("compileall failed on src/pdd")


def stderr_tail(path: Path, limit: int = 300) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace").strip()
    except OSError:
        return ""
    return text[-limit:]


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def mismatch(name: str, got: Any, want: Any, rtol: float = CHECK_RTOL) -> str | None:
    """Compare an output with its reference; return a description when they differ.

    Integers and strings must be equal, floats equal within ``rtol`` relative,
    sequences elementwise.
    """
    if isinstance(want, (list, tuple)):
        got = list(got) if isinstance(got, (list, tuple)) or hasattr(got, "tolist") else got
        if not isinstance(got, list) or len(got) != len(want):
            return f"{name}: got {got!r}, want {len(want)} values"
        for j, (g, w) in enumerate(zip(got, want)):
            problem = mismatch(f"{name}[{j}]", g, w, rtol)
            if problem:
                return problem
        return None
    if isinstance(want, (bool, str)) or want is None:
        return None if got == want else f"{name}: got {got!r}, want {want!r}"
    if isinstance(want, int):
        return None if isinstance(got, int) and got == want else f"{name}: got {got!r}, want {want}"
    try:
        g, w = float(got), float(want)
    except (TypeError, ValueError):
        return f"{name}: got {got!r}, want a number near {want!r}"
    if not (math.isfinite(g) and math.isfinite(w)):
        return f"{name}: non-finite value {g!r} (reference {w!r})"
    if abs(g - w) > rtol * max(abs(g), abs(w)):
        return f"{name}: got {g!r}, want {w!r} (relative gap above {rtol:g})"
    return None


def mismatches(got: dict[str, Any], want: dict[str, Any]) -> str | None:
    """First mismatch between the named values of ``got`` and ``want``."""
    for name, value in want.items():
        if name not in got:
            return f"{name}: missing"
        problem = mismatch(name, got[name], value)
        if problem:
            return problem
    return None


def environment() -> dict[str, Any]:
    """Where and on what the run was made."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        }
        or "default (OpenBLAS uses at most nproc threads)",
        "l3_bytes": l3_bytes(),
        "machine": platform.machine(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """Digest of the package sources, which identifies the code outside git too."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pdd").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def l3_bytes() -> int | None:
    """Size of the L3 cache, from sysfs."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None
