"""Child process of the traced runs: one ``pdd`` command, or a bare import.

    python perfbench/child.py --spans FILE -- ARGS...  spans of ``pdd ARGS``
    python perfbench/child.py --peak FILE -- ARGS...   tracemalloc peak of each
                                                       bias_corrected_estimate call
    python perfbench/child.py --import                 prints the ms of ``import pdd``

The command's stdout and exit code are those of ``pdd.cli.main``; the
recorded data are written to FILE once the command has returned.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    if argv == ["--import"]:
        start = time.perf_counter()
        import pdd  # noqa: F401

        print((time.perf_counter() - start) * 1e3)
        return 0
    if len(argv) < 3 or argv[0] not in ("--spans", "--peak") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    mode, path, _, *args = argv

    import pdd.cli
    import spans

    if mode == "--spans":
        recorder = spans.Tracer()
        recorder.op = 0
        spans.install(recorder.wrap)
    else:
        recorder = spans.PeakTracker()
        spans.install(recorder.wrap, only={"inference.bias_corrected_estimate"})
    code = pdd.cli.main(args)
    sys.stdout.flush()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans if mode == "--spans" else recorder.peaks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
