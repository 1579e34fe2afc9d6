"""One fresh-process run of the openrcd CLI, timed from the inside.

Usage::

    python3 bench/child.py RESULT.json SPANS.json|- [CLI-ARGS...]

Imports numpy and ``openrcd`` from the checkout's ``src/`` (timed as
set-up), installs the tracer when ``SPANS.json`` is not ``-``, calls
``openrcd.cli.main(CLI-ARGS)`` with its standard output captured, and
writes one JSON object to ``RESULT.json``: exit status, set-up and main
wall seconds, the process's own CPU seconds and peak RSS, bytes
printed, and the software context.  The process exits with the CLI's
status.  Without CLI arguments it only imports and records the set-up
time.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import openrcd.cli  # noqa: E402

_T1 = time.perf_counter()


def _peak_rss_mb(usage):
    # ru_maxrss also counts the parent's pages this process held between fork
    # and exec; VmHWM is the high-water mark of this address space alone
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return usage.ru_maxrss / 1024.0


def _effective_threads():
    count = getattr(openrcd.opensim, "_thread_count", None)
    return count() if count is not None else None


def main():
    result_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if not argv:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": _T1 - _T0}, fh)
        return 0
    tracer = None
    if spans_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t2 = time.perf_counter()
        status = openrcd.cli.main(argv)
        t3 = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.dump(spans_path)
    printed = out.getvalue()
    record = {
        "status": status,
        "setup_s": _T1 - _T0,
        "wall_s": t3 - t2,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": _peak_rss_mb(usage),
        "stdout_bytes": len(printed.encode("utf-8")),
        "stdout": printed,
        "openrcd_file": openrcd.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "effective_threads": _effective_threads(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
