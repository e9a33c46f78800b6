"""Fresh-interpreter entry point of one benchmarked CLI invocation.

``python benchmarks/e2e/child.py <repro-workloads argv...>`` imports
``repro.cli.main``, calls its ``main(argv)`` and exits with its code.
It writes what the harness cannot see from outside to the JSON file
named by ``E2E_MARKS``: the CLOCK_MONOTONIC readings of when the import
finished (set-up ends there) and when ``main`` returned, and the peak
RSS of the process tree. With ``E2E_TRACE_DIR`` set it first
wraps the ``repro`` entry points (see ``tracing.py``) and leaves its
spans in that directory.
"""

import importlib
import json
import os
import resource
import sys
import time


def run(argv) -> int:
    import_start = time.monotonic()
    # ``import repro.cli.main`` would bind the function that
    # ``repro.cli`` re-exports under the same name, not the module.
    cli = importlib.import_module("repro.cli.main")
    imported = time.monotonic()
    tracer = None
    trace_dir = os.environ.get("E2E_TRACE_DIR")
    if trace_dir:
        import tracing

        tracer = tracing.install(trace_dir)
        tracer.record("cli.import", import_start, imported)
        tracer.record("trace.install", imported, time.monotonic())
        span = tracer.open("cli.main")
    rc = 1
    try:
        rc = cli.main(argv)
    finally:
        main_end = time.monotonic()
        if tracer is not None:
            tracer.close(span)
            tracer.flush()
        with open(os.environ["E2E_MARKS"], "w") as fh:
            json.dump({"imported": imported, "main_end": main_end,
                       "peak_rss_kb": peak_rss_kb()}, fh)
    return rc


def peak_rss_kb() -> int:
    """Peak RSS of this process and of the workers it has reaped.

    Not ``ru_maxrss`` of this process: exec copies the launching
    process's peak into it, so it would report the harness's size.
    ``VmHWM`` is the peak of this process's own address space; forked
    workers never exec, so their ``ru_maxrss`` is clean.
    """
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
