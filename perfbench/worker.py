"""Run one ``redhom`` CLI invocation in a fresh interpreter and time it.

Usage: python3 worker.py RESULT_JSON TRACE(0|1) -- CLI_ARGV...

The worker imports numpy and then ``redhom.cli`` (the set-up a CLI user
pays on every call), recording its CPU time after each, so the numpy part
can serve as a measure of the host's speed that ``redhom`` cannot change.
It then optionally installs the span wrappers and times
``redhom.cli.main(argv)``.  The CLI's own stdout and stderr go
wherever the parent pointed them.  Timings, exit code, peak RSS and any
spans are written to RESULT_JSON, never to stdout.
"""

import os
import sys
import time


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: worker.py RESULT_JSON TRACE -- CLI_ARGV...")
    argv = sys.argv[4:]

    import numpy  # noqa: F401  (redhom imports it anyway)

    numpy_cpu = time.process_time()
    import redhom.cli

    ready = time.monotonic()
    ready_cpu = time.process_time()
    here = os.path.dirname(os.path.abspath(__file__))
    expected = os.path.join(os.path.dirname(here), "src", "redhom")
    found = os.path.dirname(os.path.abspath(redhom.cli.__file__))
    if os.path.realpath(found) != os.path.realpath(expected):
        raise SystemExit(f"redhom imported from {found}, expected {expected}")

    recorder = None
    if trace:
        import spans

        recorder = spans.install()

    error = None
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        code = redhom.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is what a CLI user would see; record it
        code, error = 1, f"{type(exc).__name__}: {exc}"
    main_s = time.perf_counter() - start
    main_cpu_s = time.process_time() - start_cpu
    sys.stdout.flush()

    import json
    import resource

    payload = {
        "ready_monotonic": ready,
        "main_s": main_s,
        "setup_cpu_s": ready_cpu,
        "numpy_cpu_s": numpy_cpu,
        "main_cpu_s": main_cpu_s,
        "exit_code": code,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": recorder.spans if recorder else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
