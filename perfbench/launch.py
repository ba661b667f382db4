"""Run the sasaklab CLI as the installed ``sasaklab`` script does.

    python3 perfbench/launch.py <sasaklab arguments...>

It imports ``sasaklab.cli``, writes the ``time.monotonic()`` at which
the import finished, with the jet backend, as JSON to the file named by
``PERFBENCH_READY``, and exits with the status of ``sasaklab.cli.main``.
When ``PERFBENCH_TRACE`` names a file, the tracer is installed before
the command runs and its spans and counters are written there when the
command returns.
"""

import json
import os
import sys
import time


def main():
    t0 = time.perf_counter()
    import sasaklab.cli

    import_s = time.perf_counter() - t0
    ready = time.monotonic()
    with open(os.environ["PERFBENCH_READY"], "w", encoding="utf-8") as fh:
        json.dump({"monotonic": ready, "jet_backend": sasaklab.JET_BACKEND}, fh)

    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return sasaklab.cli.main(sys.argv[1:])

    import tracer

    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        return rec.span(tracer.ROOT_SPAN, sasaklab.cli.main)(sys.argv[1:])
    finally:
        doc = rec.as_dict()
        doc["import_s"] = import_s
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
