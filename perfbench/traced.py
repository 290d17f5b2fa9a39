"""Run one workload program with every layer function wrapped in a span.

Usage: python traced.py SPANS.json T0 cli RANKPLANE-ARGS...
       python traced.py SPANS.json T0 sweep SWEEP-ARGS...

T0 is the parent's time.monotonic() just before it started this process;
the time from T0 to the end of the imports is recorded as start-up.  The
spans are written to SPANS.json when the program returns.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    spans_path, t0, program, *args = sys.argv[1:]
    import tracing

    if program == "cli":
        import rankplane.cli as target
    else:
        import sweep as target
    startup_s = time.monotonic() - float(t0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return target.main(args)
    finally:
        tracer.dump(spans_path, startup_s)


if __name__ == "__main__":
    sys.exit(main())
