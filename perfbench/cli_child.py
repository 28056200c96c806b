"""The specbound CLI with tracing on, for the traced CLI workload.

    python3 perfbench/cli_child.py SPANS_OUT [specbound arguments ...]

Times ``import specbound.cli`` as the span cli.import, runs the CLI's main
with the layer wrappers installed, writes the spans to SPANS_OUT and exits
with the CLI's status.
"""

import sys
import time

from spans import Tracer


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import specbound.cli

    tracer.spans.append({
        "id": 0, "name": "cli.import", "parent": None, "call": 0, "trial": None,
        "thread": 0, "start": start, "end": time.perf_counter(),
    })
    with tracer.installed():
        code = specbound.cli.main(argv) or 0
    tracer.dump(spans_out, {})
    return code


if __name__ == "__main__":
    sys.exit(main())
