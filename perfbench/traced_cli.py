"""One traced `nearpoints` CLI invocation, for the traced cli_cold pass.

Usage: python traced_cli.py SPANS_OUT CLI_ARGS...

Records the import of `nearpoints.cli` and the call of its `main` as
top-level spans, with the library call sites wrapped underneath, writes the
spans and counters to SPANS_OUT as JSON, and exits with the CLI's own
status.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import nearpoints.cli
    with tracer.installed(), tracer.span("cli.main"):
        code = nearpoints.cli.main(argv)
    with open(out, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
