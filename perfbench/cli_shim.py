"""``python -m monotri.cli`` with spans, for the traced passes of the cli workload.

Times ``import monotri.cli`` in this fresh process, runs ``cli.main`` with
the library entry points it calls bound to timed wrappers, and writes the
spans to the file named by ``PERFBENCH_SPANS``. Output and exit status are
those of ``monotri`` itself.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    idx = tracer.open("cli.import")
    import monotri.cli as cli
    tracer.close(idx)
    patches = tracing.Patches()
    for name, wrapper in tracing.instrument_library(tracer, patches).items():
        if name in vars(cli):
            patches.set(cli, name, wrapper)
    try:
        return tracer.timed("cli.main", cli.main)(sys.argv[1:])
    finally:
        patches.undo()
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
