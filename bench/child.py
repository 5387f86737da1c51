"""One benchmark op in a fresh interpreter: import nmk_sim.cli, run main().

Usage: child.py SRC_DIR RESULT_JSON SPAWN_MONOTONIC TRACE OP_ID -- CLI_ARGS...

``setup_s`` runs from SPAWN_MONOTONIC (taken by the parent just before it
started this process; CLOCK_MONOTONIC is shared by all processes) until
``nmk_sim.cli`` is imported.  ``wall_s`` is the duration of ``cli.main``.
The result, and with TRACE=1 every span, is written to RESULT_JSON.
"""

import json
import os
import sys
import time


def main(argv):
    src, result_path, spawn, trace, op = argv[:5]
    cli_args = argv[6:]
    sys.path.insert(0, src)
    import nmk_sim.cli as cli
    setup_s = time.monotonic() - float(spawn)

    # An installed copy must not stand in for the checkout's sources.
    here = os.path.realpath(os.path.join(src, "nmk_sim"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != here:
        print(f"nmk_sim imported from {cli.__file__}, not {here}",
              file=sys.stderr)
        return 90

    import spans
    sizes = {}
    spans.install_size_probe(sizes)
    tracer = None
    if trace == "1":
        tracer = spans.Tracer(op)
        spans.install(tracer)

    t0 = time.perf_counter()
    status = cli.main(cli_args)
    wall_s = time.perf_counter() - t0

    result = {"setup_s": setup_s, "wall_s": wall_s, "status": status,
              "sizes": sizes}
    if tracer is not None:
        result["trace"] = tracer.to_json()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
