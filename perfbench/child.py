"""Child process of the benchmark: runs the real burgerslab CLI once.

    python3 child.py RECORD [--spans SPANS] -- <burgerslab CLI arguments>

Marks on the system-wide monotonic clock (comparable with the parent's)
when this script starts, when `burgerslab.cli` is imported and when
`load_config` returns, then calls `burgerslab.cli.main` and writes the marks
and the library versions to RECORD as JSON.  With --spans the layer tracer
is installed before the CLI runs and its spans are written to SPANS at exit.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    record_path = own[0]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None
    marks = {"started": STARTED}

    import burgerslab.cli as cli

    marks["imported"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if spans_path is not None:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    load_config = cli.load_config

    def marked_load_config(path):
        cfg = load_config(path)
        marks["config_loaded"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        return cfg

    cli.load_config = marked_load_config
    code = cli.main(cli_args)

    if tracer is not None:
        tracer.dump(spans_path)
    import numpy
    import scipy

    record = {
        "marks": marks,
        "exit_code": code,
        "burgerslab_file": cli.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
