"""Run ``qlscan.cli:main`` as the console script would, recording spans.

Used by the traced ``cli-test`` rounds under ``python -X importtime``.
The spans (the CLI's read, scan and output phases plus the program
layers below the scan) are written as JSON to the file named by the
``PERFBENCH_SPANS`` environment variable; the exit code is the CLI's.
"""

import json
import os
import sys

import click
import qlscan.cli

from spans import Tracer, install_program


def main():
    tracer = Tracer()
    install_program(tracer, qlscan)
    tracer.wrap(qlscan.cli, "read_series", "qlscan.cli.read_series")
    tracer.wrap(qlscan.cli, "scan", "qlscan.cli.scan",
                lambda a, k, r: {"missing": r.n_missing})
    tracer.wrap(click, "echo", "click.echo")
    code = 0
    try:
        qlscan.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.close()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
