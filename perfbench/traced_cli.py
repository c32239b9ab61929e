"""``python -m lowcarb`` with the benchmark's spans installed.

Usage: traced_cli.py --layers OUT.json [--memory] -- <lowcarb CLI arguments>

Runs one CLI command in this process, writes the per-layer quantities the
tracer collected to OUT.json and exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layers", required=True, type=Path)
    parser.add_argument("--memory", action="store_true",
                        help="record the tracemalloc peak inside optimize()")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from lowcarb import cli

    tracer = Tracer(measure_memory=args.memory)
    tracer.install()
    code = cli.main(argv)
    layers = tracer.take()
    layers["peak_traced_bytes"] = tracer.peak_traced_bytes
    args.layers.write_text(json.dumps(layers))
    return code


if __name__ == "__main__":
    sys.exit(main())
