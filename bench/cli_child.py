"""Run one detsize CLI command in this process with the benchmark's layer
spans (mode ``spans``) or allocation peaks (mode ``peaks``) recorded, and
write them as JSON to OUT.  Exits with the command's exit code.

    python3 bench/cli_child.py {spans|peaks} OUT ARGS...
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import detsize.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    mode, out, args = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    recorder = tracing.Tracer() if mode == "spans" else tracing.PeakMeter()
    recorder.install()
    try:
        return detsize.cli.main(args)
    finally:
        recorder.uninstall()
        dump = recorder.dump() if mode == "spans" else recorder.peaks
        out.write_text(json.dumps(dump), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
