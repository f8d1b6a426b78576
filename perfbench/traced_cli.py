"""Run one ``modframes`` CLI command under the span recorder.

Usage: python perfbench/traced_cli.py SPANS_OUT ARGV...

The traced run of the ``cold-cli`` workload starts this script in place of
``python -m modframes.cli`` (with ``PYTHONPATH`` at the checkout's ``src``).
It records the command's spans and counters, plus the ``tracemalloc`` peak
of a ``tensor`` command, writes them as JSON to SPANS_OUT, and exits with
the command's exit code.
"""

import json
import sys
import tracemalloc

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder().install()
    import modframes.cli as cli

    rec.op_id = 0
    tensor = argv[:1] == ["tensor"]
    if tensor:
        tracemalloc.start()
    try:
        code, _ = cli.run_command(argv)
    finally:
        peak = tracemalloc.get_traced_memory()[1] if tensor else 0
        tracemalloc.stop()
        rec.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": rec.spans, "counters": rec.counters, "tensor_peak_bytes": peak}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
