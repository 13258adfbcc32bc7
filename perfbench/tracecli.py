"""Replay `modconv.cli.main(argv)` with the span wrappers installed.

    python3 perfbench/tracecli.py mul A B --engine auto --store S -o OUT

Runs in a fresh interpreter per job, so interpreter start, imports and
twiddle-table builds land in the process the way a CLI user pays them. The
multiply's ConvRequest gets an OpCounters attached (counters only ever add).
The last line of stdout is JSON: exit code, the cli.main span, the per-layer
summary and the counters. The process exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
import traceback

import spans
import modconv.cli as cli
from modconv import ConvRequest, OpCounters


def main(argv: list[str]) -> int:
    ops = OpCounters()

    def counted_request(*args, **kwargs):
        kwargs.setdefault("counters", ops)
        return ConvRequest(*args, **kwargs)

    tracer = spans.Tracer()
    tracer.install()
    cli.ConvRequest = counted_request
    try:
        code = tracer.call("cli.main", cli.main, (argv,), {})
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error exits 1, as it would from the real CLI
        traceback.print_exc()
        code = 1
    finally:
        cli.ConvRequest = ConvRequest
        tracer.remove()
    print(json.dumps({
        "exit": code,
        "layers": spans.summarize(tracer.spans),
        "counters": [ops.butterflies, ops.pointwise_muls],
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
