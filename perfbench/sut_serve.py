"""Launch the discovery service as ``repro.cli.main(["serve", ...])``.

The launcher adds only what the benchmark reads after the service
exits: the peak memory of the server and its pool workers
(:class:`common.WorkerMemory`) and, with ``--trace-out``, the spans
the traced run recorded in the server process.  Stop it with SIGTERM;
the service drains and exits 143 through its own shutdown path.

Usage: python3 perfbench/sut_serve.py --exit-record R.json
           [--trace-out S.json] -- <serve arguments>
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import common


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--exit-record", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro import cli

    records = tempfile.TemporaryDirectory()
    memory = common.WorkerMemory(Path(records.name))
    recorder = None
    if args.trace_out:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    code = cli.main(["serve", *serve_args])
    peak_mb = memory.peak_mb()
    records.cleanup()
    if recorder is not None:
        recorder.dump(args.trace_out)
    with open(args.exit_record, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, "peak_rss_mb": peak_mb},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
