"""One CLI invocation in a fresh interpreter, timed from inside.

Usage: python child.py RECORD TRACE -- <thinlayer CLI arguments>

Imports `thinlayer.cli`, runs `thinlayer.cli.main` on the arguments and
writes a JSON record to RECORD: the exit code, the monotonic clock when the
config was loaded and when `main` returned, and with TRACE=1 the span
aggregates, counts and peaks of `spans.Tracer`. The parent reads the spawn time
from its own monotonic clock, which on Linux is shared between processes.
"""
import json
import sys
import time


def main() -> int:
    record_path, traced = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[4:]
    import thinlayer
    import thinlayer.cli as cli

    marks = {}
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer, thinlayer)
    load_config = cli.load_config

    def timed_load_config(path):
        cfg = load_config(path)
        marks["config_loaded"] = time.monotonic()
        return cfg

    cli.load_config = timed_load_config
    code = cli.main(cli_args)
    marks["main_returned"] = time.monotonic()
    record = {"exit": code, **marks}
    if tracer is not None:
        record["spans"] = spans.aggregate(tracer.spans)
        record["counts"] = tracer.counts
        record["peaks"] = tracer.peaks
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
