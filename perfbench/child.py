"""One benchmark sample: a fresh interpreter that runs one CLI command.

Usage: python3 perfbench/child.py <trace-file or -> <cli arguments...>

Prints one JSON line: the monotonic clock when ``cli.main`` is importable
(``ready``), around the ``cli.main`` call (``t0``, ``t1``), its exit code,
own peak RSS and CPU seconds.  With a trace file it installs the tracer
after the import, writes the span table there and adds per-span totals.
"""

import json
import resource
import sys
import time

from knotoperads import cli

ready = time.monotonic()


def main() -> None:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = None
    if trace_file != "-":
        import tracer as tracing
        tracer = tracing.Tracer().install()
    main_fn = cli.main
    t0 = time.monotonic()
    try:
        rc = main_fn(argv)
    except SystemExit as exc:   # argparse rejects bad usage by exiting
        rc = exc.code if isinstance(exc.code, int) else 2
    t1 = time.monotonic()
    use = resource.getrusage(resource.RUSAGE_SELF)
    report = {"ready": ready, "t0": t0, "t1": t1, "rc": rc,
              "rss_kib": use.ru_maxrss, "cpu_s": use.ru_utime + use.ru_stime,
              "module": cli.__file__}
    if tracer is not None:
        tracer.read_memo()
        report.update(by_name=tracer.by_name(), counters=tracer.counters,
                      absent=tracer.absent)
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.span_table(), fh, separators=(",", ":"))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
