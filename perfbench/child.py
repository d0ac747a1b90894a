"""Run one ``treekuramoto`` CLI invocation in this process and report when
its ``run_subcommand`` phase started and ended.

Usage: ``python3 child.py TIMINGS_JSON TRACE SRC_DIR COMMAND [CLI ARGS...]``

``TRACE`` is ``0`` or ``1``; with ``1`` the package's public functions are
wrapped (see ``tracing.py``) and the per-layer metrics are added to the
timings file. Timestamps use ``time.monotonic``, the clock the parent
process reads too. The peak resident set size is this process's own
``VmHWM``: ``ru_maxrss`` would also count the parent's memory at fork.
The exit code is the CLI's.
"""

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    timings_path, trace, src = sys.argv[1], sys.argv[2] == "1", Path(sys.argv[3])
    sys.path.insert(0, str(src))
    from treekuramoto import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"treekuramoto imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 1

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    phase = {}
    run_subcommand = cli.run_subcommand

    def timed_run_subcommand(*args, **kwargs):
        phase["run_start"] = time.monotonic()
        try:
            return run_subcommand(*args, **kwargs)
        finally:
            phase["run_end"] = time.monotonic()

    cli.run_subcommand = timed_run_subcommand
    code = cli.main(sys.argv[4:])
    if tracer is not None:
        phase["layers"] = tracing.layer_metrics(tracer.spans(), tracer.counts)
    phase["peak_rss_kb"] = peak_rss_kb()
    Path(timings_path).write_text(json.dumps(phase), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
