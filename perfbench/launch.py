"""Run one phylocount CLI call from the checkout that holds this file.

    python3 perfbench/launch.py MARK_FILE TRACE_FILE -- CLI_ARG...

The package is imported from the checkout's `src`, never from an installed
copy.  Right after `phylocount.cli` is imported, the monotonic clock and the
imported package path go to MARK_FILE, so the parent can time process spawn
to import.  When the call ends, this process's peak RSS (VmHWM, KiB) is
appended: the rusage the parent gets from wait4 would also count the
parent's own RSS, which Linux hands down through fork and exec.

With TRACE_FILE other than `-`, the public functions listed in
`spans.TARGETS` are wrapped first and their per-name totals are written to
TRACE_FILE when the call returns.  The CLI's exit status is this process's.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import phylocount  # noqa: E402
import phylocount.cli  # noqa: E402

_imported = time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    mark_file, trace_file, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launch.py MARK_FILE TRACE_FILE -- CLI_ARG...")
    with open(mark_file, "w") as fh:
        fh.write(f"{_imported!r}\n{os.path.abspath(phylocount.__file__)}\n")
    try:
        return _call(trace_file, cli_args)
    finally:
        with open(mark_file, "a") as fh:
            fh.write(f"{_peak_rss_kib()}\n")


def _peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _call(trace_file: str, cli_args: list[str]) -> int:
    if trace_file == "-":
        return phylocount.cli.main(cli_args)
    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    status = phylocount.cli.main(cli_args)
    sys.stdout.flush()
    with open(trace_file, "w") as fh:
        json.dump(tracer.summary(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
