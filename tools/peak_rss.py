"""Run a command and fail if its peak resident set size exceeds a bound.

    python tools/peak_rss.py --max-mb 2048 -- python -m pytest -x -q

The peak is ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` after the command
exits: the largest RSS any single waited-for descendant process reached
(the command itself, or a subprocess it spawned and reaped).  The script
prints the peak and the wall time, and exits with the command's own
status, or with 3 when the command succeeded but its peak went over
``--max-mb``.  Standard library only; Linux reports ``ru_maxrss`` in KiB,
macOS in bytes.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time

#: Exit status when the command passed but its peak RSS exceeded the bound.
OVER_BOUND = 3


def peak_rss_mb() -> float:
    """Peak RSS in MiB over every descendant reaped so far."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="fail above this peak RSS (MiB)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    start = time.monotonic()
    status = subprocess.call(command)
    if status < 0:  # killed by a signal: report it the way a shell does
        status = 128 - status
    peak = peak_rss_mb()
    print(
        f"peak_rss: {peak:.1f} MiB (bound {args.max_mb:g} MiB), "
        f"wall {time.monotonic() - start:.1f} s, exit {status}",
        file=sys.stderr,
    )
    if status == 0 and peak > args.max_mb:
        print("peak_rss: over the bound", file=sys.stderr)
        return OVER_BOUND
    return status


if __name__ == "__main__":
    sys.exit(main())
