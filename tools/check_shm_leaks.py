"""Run a command and fail if it leaks POSIX shared-memory segments.

Usage::

    python tools/check_shm_leaks.py COMMAND [ARG ...]

Relays the command's output and exits with its status, or with 1 when
either sign of a leaked ``multiprocessing.shared_memory`` segment shows:

* the output carries the resource tracker's "leaked shared_memory
  objects" warning — the tracker prints it (and unlinks the segment
  itself) when a process exits still owning a segment name;
* ``/dev/shm`` holds a ``psm_*`` name afterwards that it did not hold
  before — a segment nobody owns any more, which no tracker cleans up.

The tracker writes to the standard error it inherited when it started,
so under pytest run the suite with ``--capture=sys``: with the default
``--capture=fd`` the warning lands in pytest's capture file and is lost.
Output is read to end of file, which also waits for every tracker the
command started to finish its exit-time cleanup before ``/dev/shm`` is
compared.
"""

from __future__ import annotations

import os
import subprocess
import sys

WARNING = "leaked shared_memory objects"


def shm_names() -> set[str]:
    """The ``psm_*`` segment names in ``/dev/shm`` (empty where absent)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def main(argv: list[str]) -> int:
    if not argv:
        print(
            "usage: python tools/check_shm_leaks.py COMMAND [ARG ...]",
            file=sys.stderr,
        )
        return 2
    before = shm_names()
    warned = False
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    ) as child:
        for line in child.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            warned = warned or WARNING in line
    status = child.returncode
    leaked = sorted(shm_names() - before)
    if warned:
        print("check_shm_leaks: the resource tracker reported leaked "
              "shared_memory objects", file=sys.stderr)
    if leaked:
        print(f"check_shm_leaks: left in /dev/shm: {' '.join(leaked)}", file=sys.stderr)
    return 1 if warned or leaked else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
