"""A calibration loop that measures how fast the processor runs right now.

    python3 calibrate.py COUNTER CPU

On a shared host the same netbary run can take twice the CPU time from one
minute to the next, because other tenants share the physical core, its
caches and its memory bandwidth. This loop runs beside every sub-run,
pinned to the sub-run's CPU at the lowest priority (nice 19), so it gets
about one slice in seventy while the sub-run computes and meets the host in
the same state. After every round it writes (rounds done, its CPU seconds,
rounds done) to the file COUNTER. The worker reads the counter when it
starts, when the solver starts and when it ends; the calibration's rounds
per CPU second over a window, divided by ROUNDS_PER_S, is the host's speed
in that window.

No numpy at module level: the worker imports this module before its timed
region starts.
"""

import mmap
import os
import struct
import sys
import time
from pathlib import Path

# The reference speed: rounds per CPU second of a processor whose timed
# results are reported as they are. A constant, so that results of two
# commits compare; its value only sets the scale.
ROUNDS_PER_S = 2000.0

LAYOUT = struct.Struct("<qdq")


class Counter:
    """Read side of the calibration counter file."""

    def __init__(self, path: Path):
        with open(path, "rb") as f:
            self._buf = mmap.mmap(f.fileno(), LAYOUT.size, access=mmap.ACCESS_READ)

    def read(self) -> tuple[int, float]:
        """(rounds done, the loop's CPU seconds at the end of the last round)."""
        while True:
            rounds, cpu, again = LAYOUT.unpack_from(self._buf)
            if rounds == again:
                return rounds, cpu
            # Caught the loop in the middle of a write; let it finish.
            os.sched_yield()


def speed(first: tuple[int, float], last: tuple[int, float]) -> float | None:
    """Host speed between two readings, or None if no round completed."""
    rounds, cpu = last[0] - first[0], last[1] - first[1]
    if rounds <= 0 or cpu <= 0.0:
        return None
    return rounds / cpu / ROUNDS_PER_S


def create(path: Path) -> None:
    path.write_bytes(bytes(LAYOUT.size))


def main(argv: list[str]) -> int:
    path, cpu = Path(argv[1]), int(argv[2])
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    import numpy as np

    # A mix like netbary's inner loop: a dense kernel product with exp, as
    # in the oracle, small per-node products with a log-sum-exp, and
    # interpreter work on dicts.
    rng = np.random.default_rng(0)
    kernel, stack = rng.random((196, 196)), rng.random((8, 196))
    a, b = rng.random((20, 20)), rng.random(20)
    with open(path, "r+b") as f:
        buf = mmap.mmap(f.fileno(), LAYOUT.size)
    rounds = 0
    while True:
        for _ in range(4):
            np.exp(stack @ kernel - 1.0).sum()
        for _ in range(20):
            x = a @ b
            top = x.max()
            float(np.log(np.exp(x - top).sum()) + top)
        table: dict[int, int] = {}
        for j in range(300):
            table[j & 31] = table.get(j & 31, 0) + j
        rounds += 1
        LAYOUT.pack_into(buf, 0, rounds, time.process_time(), rounds)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
