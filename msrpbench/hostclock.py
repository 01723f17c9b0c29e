"""Host-speed reference: a fixed pure-Python kernel timed around and during
each operation.

The host this benchmark runs on changes speed by tens of percent over
seconds (shared CPUs and caches).  CPU time equals wall time for a
pure-Python solve, so the drift is the host's speed, not scheduling.
Every gated timing is therefore reported host-normalised, as seconds on
a reference host, with the raw value beside it.

* An operation long enough to collect ``MIN_SAMPLES`` in-operation
  samples is scaled by them:
  ``raw * (REFERENCE_SAMPLE_S / mean(samples)) ** SAMPLE_EXPONENT``, the
  mean without the lowest and highest tenth of the samples.
  A CPU-time interval timer (``SIGPROF``) in the operation's own process
  runs one kernel unit every ``SAMPLE_PERIOD_S`` of CPU time, between
  two bytecodes of the operation.  That samples the speed of the very
  CPU and caches the operation runs on, across its whole length; probes
  at its two ends only do not, for operations of several seconds.  The
  handler's own time is subtracted from the raw time.
* A shorter operation is scaled by probes of ``PROBE_UNITS`` back-to-back
  units just before and just after it:
  ``raw * REFERENCE_PROBE_S / mean(before, after)``.

The two references differ because a unit run between two slices of an
operation finds its table evicted from the caches, while back-to-back
units find it warm.  Each metric always uses the same one of the two.

The kernel does dictionary lookups in shuffled order over a table of a
few megabytes and builds a small tuple-keyed dict, the access and
allocation pattern of the solver's tables: a kernel that stays in the
first-level cache does not slow down when the solver does.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import Dict, List, Optional, Sequence

#: Nominal kernel unit times of the reference host, back-to-back and
#: sampled inside an operation (about the medians on a 2-CPU x86-64 host
#: running Python 3.11).
REFERENCE_PROBE_S, REFERENCE_SAMPLE_S = 0.00035, 0.00055
#: In-operation samples needed to scale by them rather than by probes.
MIN_SAMPLES = 25
#: When the host changes speed, solve times move about 1.5 times as much
#: as the sampled kernel does, in log terms (fitted on the solves of four
#: ten-run sets on a 2-CPU x86-64 host); the exponent makes up for it.
SAMPLE_EXPONENT = 1.5
#: Kernel units per probe before or after an operation.
PROBE_UNITS = 40
#: CPU time between two in-operation samples.
SAMPLE_PERIOD_S = 0.02
#: Table entries; lookups and tuple-keyed inserts per unit.
TABLE_SIZE, UNIT_LOOKUPS, UNIT_INSERTS = 50_000, 600, 300

_table: Optional[Dict[int, int]] = None
_keys: List[int] = []
_cursor = 0


def _unit() -> int:
    """One kernel unit: shuffled lookups in the table, then a small
    tuple-keyed dict built and read back."""
    global _table, _keys, _cursor
    if _table is None:
        _table = {i * 7919: i for i in range(TABLE_SIZE)}
        _keys = list(_table)
        random.Random(1).shuffle(_keys)
    table, start = _table, _cursor
    acc = 0
    for key in _keys[start:start + UNIT_LOOKUPS]:
        acc += table[key] ^ (acc & 1023)
    _cursor = (start + UNIT_LOOKUPS) % (TABLE_SIZE - UNIT_LOOKUPS)
    built = {(i, i * 7 % 301): [i, acc] for i in range(UNIT_INSERTS)}
    for value in built.values():
        acc += value[0]
    return acc


def probe(units: int = PROBE_UNITS) -> float:
    """Mean wall time of one kernel unit over ``units`` back-to-back runs."""
    _unit()
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - start) / units


class Sampler:
    """Run one kernel unit per ``SAMPLE_PERIOD_S`` of CPU time while active.

    Use as a context manager around an operation in the main thread.
    ``samples`` holds the unit times; ``spent`` the handler's wall time,
    which the caller subtracts from the operation's.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _unit()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "Sampler":
        _unit()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def scale(raw: float, before: float, after: float, samples: Sequence[float] = ()) -> float:
    """``raw`` seconds re-expressed at the reference host speed."""
    if len(samples) >= MIN_SAMPLES:
        return raw * (REFERENCE_SAMPLE_S / trimmed_mean(samples)) ** SAMPLE_EXPONENT
    return raw * REFERENCE_PROBE_S * 2 / (before + after)


def trimmed_mean(values: Sequence[float], share: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``share`` of them."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def iqr_ratio(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
