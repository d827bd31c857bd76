"""A host-normalised clock for timing one pinned, CPU-bound process.

On a shared virtual machine the same work can take 1.0x or 1.5x as
long depending on what the neighbours do, and the phases last
seconds.  Raw wall time therefore moves by tens of percent between
runs of identical code.  This clock removes both kinds of host noise:

* **Time-sharing.** The clock counts process CPU time
  (``CLOCK_PROCESS_CPUTIME_ID``) instead of wall time, so the time a
  competing process holds the CPU is not charged to the benchmark.
* **Speed flips.** Every ``INTERVAL_S`` of wall time a ``SIGALRM``
  handler runs a fixed pure-Python reference probe (~1 ms of dict
  lookups, attribute reads, float math, small sorts and formatting)
  and times it.  Each slice of CPU time since the previous probe is
  rescaled by ``REF_PROBE_S / probe`` (the median of the last few
  probes), so a slice run at half speed counts half.

Like CLASP's per-pair reference ``V_H = (Tmax - T) / Tmax``, the clock
judges the work against a reference measured on the same host at the
same time rather than trusting raw time on shared infrastructure.  A
normalised second is a second of CPU time on a host where the probe
takes exactly ``REF_PROBE_S``.  Probe time itself is excluded.

The timer is ``ITIMER_REAL``: on Linux an armed ``ITIMER_PROF`` makes
the process CPU clock advance in coarse steps, which would corrupt
the probe.  The clock is meant for a process that is already pinned
to one CPU and runs no extra threads; ``now()`` is safe to call from
the main thread while the handler is armed.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import Dict, List, Optional, Tuple

#: Iterations of the reference probe per table (about 1 ms in all).
PROBE_LOOPS = 400
#: Entries of the probe's two tables.  The small one stays in the L2
#: cache; the large one (~5 MB) does not, so the probe also waits on
#: memory, as the pipeline's large object graph does.  Over four sets
#: of repeated runs of one seed, the small table alone left the
#: rescaled run totals up to 4-10% apart, the pair up to 4-6.5%.
TABLE_SIZES = (1 << 11, 1 << 15)
#: The probe's duration on the nominal host.  Normalised seconds are
#: seconds at that speed; the constant only sets the scale.
REF_PROBE_S = 1.2e-3
#: Probes whose median sets the current speed factor.
PROBE_WINDOW = 5
#: Wall seconds between probes (~2% of the time goes to probing).
INTERVAL_S = 0.05


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, i: int) -> None:
        self.a = i * 0.5
        self.b = float(i % 97)
        self.c = i % 13


def _probe_tables() -> List[Dict[int, _Item]]:
    """The probe's working set: small objects behind a dict, as in the
    pipeline's own object graph."""
    return [{i: _Item(i) for i in range(size)} for size in TABLE_SIZES]


def _probe(tables: List[Dict[int, _Item]], offset: int) -> float:
    """Run the fixed reference work; returns its CPU seconds.

    The work mixes what the pipeline itself spends its time on - dict
    lookups, attribute reads, float math, small sorts, string
    formatting - so a host phase slows the probe about as much as it
    slows the pipeline.  A plain integer loop slows less.  Successive
    probes start at successive *offset*s, so each reads entries of the
    large table that the last ones did not leave in the cache, however
    little work runs in between.
    """
    start = time.process_time()
    acc = 0.0
    for table in tables:
        mask = len(table) - 1
        for i in range(PROBE_LOOPS):
            item = table[((offset + i) * 7919) & mask]
            acc += item.a * 1.5 + math.sqrt(item.b + 1.0)
            row = [item.c, i % 11, item.a]
            row.sort()
            acc += len(f"{i}:{item.c}")
    return time.process_time() - start


class NormClock:
    """CPU time rescaled by a periodic reference probe.

    ``start()`` arms the probe timer; ``now()`` reads normalised
    seconds since process start (interpreter start-up included, at the
    first probe's speed); ``wall()`` reads raw ``perf_counter``
    seconds for the ``wall.*`` diagnostics.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        # (normalised seconds, CPU seconds, factor) at the last probe
        # end, replaced as one tuple so a read never sees a torn state.
        self._state: Tuple[float, float, float] = (0.0, 0.0, 1.0)
        self._previous_handler: Optional[object] = None
        self._probing = False
        self._tables: List[Dict[int, _Item]] = []
        #: Process CPU seconds spent before ``start()``.
        self.started_cpu = 0.0

    # ------------------------------------------------------------------

    def _run_probe(self) -> None:
        offset = len(self.probes) * PROBE_LOOPS
        self.probes.append(_probe(self._tables, offset))

    def _factor(self) -> float:
        recent = self.probes[-PROBE_WINDOW:]
        return REF_PROBE_S / statistics.median(recent)

    def _tick(self, *_args: object) -> None:
        if self._probing:
            # An alarm during a probe: that probe already covers it.
            return
        self._probing = True
        begin = time.process_time()
        base_norm, base_cpu, factor = self._state
        self._run_probe()
        new_factor = self._factor()
        # The slice ran between two probes: weight it by both.
        norm = base_norm + (begin - base_cpu) * 0.5 * (factor + new_factor)
        self._state = (norm, time.process_time(), new_factor)
        self._probing = False

    def sample(self) -> None:
        """Probe now, between two timed units of work.

        Timings shorter than the alarm interval (one simulated hour is
        ~10-100 ms) are then rescaled by probes taken at their own
        boundaries rather than by ones up to ``INTERVAL_S`` away.
        """
        self._tick()

    def start(self) -> "NormClock":
        # Interpreter start-up ran before the clock existed: charge it
        # at the first measured speed, leaving out the clock's own
        # set-up and first probes.
        self.started_cpu = time.process_time()
        self._tables = _probe_tables()
        for _ in range(3):
            self._run_probe()
        cpu = time.process_time()
        factor = self._factor()
        self._state = (self.started_cpu * factor, cpu, factor)
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    # ------------------------------------------------------------------

    def now(self) -> float:
        """Normalised seconds since the process started."""
        base_norm, base_cpu, factor = self._state
        return base_norm + (time.process_time() - base_cpu) * factor

    @staticmethod
    def wall() -> float:
        return time.perf_counter()

    def slowdown_p50(self) -> float:
        """Median probe time over the reference (1.0 = nominal host)."""
        return statistics.median(self.probes) / REF_PROBE_S
