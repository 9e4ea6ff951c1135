"""One benchmark pass in a fresh process.

    python3 bench/child.py --workload NAME --seed N [--trace FILE] [--setup-only]

Run by ``run.py`` with ``src`` on ``PYTHONPATH``.  The pass imports the
library and builds the workload's inputs (``setup_s``), then sends the
queries one at a time, each under its own time budget: a closed loop with
one client on one thread.  ``wall_s`` and ``cpu_s`` cover the first query's
start to the last answer; the answers are checked after that window.
``peak_rss_mb`` is ``ru_maxrss`` read at the end of the window, so the
checks' memory is not counted.

An untraced pass also times a fixed piece of pure-Python work, the
reference block, every ``REF_PERIOD_S`` of CPU time inside the window (a
SIGPROF handler).  ``wall_s`` and ``cpu_s`` leave the blocks out, and
``wall_ref`` and ``cpu_ref`` give the same time in reference blocks: each
stretch of ``REF_CHUNK`` samples is divided by the median block time within
it.  A shared host changes its speed by tens of percent from one second to
the next; the block, timed in the same moments as the library, slows with
it, so the ratio does not.

With ``--trace FILE`` the public library functions are wrapped (see
``tracer.py``), per-layer metrics are reported, and the spans are written
to FILE.  The pass prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path


class OverBudget(BaseException):
    """Raised by the alarm when a query runs past its budget.

    A BaseException, so no ``except Exception`` in the library can swallow it.
    """


def _alarm(signum, frame):
    raise OverBudget


REF_PERIOD_S = 0.02  # CPU seconds between reference blocks
REF_CHUNK = 25  # samples per stretch normalised by one median

# Eight fixed permutations of 1..8 for the reference block.
_REF_PERMS = (
    (2, 3, 4, 5, 6, 7, 8, 1), (2, 1, 3, 4, 5, 6, 7, 8), (3, 1, 2, 5, 4, 8, 6, 7),
    (8, 7, 6, 5, 4, 3, 2, 1), (1, 3, 5, 7, 2, 4, 6, 8), (4, 8, 1, 5, 2, 6, 3, 7),
    (5, 6, 7, 8, 1, 2, 3, 4), (6, 2, 8, 4, 1, 7, 3, 5),
)


def reference_block() -> int:
    """Fixed work of the library's kind: permutation products kept in a
    set, then integer arithmetic.  About half a millisecond."""
    seen = set()
    p = _REF_PERMS[0]
    for _ in range(60):
        for q in _REF_PERMS:
            p = tuple(p[j - 1] for j in q)
            seen.add(p)
    total = 0
    for i in range(1500):
        total += i * i % 7
    return len(seen) + total


class Sampler:
    """Times ``reference_block`` every ``REF_PERIOD_S`` of CPU time."""

    def __init__(self):
        self.samples = []  # (wall start, cpu start, wall time taken)
        self.running = False

    def _tick(self, signum, frame):
        if self.running:
            self.samples.append(self._time_block())

    @staticmethod
    def _time_block():
        # Taken on the wall clock for both clocks: inside the handler the CPU
        # clock can lag by a whole timer period on some kernels.  A block
        # runs on one thread, so the two agree unless it was descheduled,
        # which the medians below absorb.
        wall, cpu = time.perf_counter(), time.process_time()
        reference_block()
        return wall, cpu, time.perf_counter() - wall

    def start(self):
        self.samples.clear()
        self.running = True
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self):
        # the handler stays: a signal already on its way finds it idle
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.running = False

    def normalise(self, start: float, end: float, clock: int) -> tuple[float, float]:
        """Time from ``start`` to ``end`` on ``clock`` (0 wall, 1 CPU), the
        reference blocks left out: in seconds, and in reference blocks."""
        samples = list(self.samples)
        while len(samples) < REF_CHUNK:  # a window too short to sample
            samples.append((end, end, self._time_block()[2]))
        chunks = max(1, len(samples) // REF_CHUNK)
        bounds = [round(k * len(samples) / chunks) for k in range(chunks + 1)]
        seconds = blocks = 0.0
        for k in range(chunks):
            chunk = samples[bounds[k] : bounds[k + 1]]
            lo = start if k == 0 else chunk[0][clock]
            hi = end if k == chunks - 1 else samples[bounds[k + 1]][clock]
            net = hi - lo - sum(s[2] for s in chunk if s[clock] < end)
            seconds += net
            blocks += net / statistics.median(s[2] for s in chunk)
        return seconds, blocks


def run_queries(queries, tracer=None, sampler=None) -> tuple[list[dict], dict]:
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        return _run_queries(queries, tracer, sampler)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _run_queries(queries, tracer, sampler):
    records = []
    if sampler is not None:
        sampler.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        record = {"query": q.name, "budget_s": q.budget_s}
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, q.budget_s)
            try:
                record["answer"] = q.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OverBudget:
            record["error"] = f"over its {q.budget_s} s budget"
        except Exception as exc:  # a failed query is counted, the pass goes on
            record["error"] = f"raised {type(exc).__name__}: {exc}"
        record["wall_s"] = time.perf_counter() - start
        records.append(record)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    if sampler is None:
        return records, {"wall_s": wall1 - wall0, "cpu_s": cpu1 - cpu0}
    sampler.stop()
    times = {}
    times["wall_s"], times["wall_ref"] = sampler.normalise(wall0, wall1, 0)
    times["cpu_s"], times["cpu_ref"] = sampler.normalise(cpu0, cpu1, 1)
    times["ref_samples"] = len(sampler.samples)
    return records, times


def check_answers(queries, records) -> None:
    for q, record in zip(queries, records):
        if "error" in record:
            continue
        try:
            why = q.check(record.pop("answer"))
        except Exception as exc:  # a malformed answer is a wrong answer
            why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            record["error"] = f"wrong answer: {why}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    plan = workloads.plan(args.workload, args.seed)

    setup0 = time.perf_counter()
    import surfmoduli  # the import is part of set-up

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(tracing.load_table())
        tracer.install()
    queries = workloads.build(args.workload, plan)
    out = {"setup_s": time.perf_counter() - setup0}
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(surfmoduli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported {surfmoduli.__file__}, not the library under {src}")
    if args.setup_only:
        print(json.dumps(out))
        return 0

    records, times = run_queries(queries, tracer, None if tracer else Sampler())
    out.update(times)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    check_answers(queries, records)
    out["queries"] = records
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["coverage_problems"] = tracer.coverage_problems(args.workload)
        tracer.write_spans(Path(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
