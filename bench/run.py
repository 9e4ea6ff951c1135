"""Benchmark of the surfmoduli library: four seeded workloads, answer
checks against independent oracles, and per-layer times from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``verdict``, ``listing``, ``abelian-scan``, ``braids-branch`` or
``all``.  Run it from anywhere; it benchmarks the library in ``src/`` next
to this directory.  Each pass runs in a fresh child process (``child.py``):
a closed loop with one client, one query at a time, on one thread.  Passes
repeat while the next one is expected to end within S seconds; every run
makes at least one.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over its passes: ``wall_ref`` and ``cpu_ref`` (the query window's wall and
CPU time in units of a fixed reference block timed alongside the queries,
see ``child.py``), ``setup_s`` (over the passes and extra set-up-only
children) and ``peak_rss_mb``.  The summary also prints the window's
``wall_s`` and ``cpu_s`` in seconds.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
``layers.json``, medians over the traced passes, plus
``trace.overhead_frac`` (median traced over median untraced ``wall_s``,
minus 1).  A run also reports ``failed_frac``: queries that raised, ran
over their budget, or gave an answer the oracles reject, over queries
attempted.

The summary goes to stdout, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (seed, Python
version, platform, nproc, git rev, query budgets, every pass) and the spans
of the last traced pass go to ``.bench_out/`` at the repository root.  The
exit code is 1 when an answer is wrong or a traced wrapper never fired
where ``layers.json`` says it must, and 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_PROBES = 10
HARD_LIMIT_S = 165  # a run must end within 180 s, whatever the library does


def child(workload: str, seed: int, timeout: float, trace_file=None, setup_only=False):
    """Run one child; return (result, None) or (None, why it failed)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return None, f"pass killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"pass exited with code {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + seconds
    trace_file = OUT / f"{workload}-spans.tsv" if trace else None

    def remaining():
        return HARD_LIMIT_S - (time.perf_counter() - started)

    # compiles bytecode and warms the file cache; not measured
    _, error = child(workload, seed, remaining(), setup_only=True)
    if error is not None:
        raise SystemExit(f"{workload}: set-up failed: {error}")
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            result, error = child(workload, seed, remaining(), setup_only=True)
            if result is not None:
                setups.append(result["setup_s"])

    passes = {False: [], True: []}  # untraced, traced
    took = {False: 0.0, True: 0.0}
    crashed = []
    traced = False
    while True:
        if trace:
            traced = bool(passes[False]) and len(passes[True]) < len(passes[False])
        done = bool(passes[False]) and (bool(passes[True]) or not trace)
        now = time.perf_counter()
        if done and (now + took[traced] > deadline or remaining() < took[traced]):
            break
        if not done and remaining() <= 0:
            break
        result, error = child(
            workload, seed, remaining(), trace_file=trace_file if traced else None
        )
        took[traced] = time.perf_counter() - now
        if result is None:
            crashed.append(error)
            if remaining() < took[traced] or not done:
                break
            continue
        passes[traced].append(result)
    return summarize(workload, seed, seconds, trace, passes, setups, crashed)


def summarize(workload, seed, seconds, trace, passes, setups, crashed) -> dict:
    plain, traced = passes[False], passes[True]
    every = plain + traced
    records = [q for p in every for q in p["queries"]]
    per_pass = max((len(p["queries"]) for p in every), default=1)
    attempted = len(records) + per_pass * len(crashed)
    errors = [f"{q['query']}: {q['error']}" for q in records if "error" in q] + crashed
    coverage = sorted({why for p in traced for why in p["coverage_problems"]})
    setups = setups + [p["setup_s"] for p in plain]

    def median(key, passes_):
        return statistics.median(p[key] for p in passes_)

    if not plain or (trace and not traced):
        metrics, units = {}, {}
    elif not trace:
        metrics = {
            "wall_ref": median("wall_ref", plain),
            "cpu_ref": median("cpu_ref", plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median("peak_rss_mb", plain),
        }
        units = dict(E2E_UNITS)
    else:
        units = {m["name"]: m["unit"] for m in tracer.load_table()["metrics"]}
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in units
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = median("wall_s", traced) / median("wall_s", plain) - 1
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setups": len(setups),
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "coverage_problems": coverage,
        "metrics": metrics,
        "units": units,
        "times_s": {k: median(k, plain) for k in ("wall_s", "cpu_s")} if plain else {},
        "budgets_s": {q["query"]: q["budget_s"] for p in every for q in p["queries"]},
        "pass_records": every,
    }


def environment() -> dict:
    rev = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            rev = "unknown"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
    }


def report(summary: dict) -> None:
    s = summary
    mode = "traced and untraced" if s["trace"] else "untraced"
    print(
        f"{s['workload']}: seed {s['seed']}, {s['passes']} untraced + {s['traced_passes']} "
        f"traced passes ({mode}; closed loop, 1 client, 1 thread, fresh process per pass)"
    )
    for name, value in s["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"median of {s['setups']} set-ups"
        elif name in E2E_UNITS:
            note = f"median of {s['passes']} passes"
        else:
            note = f"median of {s['traced_passes']} traced passes"
        print(f"  {name:<42} {value:>14.6f} {s['units'][name]:<8} {note}")
    for name, value in s["times_s"].items():
        print(f"  {name:<42} {value:>14.6f} {'s':<8} median of {s['passes']} passes")
    frac = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"  {'failed_frac':<42} {frac:>14.6f} {'ratio':<8} {s['failed']} of {s['attempted']} queries")
    for why in s["errors"][:20] + s["coverage_problems"]:
        print(f"  FAILED {why}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "surfmoduli" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'surfmoduli'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    OUT.mkdir(exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summaries = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    env = environment()
    for s in summaries:
        report(s)
        record = OUT / f"{s['workload']}-seed{s['seed']}-trace{s['trace']}.json"
        record.write_text(json.dumps(dict(s, environment=env), indent=1, default=str) + "\n")

    correct = all(s["failed"] == 0 and not s["coverage_problems"] for s in summaries)
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for name, value in s["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": s["units"][name]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
