#!/usr/bin/env python3
"""Benchmark of the skein library: four seeded workloads, end to end or traced.

Run from the root of a source checkout (the library is imported from
``src/``; nothing is installed or built):

    python3 skeinbench/run.py --workload resolve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched.
The timed loop runs whole passes over the seeded input pool, one op at a
time, at least MIN_PASSES of them, and ends within half a pass of
``--seconds``.

Times are in *reference seconds*.  On a shared host, other tenants slow
every process down in phases that last from seconds to minutes: identical
ops measured up to 1.8x apart between 20-second runs.  So before each op
(and each set-up probe) the benchmark times :func:`reference_work`, fixed
pure-Python work that never calls the library, and scales the op's wall
time by (REF_SECONDS / r) ** REF_EXPONENT, where r is the median of the
reference timings around the op: REF_BEFORE before it and REF_AFTER after
it.  On an idle core the reference loop takes about REF_SECONDS, so
reference seconds are close to wall seconds there.  Ops slow down less
than the loop does (hence the exponent), and not by quite the same factor
each time, so the scaling narrows the swings rather than removing them.
The raw wall figures and the reference loop's median time are recorded in
the metadata line.  The reference is timed with the garbage collector off,
so that collections the ops' allocations made due run inside the ops and
are not divided out of them.

* ``setup_s``: median over several fresh processes of the time from process
  start until the first op may begin (interpreter start, ``import skein``,
  input generation);
* ``throughput_ops_per_s``: pool size divided by the sum of the inputs'
  op times, each input's op time being its median over the passes;
* ``latency_p50_s``: the median of those per-input op times;
* ``latency_tail_s``: over every timed op of every pass, the highest
  nearest-rank percentile with at least ten ops beyond it (the percentile
  and the op count are recorded in the metadata line);
* ``peak_rss_mb``: peak resident set size of the workload process.

``resolve`` first runs one untimed pass to warm its shared memo.  Every
op's value is then checked against a reference from a second code path,
outside the timed loop; an op fails if it raises or its value differs.
``error_rate`` is failed / attempted, as carried by the ``failed`` and
``attempted`` keys.

``--trace 1`` runs the warm-up pass where there is one, then one untraced
and one traced pass over the same pool, and reports per-layer counts and
self times (see ``tracing.py``), the traced op time and its ratio to the
untraced one.  Self times are in reference seconds per op, so they add up
to ``trace.op_s``; a layer the workload never reaches reads 0.  Coarse
spans are written to ``.bench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's seed, backend, Python version, CPU count and git commit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh processes timed for ``setup_s``, after one untimed warm-up process
SETUP_PROBES = 11
#: passes the timed loop makes even when one pass outlasts ``--seconds``
MIN_PASSES = 3
#: timed ops that lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: wall time of :func:`reference_work` on an idle core of a 2-vCPU x86-64
#: VM under CPython 3.11 (its fastest of 1500 calls); time metrics are
#: scaled to that host speed
REF_SECONDS = 0.0013
#: reference timings before and after an op whose median gauges the host
#: speed during the op.  Host phases can turn within seconds: on a 2-vCPU
#: VM shared with other tenants, a window of five around the op cut the
#: run-to-run spread (IQR/median) of a pass's time from 0.13-0.21 in wall
#: seconds to about 0.05; trailing windows of 5 or 25 timings cut it less.
REF_BEFORE = 3
REF_AFTER = 2
#: how op times follow the reference's.  Over some 450 ops per workload,
#: timed across contention phases on that VM, log op time against log
#: reference time had least-squares slopes of 0.6-0.7, biased low by the
#: noise in single reference timings.  With 0.7, ten 20-second runs per
#: workload still read slower in contended phases on bracket and cable,
#: whose circle counting, like the loop, runs in a small working set, and
#: did not on resolve and flat; 0.8 lies between the two.
REF_EXPONENT = 0.8


class _Node:
    __slots__ = ("key", "pair", "items")

    def __init__(self, key, pair, items):
        self.key, self.pair, self.items = key, pair, items


def reference_work() -> int:
    """Fixed pure-Python work whose wall time gauges the host's speed.

    Tuple sorts and dict counts, then small-object allocation with dict
    churn: the staples of the library's inner loops.  It never calls the
    library, so a change to ``skein`` leaves it alone."""
    counts: dict = {}
    for i in range(1500):
        key = tuple(sorted((i * 7919 % 97, i % 13, i * 31 % 89)))
        counts[key] = counts.get(key, 0) + i
    live: dict = {}
    for i in range(750):
        k = i * 7919 % 4001
        live[k] = _Node(k, (i % 7, i % 11), [i, i + 1])
        if i % 3 == 0:
            live.pop(k * 31 % 4001, None)
    return len(counts) + len(live)


class HostSpeed:
    """Timings of :func:`reference_work`, one before each timed op, and the
    scaling of op times by them."""

    def __init__(self) -> None:
        self.all: list[float] = []
        for _ in range(REF_BEFORE - 1):
            self.time_reference()

    def time_reference(self) -> int:
        """Time the reference once more; return the number of timings.

        The collector is off meanwhile: a collection that the ops made due
        is then run by the next op, and its cost stays in the op's time."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        self.all.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()
        return len(self.all)

    def scaled(self, samples: list[tuple[float, int]]) -> list[float]:
        """Reference seconds of ``(wall seconds, timings before the op)``
        samples; times the reference REF_AFTER more times first."""
        for _ in range(REF_AFTER):
            self.time_reference()
        return [
            wall * (REF_SECONDS / statistics.median(self.all[n - REF_BEFORE : n + REF_AFTER]))
            ** REF_EXPONENT
            for wall, n in samples
        ]


def import_skein():
    """Import the library from ``src/`` of this checkout, and nothing else."""
    package = SRC / "skein" / "__init__.py"
    if not package.is_file():
        sys.exit(f"skeinbench: {package} not found; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import skein

    if Path(skein.__file__).resolve() != package.resolve():
        sys.exit(f"skeinbench: imported skein from {skein.__file__}, expected {package}")
    return skein


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def build(name: str, seed: int):
    skein = import_skein()
    import workloads

    workload = workloads.WORKLOADS[name]
    pool = workload.pool(random.Random(f"{name}:{seed}"), skein)
    return skein, workloads, workload, pool


def time_setup(argv: list[str], speed: HostSpeed) -> float:
    """Median time, in reference seconds, for a fresh process to reach its
    first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", *argv]
    samples = []
    for k in range(SETUP_PROBES + 1):
        n = speed.time_reference()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                sys.exit("skeinbench: set-up probe failed")
        if k:
            samples.append((t1 - t0, n))
    return statistics.median(speed.scaled(samples))


class Outcomes:
    """What the ops of one or more passes returned, per pool item."""

    def __init__(self, size: int):
        self.values: list[dict] = [{} for _ in range(size)]
        self.errors: list[list[str]] = [[] for _ in range(size)]
        self.times: list[list[float]] = [[] for _ in range(size)]
        self.attempted = 0

    def run_pass(self, pool, op, api, state, speed: HostSpeed | None = None) -> float:
        """Run every item once, in order; return the pass's wall time.  With
        ``speed``, record each op's time in reference seconds."""
        clock = time.perf_counter
        start = clock()
        samples = []
        for i, item in enumerate(pool):
            n = speed.time_reference() if speed else 0
            t0 = clock()
            try:
                value = op(api, item, state)
            except Exception as exc:  # a failing op is counted, and the run goes on
                self.errors[i].append(f"{type(exc).__name__}: {exc}")
            else:
                self.values[i][value] = self.values[i].get(value, 0) + 1
            samples.append((clock() - t0, n))
        wall_s = clock() - start
        times = speed.scaled(samples) if speed else [wall for wall, _ in samples]
        for i, t in enumerate(times):
            self.times[i].append(t)
        self.attempted += len(pool)
        return wall_s

    def failed(self, references: list) -> tuple[int, list[str]]:
        """Ops that raised, or returned other than the reference value."""
        failed, notes = 0, []
        for i, expected in enumerate(references):
            failed += len(self.errors[i])
            notes += self.errors[i][:1]
            for value, count in self.values[i].items():
                if isinstance(expected, Exception):
                    failed += count
                    notes.append(f"check raised {expected!r}")
                elif value != expected:
                    failed += count
                    notes.append(f"item {i}: value differs from the check")
        return failed, notes


def references(skein, workloads, workload, pool, seed) -> list:
    """The check's value for every pool item (an exception if it raised)."""
    ctx = workloads.CheckContext(rng=random.Random(f"check:{workload.name}:{seed}"))
    by_text: dict[str, object] = {}
    for item in pool:
        if item.text not in by_text:
            try:
                by_text[item.text] = workload.check(skein, item, ctx)
            except Exception as exc:  # a failing check fails every op it covers
                by_text[item.text] = exc
    return [by_text[item.text] for item in pool]


def tail_rank(n: int) -> int:
    """Nearest rank of the highest percentile with TAIL_BEYOND of n beyond it."""
    if n <= 2 * TAIL_BEYOND:
        raise ValueError(f"{n} timed ops have no tail beyond their median")
    return n - TAIL_BEYOND


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, meta: dict) -> tuple[dict, int, int, list[str]]:
    speed = HostSpeed()
    setup_s = time_setup(["--workload", args.workload, "--seed", str(args.seed)], speed)
    skein, workloads, workload, pool = build(args.workload, args.seed)
    state = workloads.State()
    warm = Outcomes(len(pool))
    if workload.warm_up:
        warm.run_pass(pool, workload.op, skein, state)
    timed = Outcomes(len(pool))
    passes, loop_s, pass_s = 0, 0.0, 0.0
    # whole passes, ending within half a pass of --seconds
    while passes < MIN_PASSES or loop_s + pass_s / 2 <= args.seconds:
        pass_s = timed.run_pass(pool, workload.op, skein, state, speed)
        loop_s += pass_s
        passes += 1
    # the checks below hold memos of their own; peak RSS is the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs = references(skein, workloads, workload, pool, args.seed)
    failed_warm, notes = warm.failed(refs)
    failed, more = timed.failed(refs)
    notes += more
    attempted = warm.attempted + timed.attempted
    op_s = [statistics.median(t) for t in timed.times]
    every_op_s = sorted(t for times in timed.times for t in times)
    rank = tail_rank(len(every_op_s))
    meta.update(backend=skein.backend_name(), warm_up_pass=workload.warm_up, passes=passes,
                pool=len(pool), loop_wall_s=round(loop_s, 4),
                wall_ops_per_s=round(timed.attempted / loop_s, 4),
                reference_median_ms=round(1000 * statistics.median(speed.all), 4),
                tail_percentile=round(100 * rank / len(every_op_s), 1),
                tail_samples=len(every_op_s),
                error_rate=(failed + failed_warm) / attempted, failures=notes[:5])
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "throughput_ops_per_s": metric(len(op_s) / sum(op_s), "1/s"),
        "latency_p50_s": metric(statistics.median(op_s), "s"),
        "latency_tail_s": metric(every_op_s[rank - 1], "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return metrics, attempted, failed + failed_warm, notes


def run_traced(args, meta: dict) -> tuple[dict, int, int, list[str]]:
    import tracing

    skein, workloads, workload, pool = build(args.workload, args.seed)
    state = workloads.State()
    outcomes = Outcomes(len(pool))
    if workload.warm_up:
        outcomes.run_pass(pool, workload.op, skein, state)
    speed = HostSpeed()
    untraced_wall_s = outcomes.run_pass(pool, workload.op, skein, state, speed)
    untraced_s = sum(t[-1] for t in outcomes.times)

    tracer = tracing.Tracer()
    api = SimpleNamespace(**{
        name: tracer.span(name, getattr(skein, name))
        for name in ("parse_diagram", "yamada", "bracket", "phi_plane", "full_report")
    })
    shared_before = len(state.memo)
    state.fresh_entries = 0
    tracer.install()
    try:
        traced_wall_s = outcomes.run_pass(pool, tracer.op(workload.op), api, state, speed)
    finally:
        tracer.uninstall()
    traced_s = sum(t[-1] for t in outcomes.times)
    entries = len(state.memo) + state.fresh_entries
    created = len(state.memo) - shared_before + state.fresh_entries

    failed, notes = outcomes.failed(references(skein, workloads, workload, pool, args.seed))
    gap = tracer.coverage_gap()
    if abs(gap) > 1e-6 * max(tracer.op_s, 1.0):
        failed += 1
        notes.append(f"layer self times miss the traced op time by {gap:.3g} s")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
    spans_file.write_text(json.dumps({
        "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
        "spans": tracer.spans,
    }))

    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    # the tracer's wall seconds, in reference seconds per op
    per_op = traced_s / tracer.op_s / len(pool)

    def own(layer: str) -> dict:
        return metric(self_s.get(layer, 0.0) * per_op, "s")

    def count(value: int) -> dict:
        return metric(value, "count")

    canon_calls = calls.get("core.canon_key", 0)
    metrics = {
        "diagrams.parse_diagram.self_s": own("diagrams.parse_diagram"),
        "yamada.expand.self_s": own("yamada.expand"),
        "diagrams.resolve_crossing.calls": count(calls.get("diagrams.resolve_crossing", 0)),
        "diagrams.resolve_crossing.self_s": own("diagrams.resolve_crossing"),
        "yamada.flat_eval.calls": count(calls.get("yamada.dc", 0)),
        "yamada.flat_states_distinct": count(len(tracer.flat_states)),
        "yamada.dc.self_s": own("yamada.dc"),
        "yamada.memo_entries": count(entries),
        "yamada.memo_hit_ratio": metric(1 - created / canon_calls if canon_calls else 0.0,
                                        "ratio"),
        "core.canon_key.calls": count(canon_calls),
        "core.canon_key.self_s": own("core.canon_key"),
        "core.state_circle_counts.calls": count(calls.get("core.state_circle_counts", 0)),
        "core.circle_states": count(counters.get("core.circle_states", 0)),
        "core.state_circle_counts.self_s": own("core.state_circle_counts"),
        "rings.localized.calls": count(calls.get("rings.localized", 0)),
        "rings.localized.self_s": own("rings.localized"),
        "tl.bracket.calls": count(calls.get("tl.bracket", 0)),
        "tl.bracket.self_s": own("tl.bracket"),
        "cabling.cable.calls": count(calls.get("cabling.cable", 0)),
        "cabling.terms": count(counters.get("cabling.terms", 0)),
        "cabling.cable.self_s": own("cabling.cable"),
        "symmetry.full_report.self_s": own("symmetry.full_report"),
        "other.self_s": own("other"),
        "trace.op_s": metric(traced_s / len(pool), "s"),
        "trace.overhead_ratio": metric(traced_s / untraced_s, "ratio"),
    }
    attempted = outcomes.attempted
    meta.update(backend=skein.backend_name(), warm_up_pass=workload.warm_up, pool=len(pool),
                untraced_wall_s=round(untraced_wall_s, 4),
                traced_wall_s=round(traced_wall_s, 4),
                coverage_gap_s=gap, spans=len(tracer.spans),
                spans_file=str(spans_file.relative_to(ROOT)),
                error_rate=failed / attempted, failures=notes[:5])
    return metrics, attempted, failed, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("resolve", "flat", "bracket", "cable"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_skein()

    if args.probe:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, notes = runner(args, meta)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'error_rate':40s} {meta['error_rate']:>14.6g} ratio")
    for note in notes[:5]:
        print(f"failure: {note}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
