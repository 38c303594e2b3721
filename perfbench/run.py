"""The repository benchmark: figure-matrix sweeps and live cells.

Run from the repository root::

    python3 perfbench/run.py --workload matrix-cold --seed 1 --seconds 45 --trace 0

Workloads (each a closed-loop batch: one process submits every cell at once
and at most ``jobs`` workers each take the next cell when free):

``matrix-cold``
    A mini figure matrix (5 spec17 kernels x 3 configs, Spectre model)
    swept through ``Session`` with ``jobs = nproc``, replay on, and an empty
    result cache and trace store on every pass.
``matrix-warm``
    The same cells against a result cache that set-up filled with one cold
    pass; no cell executes, so it isolates cache keying and reads.  It is
    not in ``BENCHMARK.json``: its ~3 s passes of parent-side hashing swing
    with host noise more than the bound allows.
``cells-live``
    Four kernels x 3 configs run serially in-process through ``execute()``
    with the golden ISS on and no cache, pool or replay: per-cycle cost.

``--trace 0`` prints the end-to-end metrics of untraced passes.  ``--trace 1``
prints the per-layer metrics: engine metrics from untraced passes' event
streams, then one serial untraced and one serial traced pass (see
``spans.py``), whose spans are written under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--write-digests``
regenerates ``digests.json`` from live (non-replayed) runs at the default
seed instead of benchmarking.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DIGESTS_PATH = BENCH_DIR / "digests.json"

WORKLOADS = ("matrix-cold", "matrix-warm", "cells-live")
#: The seed whose per-cell metric digests are committed in digests.json.
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"matrix-cold": 5, "matrix-warm": 2, "cells-live": 5}
#: Passes every untraced run makes, whatever ``--seconds`` says.  The tail
#: percentile is fixed from this count: the highest one with TAIL_BEYOND
#: samples above it in a minimal run, so it marks the same cell rank however
#: many passes a run makes.
MIN_PASSES = {"matrix-cold": 4, "matrix-warm": 3, "cells-live": 6}
MAX_PASSES = 50
#: Cells beyond the reported tail percentile.
TAIL_BEYOND = 10


def _load_repro() -> None:
    """Put the checkout's ``src`` on the path, or exit without a result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no simulator sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def process_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------- #
# One pass over a workload's cells
# ---------------------------------------------------------------------- #


class EventClock:
    """Event observer: every ``RunEvent`` with the host time it arrived."""

    def __init__(self) -> None:
        self.events: list = []

    def __call__(self, event) -> None:
        self.events.append((time.perf_counter(), event))


@dataclass
class Pass:
    jobs: int
    wall_s: float
    parent_cpu_s: float
    outcomes: list
    events: list
    digests: list = field(default_factory=list)

    def cell_times(self) -> dict[int, float]:
        """Host seconds per cell: the worker's execution time for an
        executed cell; for a cache hit, the time since the previous
        queued/hit event (the parent resolves hits one after another)."""
        from repro.sim.events import CACHE_HIT, FINISHED, QUEUED

        times: dict[int, float] = {}
        mark = None
        for stamp, event in self.events:
            if event.kind == QUEUED:
                mark = stamp
            elif event.kind == CACHE_HIT:
                times[event.index] = stamp - mark
                mark = stamp
            elif event.kind == FINISHED:
                times[event.index] = event.wall_time
        return times

    def executed(self) -> set[int]:
        """Indices of the cells that ran (rather than hit the cache)."""
        from repro.sim.events import FAILED, FINISHED

        return {e.index for _, e in self.events if e.kind in (FINISHED, FAILED)}

    def engine(self) -> dict[str, float]:
        from repro.sim.events import CACHE_HIT, FAILED, FINISHED, QUEUED, STARTED

        queued, started, waits = {}, {}, []
        busy = observed = 0.0
        hits = executed = 0
        for stamp, event in self.events:
            if event.kind == QUEUED:
                queued[event.index] = stamp
            elif event.kind == STARTED:
                started[event.index] = stamp
                waits.append(stamp - queued[event.index])
            elif event.kind in (FINISHED, FAILED):
                executed += 1
                busy += event.wall_time or 0.0
                observed += stamp - started[event.index]
            elif event.kind == CACHE_HIT:
                hits += 1
        return {
            "engine.parent_cpu_s": self.parent_cpu_s,
            "engine.pool_util": busy / (self.jobs * self.wall_s),
            "engine.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
            "engine.settle_lag_s": observed - busy,
            "engine.cache_hits": hits,
            "engine.cells_executed": executed,
        }


def run_pass(requests, *, jobs: int, cache_dir: Path | None, replay: bool) -> Pass:
    from cells import digest
    from repro.sim.api import RunMetrics, Session
    from repro.sim.policies import CachePolicy, ExecutionPolicy

    clock = EventClock()
    cache = (
        CachePolicy(cache_dir=str(cache_dir))
        if cache_dir is not None
        else CachePolicy(enabled=False)
    )
    with Session(
        execution=ExecutionPolicy(jobs=jobs, replay=replay), cache=cache, observers=[clock]
    ) as session:
        cpu0 = process_cpu_s()
        t0 = time.perf_counter()
        outcomes = session.run_many(requests)
        wall = time.perf_counter() - t0
        cpu = process_cpu_s() - cpu0
    digests = [digest(o) if isinstance(o, RunMetrics) else None for o in outcomes]
    return Pass(jobs, wall, cpu, outcomes, clock.events, digests)


# ---------------------------------------------------------------------- #
# Workload driver
# ---------------------------------------------------------------------- #


class Bench:
    """One benchmark run: set-up, passes, correctness accounting."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.jobs = 1 if workload == "cells-live" else nproc()
        self.replay = workload != "cells-live"
        self.cells = None
        self.warm_dir: Path | None = None
        self.reference: list | None = None
        self.setup_times: list[float] = []
        self._dirs = 0
        self.attempted = 0
        self.failed = 0
        self.expected = self._committed_digests() if seed == DEFAULT_SEED else None

    def _committed_digests(self) -> dict[str, str]:
        table = json.loads(DIGESTS_PATH.read_text())
        return table["cells-live" if self.workload == "cells-live" else "matrix"]

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.workdir / f"cache-{self._dirs}"

    def setup(self) -> None:
        """Build the cells (and, for matrix-warm, fill the result cache)."""
        from cells import build_cells

        t0 = time.perf_counter()
        self.cells = build_cells(self.workload, self.seed)
        fill = None
        if self.workload == "matrix-warm":
            if self.warm_dir is not None:
                shutil.rmtree(self.warm_dir, ignore_errors=True)
            self.warm_dir = self.fresh_dir()
            fill = run_pass(
                self.cells.requests, jobs=self.jobs, cache_dir=self.warm_dir, replay=True
            )
        self.setup_times.append(time.perf_counter() - t0)
        if fill is not None:
            # Warm outcomes must equal the cold pass that produced them.
            self.reference = fill.digests
            self.account(fill, count=False)

    def one_pass(self, *, jobs: int | None = None) -> Pass:
        cache_dir = None
        if self.workload == "matrix-warm":
            cache_dir = self.warm_dir
        elif self.workload == "matrix-cold":
            cache_dir = self.fresh_dir()
        result = run_pass(
            self.cells.requests, jobs=jobs or self.jobs, cache_dir=cache_dir,
            replay=self.replay,
        )
        if self.workload == "matrix-cold":
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.account(result)
        return result

    def account(self, result: Pass, count: bool = True) -> None:
        """Check every outcome; a bad cell counts as failed."""
        from repro.sim.api import RunMetrics

        labels = self.cells.labels()
        if self.reference is None:
            self.reference = result.digests
        bad = 0
        for index, outcome in enumerate(result.outcomes):
            found = result.digests[index]
            ok = (
                isinstance(outcome, RunMetrics)
                and outcome.halted
                and found == self.reference[index]
                and (self.expected is None or self.expected.get(labels[index]) == found)
            )
            if not ok:
                bad += 1
                print(f"check failed: {labels[index]}: {outcome!s:.300}", file=sys.stderr)
        if count:
            self.attempted += len(result.outcomes)
            self.failed += bad
        elif bad:
            raise SystemExit(f"error: set-up pass produced {bad} bad cells")

    def measure(self, seconds: float, min_passes: int) -> list[Pass]:
        passes: list[Pass] = []
        t0 = time.perf_counter()
        while len(passes) < MAX_PASSES:
            elapsed = time.perf_counter() - t0
            if len(passes) >= min_passes and elapsed + statistics.median(
                p.wall_s for p in passes
            ) > seconds:
                break
            passes.append(self.one_pass())
        return passes


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(bench: Bench, passes: list[Pass]) -> tuple[dict, dict]:
    from cells import CONFIG_SLUGS
    from repro.sim.api import RunMetrics

    configs = [request.config.name for request in bench.cells.requests]
    per_pass = {key: [] for key in ("wall_s", "cells_per_s", "sim_kips", "sim_kcps")}
    per_config = {slug: [] for slug in CONFIG_SLUGS.values()}
    samples: list[float] = []
    for result in passes:
        times = result.cell_times()
        samples.extend(times.values())
        done = [o for o in result.outcomes if isinstance(o, RunMetrics)]
        per_pass["wall_s"].append(result.wall_s)
        per_pass["cells_per_s"].append(len(result.outcomes) / result.wall_s)
        per_pass["sim_kips"].append(sum(o.instructions for o in done) / result.wall_s / 1e3)
        per_pass["sim_kcps"].append(sum(o.cycles for o in done) / result.wall_s / 1e3)
        for name, slug in CONFIG_SLUGS.items():
            cycles = host = 0.0
            for index, outcome in enumerate(result.outcomes):
                if configs[index] == name and isinstance(outcome, RunMetrics):
                    cycles += outcome.cycles
                    host += times[index]
            per_config[slug].append(cycles / host / 1e3 if host else 0.0)
    minimum = MIN_PASSES[bench.workload] * len(bench.cells.requests)
    tail_q = (minimum - 1 - TAIL_BEYOND) / (minimum - 1)
    metrics = {
        "setup_s": (statistics.median(bench.setup_times), "s"),
        "wall_s": (statistics.median(per_pass["wall_s"]), "s"),
        "cells_per_s": (statistics.median(per_pass["cells_per_s"]), "1/s"),
        "sim_kips": (statistics.median(per_pass["sim_kips"]), "kinstr/s"),
        "sim_kcps": (statistics.median(per_pass["sim_kcps"]), "kcycles/s"),
    }
    for slug, values in per_config.items():
        metrics[f"sim_kcps.{slug}"] = (statistics.median(values), "kcycles/s")
    metrics["cell_p50_s"] = (statistics.median(samples), "s")
    metrics["cell_tail_s"] = (quantile(samples, tail_q), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    facts = {
        "passes": len(passes),
        "cell_samples": len(samples),
        "cell_tail_percentile": round(100 * tail_q, 2),
    }
    return metrics, facts


def per_layer(bench: Bench, pool: list[Pass], serial: Pass, traced: Pass, tracer) -> dict:
    """Engine metrics from the untraced ``pool`` passes; every other layer
    from the ``traced`` pass's spans and outcomes."""
    from cells import CONFIG_SLUGS
    from repro.sim.api import RunMetrics
    from spans import MEMORY_OPS

    metrics: dict[str, tuple[float, str]] = {}
    engine = [result.engine() for result in pool]
    units = {
        "engine.parent_cpu_s": "s", "engine.pool_util": "ratio",
        "engine.queue_wait_p50_s": "s", "engine.settle_lag_s": "s",
        "engine.cache_hits": "count", "engine.cells_executed": "count",
    }
    for name, unit in units.items():
        metrics[name] = (statistics.median(e[name] for e in engine), unit)

    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def count(metric, span):
        metrics[metric] = (calls(span), "count")

    def time_of(metric, *spans):
        metrics[metric] = (sum(seconds(span) for span in spans), "s")

    outcomes = [o for o in traced.outcomes if isinstance(o, RunMetrics)]
    ran = traced.executed()
    executed = len(ran)
    executed_cycles = sum(
        o.cycles for i, o in enumerate(traced.outcomes) if i in ran and isinstance(o, RunMetrics)
    )

    count("cache.key_calls", "cache.key")
    time_of("cache.key_s", "cache.key")
    count("cache.get_calls", "cache.get")
    time_of("cache.get_s", "cache.get")
    hits = traced.engine()["engine.cache_hits"]
    metrics["cache.hit_ratio"] = (hits / calls("cache.get") if calls("cache.get") else 0.0, "ratio")
    count("cache.put_calls", "cache.put")
    time_of("cache.put_s", "cache.put")

    count("replay.record_calls", "replay.record")
    time_of("replay.record_s", "replay.record")
    time_of("replay.trace_key_s", "replay.trace_key")
    time_of("replay.store_get_s", "replay.store_get")
    time_of("replay.store_put_s", "replay.store_put")
    metrics["replay.replayed_frac"] = (
        calls("replay.execute") / executed if executed else 0.0, "ratio"
    )

    count("golden.iss_steps", "golden.iss_step")
    time_of("golden.iss_step_s", "golden.iss_step")
    count("golden.cursor_steps", "golden.cursor_step")
    time_of("golden.cursor_step_s", "golden.cursor_step")

    count("execute.calls", "execute")
    time_of("execute.s", "execute")
    time_of("execute.build_s", "build.core", "build.hierarchy", "build.protection")
    time_of("memory.warm_s", "memory.warm")

    time_of("core.run_s", "core.run")
    steps = calls("core.step")
    count("core.steps", "core.step")
    metrics["core.stepped_frac"] = (steps / executed_cycles if executed_cycles else 0.0, "ratio")
    metrics["core.step_self_s"] = (totals.get("core.step", (0, 0.0, 0.0))[2], "s")
    metrics["core.us_per_step"] = (seconds("core.step") / steps * 1e6 if steps else 0.0, "us")

    for op in MEMORY_OPS:
        count(f"memory.{op}_calls", f"memory.{op}")
        time_of(f"memory.{op}_s", f"memory.{op}")

    hits_l1 = sum(o.stats.get("mem.hits_l1", 0) for o in outcomes)
    accesses = sum(
        value for o in outcomes for key, value in o.stats.items() if key.startswith("mem.hits_")
    )
    metrics["sim.mem.l1_miss_ratio"] = (1 - hits_l1 / accesses if accesses else 0.0, "ratio")

    configs = [request.config.name for request in bench.cells.requests]

    def hook_config(name, cell):
        if name.startswith("protection.") and cell >= 0:
            return CONFIG_SLUGS.get(configs[cell])
        return None

    hooks = tracer.totals(key=hook_config)
    hook_calls = sum(entry[0] for key, entry in hooks.items() if key is not None)
    hook_s = sum(entry[1] for key, entry in hooks.items() if key is not None)
    metrics["protection.hook_calls"] = (hook_calls, "count")
    metrics["protection.hook_s"] = (hook_s, "s")
    for slug in CONFIG_SLUGS.values():
        entry = hooks.get(slug, (0, 0.0, 0.0))
        metrics[f"protection.hook_calls.{slug}"] = (entry[0], "count")
        metrics[f"protection.hook_s.{slug}"] = (entry[1], "s")

    hybrid = [o for o in outcomes if o.config == "Hybrid"]
    predictions = sum(o.stats.get("stt.sdo.predictions", 0) for o in hybrid)
    precise = sum(o.stats.get("stt.sdo.precise", 0) for o in hybrid)
    metrics["sim.sdo.precision"] = (precise / predictions if predictions else 0.0, "ratio")
    metrics["sim.sdo.squashes"] = (sum(o.squashes for o in outcomes), "count")

    metrics["trace.overhead_frac"] = (traced.wall_s / serial.wall_s - 1, "ratio")
    metrics["trace.spans"] = (len(tracer), "count")
    return metrics


# ---------------------------------------------------------------------- #
# Host facts, output
# ---------------------------------------------------------------------- #


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly (None outside git)."""
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


def source_digest() -> str:
    """SHA-256 over the simulator sources: identifies the code under test
    even where the checkout is not a git repository."""
    sha = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        sha.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def host_facts(jobs: int) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "jobs": jobs,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def emit(args, bench: Bench, metrics: dict, facts: dict) -> None:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(bench.jobs),
        **facts,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for key, value in {**record["host"], **facts}.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": record["metrics"],
            }
        )
    )


def write_digests() -> None:
    """Regenerate digests.json from live runs of every cell at DEFAULT_SEED."""
    from cells import build_cells, cell_label, digest
    from repro.sim.api import execute

    table = {}
    for kind, workload in (("matrix", "matrix-cold"), ("cells-live", "cells-live")):
        cells = build_cells(workload, DEFAULT_SEED)
        table[kind] = {cell_label(r): digest(execute(r)) for r in cells.requests}
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def traced_run(bench: Bench, args) -> tuple[dict, dict]:
    """Engine metrics from untraced pool passes, then one serial untraced
    and one serial traced pass for the per-layer breakdown."""
    from spans import SpanTracer, layer_boundaries

    bench.setup()
    pool = bench.measure(args.seconds / 3, 1)
    serial = pool[0] if bench.jobs == 1 else bench.one_pass(jobs=1)
    tracer = SpanTracer(layer_boundaries())
    tracer.set_cells(bench.cells.requests)
    with tracer:
        traced = bench.one_pass(jobs=1)
    tracer.write(
        OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin", bench.cells.labels()
    )
    metrics = per_layer(bench, pool, serial, traced, tracer)
    metrics["failed_frac"] = (bench.failed / bench.attempted, "ratio")
    return metrics, {"pool_passes": len(pool)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    _load_repro()
    sys.path.insert(0, str(BENCH_DIR))
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = OUT_DIR / "work" / str(os.getpid())
    bench = Bench(args.workload, args.seed, workdir)
    try:
        if args.trace == 0:
            for _ in range(SETUP_REPEATS[args.workload]):
                bench.setup()
            passes = bench.measure(args.seconds, MIN_PASSES[args.workload])
            metrics, facts = end_to_end(bench, passes)
        else:
            metrics, facts = traced_run(bench, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(args, bench, metrics, facts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
