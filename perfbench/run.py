"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload audio-dispatch --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with only sources and
sinks stamped; ``--trace 1`` adds a traced run per backend that stamps
every component job and spans the layers' public calls, and reports the
per-layer metrics plus the tracing overhead (traced spans are written
to ``.bench_out/``).  Every run's sink output is checked against a
reference computed before the timed region.  Human-readable lines come
first; the last line of standard output is the JSON result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: name -> unit, in BENCHMARK.json order
END_TO_END = {
    "throughput_fps.threaded": "1/s",
    "throughput_fps.process": "1/s",
    "latency_p50_ms.threaded": "ms",
    "latency_p50_ms.process": "ms",
    "latency_p90_ms.threaded": "ms",
    "latency_p90_ms.process": "ms",
    "setup_s": "s",
    "sim_jobs_per_s": "1/s",
}
PER_LAYER = {
    "core.build_ms": "ms",
    "hinch.runtime_init_ms": "ms",
    "hinch.first_job_ms": "ms",
    **{f"components.kernel_ms_per_frame.{b}": "ms" for b in ("threaded", "process")},
    **{f"components.kernel_share.{b}": "ratio" for b in ("threaded", "process")},
    **{f"hinch.jobs_per_frame.{b}": "count" for b in ("threaded", "process")},
    **{f"hinch.handoff_us_p50.{b}": "us" for b in ("threaded", "process")},
    **{f"hinch.handoff_us_p90.{b}": "us" for b in ("threaded", "process")},
    **{f"hinch.non_kernel_us_per_job.{b}": "us" for b in ("threaded", "process")},
    **{f"hinch.ctx_switches_per_job.{b}": "count" for b in ("threaded", "process")},
    "hinch.meta_pickled_bytes_per_job": "bytes",
    "hinch.dispatcher_cpu_ms_per_frame": "ms",
    "hinch.worker_cpu_ms_per_frame": "ms",
    "hinch.oob_bytes_per_frame": "bytes",
    "hinch.planes_created": "count",
    "hinch.workers_spawned": "count",
    "hinch.process_over_threaded": "ratio",
    "reconfig.splices": "count",
    **{f"reconfig.splice_gap_ms_p50.{b}": "ms" for b in ("threaded", "process")},
    **{f"reconfig.rebuild_ms_per_splice.{b}": "ms" for b in ("threaded", "process")},
    "spacecake.events_per_s": "1/s",
    "spacecake.cache_share": "ratio",
    "spacecake.scheduler_share": "ratio",
    **{f"trace.overhead.{b}": "ratio" for b in ("threaded", "process")},
}


def _need_source() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def _median(values) -> float:
    values = list(values)
    if not values:
        raise RuntimeError("no successful run to measure")
    return statistics.median(values)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one invocation; returns (session, metrics, notes)."""
    import bench
    from analysis import percentile

    session = bench.Session(workload, seed)
    sweep = workload == "sim-figsweep"
    golden = json.loads(bench.GOLDEN.read_text()) if sweep else None
    session.make_reference()
    probes = session.setup_probes()
    sweep_setups = ([bench.sweep_setup_s() for _ in range(bench.SETUP_PROBES)]
                    if sweep else [])
    notes: dict[str, object] = {"seed": seed}
    metrics: dict[str, float] = {}
    order = list(bench.BACKENDS)
    plain = {b: [] for b in order}
    traced = {b: [] for b in order}
    sims: list[tuple[float, int]] = []
    shares: list[tuple[float, float]] = []
    events: list[float] = []
    setup_spans = None

    def simulate() -> None:
        nonlocal setup_spans
        if sweep:
            if trace:
                with bench.count_sim_events() as counted:
                    wall, jobs = session.sweep(golden)
                events.append(counted.events / counted.wall_s)
            else:
                wall, jobs = session.sweep(golden)
        else:
            wall, sim = session.simulate_app()
            jobs = sim.jobs_executed
            if trace:
                events.append(sim.engine.events_processed / wall)
        sims.append((wall, jobs))
        if trace:
            spans = bench.Spans()
            bench.span_simulator(spans, setup=sweep)
            try:
                session.sweep(golden) if sweep else session.simulate_app()
            finally:
                spans.restore()
            shares.append(bench.simulator_shares(spans))
            if sweep:
                setup_spans = setup_spans or spans

    # Each runner gets an equal share of the measured window, taken in
    # turns by whichever has had the least time so far: host speed drifts
    # over seconds, and interleaving spreads that drift over all runners.
    runners: dict[str, Callable[[], None]] = {"sim": simulate}
    for b in order:
        runners[b] = lambda b=b: plain[b].append(session.run(b))
        if trace:
            runners[f"{b}+trace"] = (
                lambda b=b: traced[b].append(session.run(b, traced=True)))
    spent = dict.fromkeys(runners, 0.0)
    while min(spent.values()) < seconds / len(runners):
        name = min(spent, key=spent.__getitem__)
        start = time.perf_counter()
        runners[name]()
        spent[name] += time.perf_counter() - start

    def good(runs):
        return [r for r in runs if r.ok]

    fps = {b: _median(r.fps() for r in good(plain[b])) for b in plain}
    if not trace:
        for b in bench.BACKENDS:
            lat = [ns / 1e6 for r in good(plain[b]) for ns in r.check.latency_ns]
            metrics[f"throughput_fps.{b}"] = fps[b]
            metrics[f"latency_p50_ms.{b}"] = percentile(lat, 50)
            metrics[f"latency_p90_ms.{b}"] = percentile(lat, 90)
            notes[f"latency_samples.{b}"] = len(lat)
            notes[f"runs.{b}"] = len(plain[b])
        if sweep:
            metrics["setup_s"] = _median(sweep_setups)
        else:
            metrics["setup_s"] = _median(
                r.setup_ns for r in probes + plain["process"] if r.ok) / 1e9
        metrics["sim_jobs_per_s"] = (sum(j for _, j in sims)
                                     / sum(w for w, _ in sims))
        notes["sim_runs"] = len(sims)
        return session, metrics, notes

    if sweep:
        metrics.update(bench.sweep_setup_breakdown(setup_spans))
    else:
        metrics.update(bench.setup_breakdown([r for r in probes if r.ok]))
    splits = {b: [bench.layer_split(r) for r in good(traced[b])] for b in traced}
    for b in bench.BACKENDS:
        split = {k: _median(s[k] for s in splits[b]) for k in splits[b][0]}
        for key in ("kernel_ms_per_frame", "kernel_share"):
            metrics[f"components.{key}.{b}"] = split[key]
        for key in ("jobs_per_frame", "handoff_us_p50", "handoff_us_p90",
                    "non_kernel_us_per_job"):
            metrics[f"hinch.{key}.{b}"] = split[key]
        for key in ("splice_gap_ms_p50", "rebuild_ms_per_splice"):
            metrics[f"reconfig.{key}.{b}"] = split[key]
        jobs = split["jobs_per_frame"]
        metrics[f"hinch.ctx_switches_per_job.{b}"] = _median(
            r.switches / (jobs * r.frames) for r in good(plain[b]))
        metrics[f"trace.overhead.{b}"] = (
            _median(r.fps() for r in good(traced[b])) / fps[b])
        notes[f"traced_runs.{b}"] = len(traced[b])
    process = good(plain["process"])
    jobs = metrics["hinch.jobs_per_frame.process"]
    metrics["hinch.meta_pickled_bytes_per_job"] = _median(
        r.pool_stats["meta_pickled_bytes"] / (jobs * r.frames)
        for r in process)
    metrics["hinch.dispatcher_cpu_ms_per_frame"] = _median(
        r.self_cpu_s * 1e3 / r.frames for r in process)
    metrics["hinch.worker_cpu_ms_per_frame"] = _median(
        r.children_cpu_s * 1e3 / r.frames for r in process)
    metrics["hinch.oob_bytes_per_frame"] = _median(
        r.pool_stats["oob_bytes"] / r.frames for r in process)
    metrics["hinch.planes_created"] = _median(
        r.pool_stats["planes_created"] for r in process)
    metrics["hinch.workers_spawned"] = _median(
        r.workers_spawned for r in process)
    metrics["hinch.process_over_threaded"] = fps["process"] / fps["threaded"]
    splices = {len(r.resumes) for b in traced for r in good(traced[b])}
    if splices != {session.expected_splices}:
        session.errors.append(f"traced splices {sorted(splices)}, expected "
                              f"{session.expected_splices}")
        session.failed += 1
    metrics["reconfig.splices"] = session.expected_splices
    metrics["spacecake.events_per_s"] = _median(events)
    metrics["spacecake.cache_share"] = _median(c for c, _ in shares)
    metrics["spacecake.scheduler_share"] = _median(s for _, s in shares)
    for b in bench.BACKENDS:
        session.keep_trace(b, traced[b][0])
    if setup_spans is not None:
        session.keep_spans("sweep", setup_spans, bench.SWEEP_SETUP_LAYERS)
    notes["trace_file"] = str(session.write_trace(OUT_DIR).relative_to(ROOT))
    return session, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _need_source()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(bench.WORKLOADS)}")
    session, metrics, notes = measure(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    print(f"# failed_frac: {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted} frames/simulations)")
    for error in session.errors:
        print(f"# error: {error}")
    # ProcessRuntime's shared memory starts multiprocessing's resource
    # tracker, which would outlive this process; stop it and reap it.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
