"""Workloads and the measured runs behind ``run.py``.

Every run builds its spec with a public ``repro.apps`` builder, rewrites
the sources' ``seed`` params from the workload seed, and drives one
runtime at a time in a closed loop: ``pipeline_depth=5`` admits
iteration i+5 only after iteration i retires.  Threaded runs use the
runtime's default knobs; process runs use ``batch=4, fuse=True``, the
configuration ``docs/performance.md`` recommends.  Both use 2 workers.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator, Mapping

from repro.apps import build_audio, build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.core.ast import ComponentNode, ManagerNode, OptionNode, ParallelNode, Spec
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.scheduler import DataflowScheduler
from repro.spacecake import SimRuntime
from repro.spacecake.cache import CacheModel

from analysis import (
    FrameCheck, Topology, check_frames, critical_path, handoffs_ns,
    percentile, splice_gaps_ms, throughput_fps, by_iteration,
)
from probes import Recorder, Spans, role_of, stamped_registry

__all__ = ["APPS", "WORKLOADS", "Session", "seeded_spec"]

WORKERS = 2
DEPTH = 5
BACKENDS = ("threaded", "process")
PROCESS_KNOBS = {"batch": 4, "fuse": True}
#: set-up samples per invocation, each a short process run
SETUP_PROBES = 5
PROBE_FRAMES = DEPTH
#: distinct seeds must give distinct inputs for every source
SEED_STRIDE = 1009

SCHEDULER_METHODS = ("start", "complete", "requeue", "extract_followons",
                     "retract", "request_reconfig", "request_stop")
CACHE_METHODS = ("classify", "access", "access_range", "access_traffic",
                 "evict", "evict_many", "evict_prefix")

#: spans a sweep's trace file keeps (its ~10^5 cache spans are left out)
SWEEP_SETUP_LAYERS = frozenset({"core.build", "hinch.runtime_init",
                                "spacecake.run", "hinch.scheduler.start"})

GOLDEN = (Path(__file__).resolve().parent.parent
          / "tests" / "bench" / "fixtures" / "golden_fig_sweeps.json")


@dataclass(frozen=True)
class App:
    """The application a workload executes on the real runtimes."""

    label: str
    build: Callable[[], Spec]
    #: frames per run; >= 100 so that p90 has >= 10 samples beyond it
    frames: int


APPS: dict[str, App] = {
    "audio-dispatch": App(
        "audio8", lambda: build_audio(channels=8, block=64, slices=2), 1000),
    "jpip-kernel": App(
        "jpip1", lambda: build_jpip(1, width=320, height=192, pip_height=192,
                                    factor=4, slices=4), 100),
    "pip-reconfig": App(
        "pip12", lambda: build_pip(2, width=360, height=288, factor=4,
                                   slices=4, reconfigurable=True), 120),
    # The sweep only simulates; its real-runtime metrics come from the
    # FIG8 Blur-3x3 variant at the paper's own 360x288 geometry, the one
    # crossdep application no other workload executes.
    "sim-figsweep": App("blur3", lambda: build_blur(3), 100),
}
WORKLOADS = tuple(APPS)


def _component_nodes(body) -> Iterator[ComponentNode]:
    for node in body:
        if isinstance(node, ComponentNode):
            yield node
        elif isinstance(node, ParallelNode):
            for block in node.parblocks:
                yield from _component_nodes(block)
        elif isinstance(node, (OptionNode, ManagerNode)):
            yield from _component_nodes(node.body)


def seeded_spec(app: App, seed: int) -> Spec:
    """The app's spec with every source ``seed`` param moved by ``seed``."""
    spec = app.build()
    for proc in spec.procedures.values():
        for node in _component_nodes(proc.body):
            if isinstance(node.params.get("seed"), int):
                node.params["seed"] += SEED_STRIDE * seed
    return spec


def _rusage() -> tuple[resource.struct_rusage, resource.struct_rusage]:
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def _cpu_s(before, after) -> float:
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _switches(before, after) -> int:
    return (after.ru_nvcsw - before.ru_nvcsw) + (after.ru_nivcsw - before.ru_nivcsw)


@dataclass
class Run:
    """One checked runtime run."""

    backend: str
    frames: int
    failed: int
    check: FrameCheck | None = None
    error: str | None = None
    build_ns: int = 0
    init_ns: int = 0
    #: run() entry to the first kernel start
    first_job_ns: int = 0
    setup_ns: int = 0
    stamps: list[tuple] = field(default_factory=list)
    spans: Spans | None = None
    topology: Topology | None = None
    resumes: list[int] = field(default_factory=list)
    #: RunResult counters (the result itself holds every component and
    #: its frame cache, which would bloat the process that later runs fork)
    pool_stats: dict[str, int] = field(default_factory=dict)
    workers_spawned: int = 0
    self_cpu_s: float = 0.0
    children_cpu_s: float = 0.0
    switches: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.check is not None

    def fps(self) -> float:
        return throughput_fps(self.check.sink_end_ns)


class Session:
    """All runs of one benchmark invocation (one workload, one seed)."""

    def __init__(self, workload: str, seed: int, *,
                 sink_overrides: Mapping[str, Callable[[type], type]] | None = None
                 ) -> None:
        self.workload = workload
        self.app = APPS[workload]
        self.seed = seed
        self.recorder = Recorder()
        self.registry = stamped_registry(self.recorder, every_job=False,
                                         sink_overrides=sink_overrides)
        self.traced_registry = stamped_registry(
            self.recorder, every_job=True, sink_overrides=sink_overrides)
        self.plain_registry = default_registry()
        self.reference_registry = stamped_registry(self.recorder,
                                                   every_job=False)
        #: per-frame sink digests, keyed by option state for a
        #: reconfigurable app and by ``None`` otherwise
        self.references: dict[bool | None, list[bytes]] = {}
        self.expected_splices = 0
        self.sim_cycles: float | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.trace_events: list[dict] = []

    # -- bookkeeping ---------------------------------------------------------

    def _account(self, attempted: int, failed: int, error: str | None = None
                 ) -> None:
        self.attempted += attempted
        self.failed += failed
        if error:
            self.errors.append(error)

    # -- real runtimes ---------------------------------------------------------

    def _reference_run(self, frames: int, spec: Spec,
                       option_states: dict[str, bool] | None = None
                       ) -> list[bytes]:
        self.recorder.clear()
        program = make_program(spec, name=self.app.label)
        rt = ThreadedRuntime(program, self.reference_registry, nodes=1,
                             pipeline_depth=1, max_iterations=frames,
                             option_states=option_states, fuse=True)
        result = rt.run()
        stamps, self.recorder.stamps = self.recorder.stamps, []
        roles = _roles(program, self.reference_registry)
        check = check_frames(stamps, roles, frames, None)
        if check.failed or result.completed_iterations != frames:
            raise RuntimeError(
                f"reference run of {self.app.label} is incomplete: "
                f"{check.failed} of {frames} frames lack stamps")
        sinks = {s[1]: s[4] for s in stamps if roles.get(s[0]) == "sink"}
        return [sinks[i] for i in range(frames)]

    def make_reference(self, frames: int | None = None) -> None:
        """Per-frame sink digests from threaded, 1 worker, depth 1, fused.

        The reference is fused because unfused JPiP costs three times
        as much to compute.  The measured threaded runs are unfused and
        the process runs fused, and both must match the reference, so
        every invocation still checks fused against unfused output.

        A reconfigurable app splices at a depth-dependent iteration, so
        near a splice its frames differ between depth 1 and depth 5.  It
        gets one static reference per option state instead, with the
        toggle timer silenced, and each frame is checked against the one
        for the state its run's splice log gives it.  The exact splice
        count comes from a cost-only simulation at the measured depth,
        which executes the same timer and manager.
        """
        frames = frames or self.app.frames
        spec = seeded_spec(self.app, self.seed)
        options = list(make_program(spec, name=self.app.label).options)
        if not options:
            self.references = {None: self._reference_run(frames, spec)}
            self.expected_splices = 0
            return
        if len(options) > 1:
            raise NotImplementedError("one toggled option per app")
        for proc in spec.procedures.values():
            for node in _component_nodes(proc.body):
                if node.class_name == "timer":
                    node.params["period"] = 1 << 40
        self.references = {
            state: self._reference_run(frames, spec, {options[0]: state})
            for state in (False, True)
        }
        self.expected_splices = self._simulate(frames)[2].reconfig_count

    def _expected(self, rt: Any, initial: dict[str, bool], frames: int
                  ) -> list[bytes]:
        """Per-frame reference digest for the option state of each frame."""
        if None in self.references:
            return self.references[None][:frames]
        (option,) = initial
        state = initial[option]
        log = sorted(rt.reconfig_log)
        out = []
        for i in range(frames):
            while log and log[0][0] <= i:
                state = log.pop(0)[1][option]
            out.append(self.references[state][i])
        return out

    def run(self, backend: str, *, traced: bool = False,
            frames: int | None = None) -> Run:
        """One checked run; failures are counted, never raised.

        Full-length runs must also splice exactly the expected number of
        times; short set-up probes check frames only.
        """
        full = frames is None
        frames = frames or self.app.frames
        registry = self.traced_registry if traced else self.registry
        out = Run(backend=backend, frames=frames, failed=0)
        self.recorder.clear()
        gc.collect()
        t_build = perf_counter_ns()
        program = make_program(seeded_spec(self.app, self.seed),
                               name=self.app.label)
        t_init = perf_counter_ns()
        if backend == "threaded":
            rt: Any = ThreadedRuntime(program, registry, nodes=WORKERS,
                                      pipeline_depth=DEPTH,
                                      max_iterations=frames)
        else:
            rt = ProcessRuntime(program, registry, workers=WORKERS,
                                pipeline_depth=DEPTH, max_iterations=frames,
                                **PROCESS_KNOBS)
        t_run = perf_counter_ns()
        initial = dict(rt.pg.option_states)
        if traced:
            out.spans = spans = Spans()
            spans.wrap(rt.scheduler, "complete", "hinch.scheduler.complete")
            out.topology = Topology(roles=_roles(program, registry))
            out.topology.configs.append(
                (0, _producers(program, registry, rt.pg.aliases)))
            splice = rt.on_reconfigure

            def on_reconfigure(plans, resume_iteration):
                new_pg = splice(plans, resume_iteration)
                out.resumes.append(resume_iteration)
                out.topology.configs.append(
                    (resume_iteration,
                     _producers(program, registry, new_pg.aliases)))
                return new_pg

            rt.on_reconfigure = on_reconfigure
            spans.wrap(rt, "on_reconfigure", "reconfig.rebuild")
        before = _rusage()
        t_start = perf_counter_ns()
        try:
            result = rt.run()
        except Exception as exc:  # a run that raised counts every frame
            out.error = f"{backend}: {type(exc).__name__}: {exc}"
            out.failed = frames
            self._account(frames, frames, out.error)
            return out
        finally:
            after = _rusage()
            out.stamps, self.recorder.stamps = self.recorder.stamps, []
            if out.spans is not None:
                out.spans.restore()
        out.pool_stats = result.pool_stats
        out.workers_spawned = result.workers_spawned
        out.self_cpu_s = _cpu_s(before[0], after[0])
        out.children_cpu_s = _cpu_s(before[1], after[1])
        out.switches = (_switches(before[0], after[0])
                        + _switches(before[1], after[1]))
        out.check = check = check_frames(
            out.stamps, _roles(program, registry), frames,
            self._expected(rt, initial, frames))
        out.failed = check.failed
        if result.completed_iterations != frames:
            out.failed += 1
        if full and result.reconfig_count != self.expected_splices:
            out.failed += 1
            self.errors.append(
                f"{backend}: {result.reconfig_count} splices, expected "
                f"{self.expected_splices}")
        out.build_ns = t_init - t_build
        out.init_ns = t_run - t_init
        if check.first_kernel_ns is not None:
            out.first_job_ns = check.first_kernel_ns - t_start
            out.setup_ns = check.first_kernel_ns - t_build
        self._account(frames, out.failed)
        if len(check.sink_end_ns) < 2:
            out.error = f"{backend}: fewer than two good frames"
            self.errors.append(out.error)
        return out

    def setup_probes(self) -> list[Run]:
        """Short process runs; each yields one set-up time sample."""
        return [self.run("process", frames=PROBE_FRAMES)
                for _ in range(SETUP_PROBES)]

    # -- the simulator -----------------------------------------------------------

    def _simulate(self, frames: int) -> tuple[float, Any, Any]:
        gc.collect()
        start = time.perf_counter()
        program = make_program(seeded_spec(self.app, self.seed),
                               name=self.app.label)
        sim = SimRuntime(program, self.plain_registry, nodes=WORKERS,
                         pipeline_depth=DEPTH, max_iterations=frames)
        result = sim.run()
        return time.perf_counter() - start, sim, result

    def simulate_app(self) -> tuple[float, Any]:
        """One cost-only simulation of the app; (wall seconds, SimRuntime).

        The simulation is deterministic: it must complete every iteration
        and repeat the first simulation's cycle count exactly.
        """
        frames = self.app.frames
        wall, sim, result = self._simulate(frames)
        if self.sim_cycles is None:
            self.sim_cycles = result.cycles
        bad = int(result.completed_iterations != frames
                  or result.cycles != self.sim_cycles)
        if bad:
            self.errors.append(
                f"sim: {result.completed_iterations} of {frames} iterations, "
                f"{result.cycles} cycles (first run: {self.sim_cycles})")
        self._account(1, bad)
        return wall, sim

    def sweep(self, expected: dict) -> tuple[float, int]:
        """The FIG8-FIG10 sweep, checked for exact equality with ``expected``."""
        from repro.bench.golden import collect_golden

        gc.collect()
        start = time.perf_counter()
        snapshot = collect_golden(scale=expected["scale"],
                                  nodes=tuple(expected["nodes"]))
        wall = time.perf_counter() - start
        current = json.loads(json.dumps(snapshot))
        runs = expected["runs"]
        bad = sorted(k for k in runs if current["runs"].get(k) != runs[k])
        bad += sorted(k for k in current["runs"] if k not in runs)
        if bad:
            self.errors.append(f"sweep: {len(bad)} simulations differ, "
                               f"first {bad[0]}")
        self._account(len(runs), len(bad))
        jobs = sum(r["jobs_executed"] for r in current["runs"].values())
        return wall, jobs

    # -- trace output ----------------------------------------------------------------

    def keep_trace(self, label: str, run: Run) -> None:
        """Stamps and spans of one traced run, as Chrome trace events."""
        for iid, iteration, start, end, _ in run.stamps:
            self.trace_events.append({
                "name": iid, "cat": "component", "ph": "X",
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "pid": label, "tid": "kernels",
                "args": {"iteration": iteration},
            })
        if run.spans is not None:
            self.keep_spans(label, run.spans)

    def keep_spans(self, label: str, spans: Spans,
                   layers: frozenset[str] | None = None) -> None:
        for layer, start, end, thread, depth in spans.records:
            if layers is not None and layer not in layers:
                continue
            self.trace_events.append({
                "name": layer, "cat": "layer", "ph": "X",
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "pid": label, "tid": thread, "args": {"depth": depth},
            })

    def write_trace(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.workload}-seed{self.seed}.trace.json"
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.trace_events,
                       "otherData": {"workload": self.workload,
                                     "seed": self.seed}}, fh)
        return path


def _roles(program, registry) -> dict[str, str]:
    return {iid: role_of(registry[inst.class_name])
            for iid, inst in program.components.items()}


def _producers(program, registry, aliases) -> dict[str, frozenset[str]]:
    ports = {}
    streams = {}
    for iid, inst in program.components.items():
        cls = registry[inst.class_name]
        ports[iid] = (tuple(cls.ports.inputs), tuple(cls.ports.outputs))
        streams[iid] = inst.streams
    return Topology.producers_of(ports, streams, aliases)


# -- simulator layer spans ---------------------------------------------------------


def span_simulator(spans: Spans, *, setup: bool = False) -> None:
    """Span the simulator's layers at class level (undo: ``spans.restore``)."""
    for name in SCHEDULER_METHODS:
        spans.wrap(DataflowScheduler, name, f"hinch.scheduler.{name}")
    for name in CACHE_METHODS:
        spans.wrap(CacheModel, name, "spacecake.cache")
    spans.wrap(SimRuntime, "run", "spacecake.run")
    if setup:
        import repro.bench.harness as harness

        spans.wrap(SimRuntime, "__init__", "hinch.runtime_init")
        spans.wrap(harness, "make_program", "core.build")


def simulator_shares(spans: Spans) -> tuple[float, float]:
    """(cache share, scheduler share) of time inside ``SimRuntime.run``."""
    own = spans.self_ns()
    total = spans.total_ns("spacecake.run")
    scheduler = sum(v for k, v in own.items()
                    if k.startswith("hinch.scheduler."))
    return own.get("spacecake.cache", 0) / total, scheduler / total


def setup_breakdown(runs: list[Run]) -> dict[str, float]:
    return {
        "core.build_ms": statistics.median(r.build_ns for r in runs) / 1e6,
        "hinch.runtime_init_ms": statistics.median(r.init_ns for r in runs) / 1e6,
        "hinch.first_job_ms": statistics.median(r.first_job_ns for r in runs) / 1e6,
    }


def layer_split(run: Run) -> dict[str, float]:
    """Per-layer numbers of one traced runtime run."""
    stamps = run.stamps
    frames = run.frames
    kernel = sum(s[3] - s[2] for s in stamps)
    roles = run.topology.roles
    starts = [s[2] for s in stamps if roles.get(s[0]) == "source"]
    wall = max(run.check.sink_end_ns) - min(starts)
    jobs = len(run.spans.of("hinch.scheduler.complete"))
    hand = handoffs_ns(stamps, run.topology)
    rebuild = run.spans.of("reconfig.rebuild")
    gaps = splice_gaps_ms(run.check.sink_end, run.resumes)
    return {
        "kernel_ms_per_frame": kernel / frames / 1e6,
        "kernel_share": kernel / (WORKERS * wall),
        "jobs_per_frame": jobs / frames,
        "handoff_us_p50": percentile(hand, 50) / 1e3 if hand else 0.0,
        "handoff_us_p90": percentile(hand, 90) / 1e3 if hand else 0.0,
        "non_kernel_us_per_job": (WORKERS * wall - kernel) / jobs / 1e3,
        "splice_gap_ms_p50": statistics.median(gaps) if gaps else 0.0,
        "rebuild_ms_per_splice": (
            sum(e - s for s, e in rebuild) / len(rebuild) / 1e6
            if rebuild else 0.0),
    }


def reconcile(run: Run) -> list[tuple[int, int, int, int]]:
    """Per frame ``(wall, kernel, handoff, non_kernel)`` on the critical path."""
    out = []
    for iteration, group in sorted(by_iteration(run.stamps).items()):
        out.append(critical_path(group, run.topology.producers(iteration),
                                 run.topology.roles))
    return out


def sweep_setup_s() -> float:
    """Construct every program of the FIG8-FIG10 sweep; wall seconds."""
    from repro.bench.golden import GOLDEN_SCALE
    from repro.bench.harness import Harness, RECONFIG_VARIANTS, STATIC_VARIANTS

    gc.collect()
    start = time.perf_counter()
    harness = Harness(frames_scale=GOLDEN_SCALE)
    for name in STATIC_VARIANTS:
        harness.program(name, "sequential")
    for name in (*STATIC_VARIANTS, *RECONFIG_VARIANTS):
        harness.program(name, "xspcl")
    return time.perf_counter() - start


def sweep_setup_breakdown(spans: Spans) -> dict[str, float]:
    """Set-up layers summed over one spanned sweep's simulations."""
    runs = sorted(spans.of("spacecake.run"))
    starts = sorted(spans.of("hinch.scheduler.start"))
    return {
        "core.build_ms": spans.total_ns("core.build") / 1e6,
        "hinch.runtime_init_ms": spans.total_ns("hinch.runtime_init") / 1e6,
        "hinch.first_job_ms": sum(
            s_end - r_start for (r_start, _), (_, s_end) in zip(runs, starts)
        ) / 1e6,
    }


class count_sim_events:
    """Sum engine events and wall time of every ``SimRuntime.run`` inside."""

    def __enter__(self) -> "count_sim_events":
        self.events = 0
        self.wall_s = 0.0
        original = SimRuntime.run
        counter = self

        def run(sim):
            start = time.perf_counter()
            try:
                return original(sim)
            finally:
                counter.wall_s += time.perf_counter() - start
                counter.events += sim.engine.events_processed

        SimRuntime.run = run
        self._original = original
        return self

    def __exit__(self, *exc) -> None:
        SimRuntime.run = self._original
