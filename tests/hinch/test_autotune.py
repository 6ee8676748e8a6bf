"""Elastic auto-tuning: controller decisions, re-slicing, integration.

The controller (:mod:`repro.hinch.autotune`) is pure — it never reads a
clock — so the decision tests here feed canned observation windows and
assert the *exact* decision sequence, including the stability
properties: hysteresis (two agreeing windows before any move), the
post-decision cooldown, and no oscillation on noisy traces.  The
integration tests then drive :class:`ProcessRuntime` through scripted
and real decisions and hold the runtime to the same contract as every
other reconfiguration: bit-identical output.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.apps import build_jpip, make_program
from repro.components.registry import default_registry
from repro.core.reslice import reslice, slice_groups
from repro.errors import PredictionError, ReconfigurationError, SchedulingError
from repro.graph.spc import Leaf, Parallel, Series
from repro.hinch import ProcessRuntime
from repro.hinch.autotune import (
    DISPATCH_BOUND_S,
    AutotuneConfig,
    AutotuneController,
    Decision,
    Observation,
)
from repro.prediction import seed_plan
from repro.prediction.estimate import (
    wcet_parallel,
    wcet_sequential,
    wcet_span,
)

REG = default_registry()


def _obs(
    window: int,
    *,
    wall: float = 1.0,
    iterations: int = 4,
    jobs: int = 50,
    worker_busy: dict[int, float] | None = None,
    node_busy: dict[str, float] | None = None,
    cpu_bound: tuple[str, ...] = (),
    queue: int = 0,
    workers: int = 1,
    live: int | None = None,
    batch: int = 4,
    slice_totals: dict[str, int] | None = None,
) -> Observation:
    """A balanced window by default: mid-sized jobs, busy-enough pool."""
    busy = worker_busy if worker_busy is not None else {0: 0.5}
    return Observation(
        window=window,
        wall=wall,
        iterations=iterations,
        jobs=jobs,
        worker_busy=busy,
        node_busy=node_busy if node_busy is not None
        else {"stage": sum(busy.values())},
        cpu_bound=frozenset(cpu_bound),
        queue_high_water=queue,
        workers=workers,
        live_workers=workers if live is None else live,
        batch=batch,
        slice_totals=dict(slice_totals or {}),
    )


# -- controller: canned-trace decisions --------------------------------------


def test_balanced_trace_decides_nothing():
    ctl = AutotuneController(AutotuneConfig())
    assert [ctl.observe(_obs(i)) for i in range(6)] == [None] * 6


def test_dispatch_bound_batches_up_after_hysteresis():
    ctl = AutotuneController(AutotuneConfig())
    dispatch_bound = dict(jobs=1000, worker_busy={0: 1.0}, batch=1)
    assert ctl.observe(_obs(0, **dispatch_bound)) is None  # 1st agreement
    decision = ctl.observe(_obs(1, **dispatch_bound))
    assert decision is not None
    assert decision.kind == "set_batch"
    assert decision.batch == 2
    assert "dispatch-bound" in decision.reason
    assert decision.predicted_ratio > 1.0


def test_long_jobs_drop_batch_to_min():
    ctl = AutotuneController(AutotuneConfig())
    long_jobs = dict(jobs=10, worker_busy={0: 0.9}, batch=8)
    assert ctl.observe(_obs(0, **long_jobs)) is None
    decision = ctl.observe(_obs(1, **long_jobs))
    assert decision is not None
    assert (decision.kind, decision.batch) == ("set_batch", 1)
    assert "job-bound" in decision.reason


def test_batch_at_max_never_proposes():
    ctl = AutotuneController(AutotuneConfig(max_batch=16))
    at_max = dict(jobs=1000, worker_busy={0: 1.0}, batch=16)
    assert [ctl.observe(_obs(i, **at_max)) for i in range(4)] == [None] * 4


def test_idle_pool_shrinks_to_measured_parallelism():
    ctl = AutotuneController(AutotuneConfig())
    idle = dict(
        workers=4,
        worker_busy={0: 0.3, 1: 0.3, 2: 0.2, 3: 0.2},  # parallelism 1.0
    )
    assert ctl.observe(_obs(0, **idle)) is None
    decision = ctl.observe(_obs(1, **idle))
    assert decision is not None
    assert decision.kind == "shrink_workers"
    assert decision.workers == 2  # ceil(1.0 * 1.25) head-room
    assert decision.predicted_ratio == 1.0  # no seed plan given


def test_shrink_prediction_comes_from_seed_intervals():
    ctl = AutotuneController(
        AutotuneConfig(), seed_intervals={4: 10.0, 2: 15.0}
    )
    idle = dict(
        workers=4,
        worker_busy={0: 0.3, 1: 0.3, 2: 0.2, 3: 0.2},
    )
    ctl.observe(_obs(0, **idle))
    decision = ctl.observe(_obs(1, **idle))
    assert decision is not None
    assert decision.predicted_ratio == pytest.approx(10.0 / 15.0)


def test_saturated_pressured_pool_grows_by_one():
    ctl = AutotuneController(AutotuneConfig(max_workers=4, cores=4))
    hot = dict(
        workers=2, batch=1, queue=10,
        worker_busy={0: 0.95, 1: 0.95},  # parallelism 1.9 >= 0.8 * 2
    )
    assert ctl.observe(_obs(0, **hot)) is None
    decision = ctl.observe(_obs(1, **hot))
    assert decision is not None
    assert (decision.kind, decision.workers) == ("grow_workers", 3)


def test_cpu_bound_bottleneck_stops_growth_past_cores():
    # Identical pressure; the only difference is whether the dominant
    # stage spins (CPU-bound) or blocks.  Past the physical core count
    # only blocking work can still overlap.
    hot = dict(
        workers=1, batch=1, queue=10,
        worker_busy={0: 0.9}, node_busy={"hot": 0.9},
    )
    spinning = AutotuneController(AutotuneConfig(max_workers=4, cores=1))
    outcomes = [
        spinning.observe(_obs(i, cpu_bound=("hot",), **hot))
        for i in range(4)
    ]
    assert outcomes == [None] * 4
    blocking = AutotuneController(AutotuneConfig(max_workers=4, cores=1))
    blocking.observe(_obs(0, **hot))
    decision = blocking.observe(_obs(1, **hot))
    assert decision is not None
    assert (decision.kind, decision.workers) == ("grow_workers", 2)


def test_dispatch_sized_slice_copies_narrow():
    ctl = AutotuneController(
        AutotuneConfig(slice_candidates={"g": (1, 2, 4)})
    )
    tiny = dict(
        jobs=100, batch=16,  # batch already at max: no batch proposal
        worker_busy={0: 0.004}, node_busy={"g": 0.004},
        slice_totals={"g": 4},  # 1ms per copy < DISPATCH_BOUND_S
    )
    assert ctl.observe(_obs(0, **tiny)) is None
    decision = ctl.observe(_obs(1, **tiny))
    assert decision is not None
    assert decision.kind == "narrow_slices"
    assert dict(decision.slices) == {"g": 2}


def test_dominant_bottleneck_widens_within_headroom():
    ctl = AutotuneController(
        AutotuneConfig(max_workers=4, cores=4,
                       slice_candidates={"g": (1, 2, 4)})
    )
    dominated = dict(
        workers=4, jobs=100,
        worker_busy={i: 0.9 for i in range(4)},  # saturated, no shrink
        node_busy={"g": 3.0},  # 75% of the window
        slice_totals={"g": 2},
    )
    assert ctl.observe(_obs(0, **dominated)) is None
    decision = ctl.observe(_obs(1, **dominated))
    assert decision is not None
    assert decision.kind == "widen_slices"
    assert dict(decision.slices) == {"g": 4}
    assert decision.predicted_ratio == pytest.approx(2.0)


def test_cpu_bound_bottleneck_never_widens_past_cores():
    ctl = AutotuneController(
        AutotuneConfig(max_workers=4, cores=2,
                       slice_candidates={"g": (1, 2, 4)})
    )
    dominated = dict(
        workers=4, jobs=100, cpu_bound=("g",),
        worker_busy={i: 0.9 for i in range(4)},
        node_busy={"g": 3.0},
        slice_totals={"g": 2},  # already at min(workers, cores)
    )
    outcomes = [ctl.observe(_obs(i, **dominated)) for i in range(4)]
    assert outcomes == [None] * 4


def test_noisy_trace_never_oscillates():
    # Windows alternate between "shrink the pool" and "grow the pool"
    # evidence; neither repeats twice in a row, so hysteresis must keep
    # the controller silent forever.
    ctl = AutotuneController(AutotuneConfig(max_workers=4, cores=4))
    idle = dict(workers=4, worker_busy={0: 0.3, 1: 0.3, 2: 0.2, 3: 0.2})
    hot = dict(workers=2, batch=1, queue=10,
               worker_busy={0: 0.95, 1: 0.95})
    outcomes = [
        ctl.observe(_obs(i, **(idle if i % 2 == 0 else hot)))
        for i in range(8)
    ]
    assert outcomes == [None] * 8


def test_cooldown_skips_one_window_after_a_decision():
    ctl = AutotuneController(AutotuneConfig())
    dispatch_bound = dict(jobs=1000, worker_busy={0: 1.0}, batch=1)
    outcomes = [
        ctl.observe(_obs(i, **dispatch_bound)) for i in range(5)
    ]
    # window 1 emits; window 2 is cooldown; windows 3-4 re-agree.
    assert [o is not None for o in outcomes] == [
        False, True, False, False, True
    ]


def test_deadline_met_suppresses_growth_but_not_shrink():
    cfg = AutotuneConfig(objective="deadline", deadline_ms=100.0,
                         max_workers=4, cores=4)
    # 4 iterations over 0.2s wall = 50 ms/frame: deadline met.
    hot = dict(wall=0.2, workers=2, batch=1, queue=10,
               worker_busy={0: 0.19, 1: 0.19})
    grow_ctl = AutotuneController(cfg)
    assert [grow_ctl.observe(_obs(i, **hot)) for i in range(4)] == [None] * 4
    idle = dict(wall=0.2, workers=4,
                worker_busy={0: 0.06, 1: 0.06, 2: 0.04, 3: 0.04})
    shrink_ctl = AutotuneController(cfg)
    shrink_ctl.observe(_obs(0, **idle))
    decision = shrink_ctl.observe(_obs(1, **idle))
    assert decision is not None
    assert decision.kind == "shrink_workers"


def test_deadline_missed_suppresses_shrink_but_not_growth():
    cfg = AutotuneConfig(objective="deadline", deadline_ms=100.0,
                         max_workers=4, cores=4)
    # 4 iterations over 1s wall = 250 ms/frame: deadline missed.
    idle = dict(workers=4, worker_busy={0: 0.3, 1: 0.3, 2: 0.2, 3: 0.2})
    shrink_ctl = AutotuneController(cfg)
    assert [
        shrink_ctl.observe(_obs(i, **idle)) for i in range(4)
    ] == [None] * 4
    hot = dict(workers=2, batch=1, queue=10,
               worker_busy={0: 0.95, 1: 0.95})
    grow_ctl = AutotuneController(cfg)
    grow_ctl.observe(_obs(0, **hot))
    decision = grow_ctl.observe(_obs(1, **hot))
    assert decision is not None
    assert decision.kind == "grow_workers"


# -- re-slicing --------------------------------------------------------------


def _jpip(frames: int = 4, slices: int = 4):
    return make_program(
        build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                   slices=slices, frames=frames, collect=True),
        name="jpip1",
    )


def test_slice_groups_found_with_expected_width():
    groups = slice_groups(_jpip(slices=4))
    # background-side stages replicate at the requested ``slices``; the
    # pip side derives its own width, so groups of both widths coexist
    assert any(g.total == 4 for g in groups.values())
    for def_id, group in groups.items():
        assert group.definition_id == def_id
        assert group.total >= 2
        assert group.members == tuple(
            f"{def_id}[{i}]" for i in range(group.total)
        )


def test_reslice_rewrites_width_and_remaps_members():
    program = _jpip(slices=4)
    before = slice_groups(program)
    target = next(d for d in sorted(before) if before[d].total == 4)
    narrowed = reslice(program, {target: 2})
    assert f"{target}[0]" in narrowed.components
    assert f"{target}[1]" in narrowed.components
    assert f"{target}[2]" not in narrowed.components
    assert narrowed.components[f"{target}[1]"].slice == (1, 2)
    # untouched groups keep their original width
    for def_id, group in slice_groups(narrowed).items():
        assert group.total == (
            2 if def_id == target else before[def_id].total
        )
    # manager membership follows the rewrite — no stale copy ids remain
    for manager in narrowed.managers.values():
        for member in manager.members:
            assert member in narrowed.components


def test_reslice_is_deterministic_for_the_same_overrides():
    program = _jpip(slices=4)
    target = sorted(slice_groups(program))[0]
    a = reslice(program, {target: 2})
    b = reslice(program, {target: 2})
    assert sorted(a.components) == sorted(b.components)
    for instance_id in a.components:
        assert a.components[instance_id] == b.components[instance_id]


def test_reslice_rejects_unknown_groups_and_bad_totals():
    program = _jpip(slices=4)
    target = sorted(slice_groups(program))[0]
    with pytest.raises(ReconfigurationError):
        reslice(program, {"no/such/group": 2})
    with pytest.raises(ReconfigurationError):
        reslice(program, {target: 0})
    # the empty override map is the identity
    assert reslice(program, {}) is program


# -- cost-model seeding ------------------------------------------------------


def test_wcet_parallel_is_the_brent_bound():
    tree = Series(
        (Leaf("src"), Parallel((Leaf("a"), Leaf("b"), Leaf("c"), Leaf("d"))),
         Leaf("snk"))
    )
    cost = {"src": 2.0, "a": 4.0, "b": 4.0, "c": 4.0, "d": 4.0, "snk": 2.0}
    leaf_cost = lambda leaf: cost[leaf.label]  # noqa: E731
    work = wcet_sequential(tree, leaf_cost)
    span = wcet_span(tree, leaf_cost)
    assert (work, span) == (20.0, 8.0)
    assert wcet_parallel(tree, leaf_cost, 1) == work
    assert wcet_parallel(tree, leaf_cost, 2) == 10.0  # work/2 dominates
    assert wcet_parallel(tree, leaf_cost, 4) == span  # span floor
    with pytest.raises(ValueError):
        wcet_parallel(tree, leaf_cost, 0)


def test_seed_plan_picks_the_knee_of_the_interval_curve():
    program = _jpip()
    plan = seed_plan(program, REG, max_workers=4, pipeline_depth=4)
    assert set(plan.intervals) == {1, 2, 3, 4}
    intervals = [plan.intervals[n] for n in (1, 2, 3, 4)]
    assert intervals == sorted(intervals, reverse=True)  # monotone
    assert 1 <= plan.workers <= 4
    # the chosen count is the first within tolerance of the best
    best = plan.intervals[4]
    for n in range(1, plan.workers):
        assert plan.intervals[n] > best * (1.0 + plan.tolerance)
    assert plan.predicted_speedup(1) == 1.0
    assert plan.predicted_speedup(plan.workers) >= 1.0


def test_seed_plan_rejects_zero_workers():
    with pytest.raises(PredictionError):
        seed_plan(_jpip(), REG, max_workers=0)


# -- runtime integration -----------------------------------------------------


class _Scripted:
    """Controller stand-in that emits a fixed decision sequence."""

    def __init__(self, decisions: list[Decision], window: int = 2) -> None:
        self.config = AutotuneConfig(window=window)
        self._decisions = list(decisions)

    def observe(self, obs: Observation) -> Decision | None:
        if self._decisions:
            return self._decisions.pop(0)
        return None


def _frames(result):
    return result.components["sink"].ordered_frames()


def _assert_identical(ref, other):
    assert len(ref) == len(other) and len(ref) > 0
    for a, b in zip(ref, other):
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)


def test_scripted_decisions_apply_and_output_stays_bit_identical():
    """Run once unfused and once fused (one test id for both inputs):
    fused, the re-sliced configuration reaches the workers only through
    the splice message."""
    frames = 16
    program = _jpip(frames=frames)
    ref = ProcessRuntime(program, REG, workers=4, pipeline_depth=4,
                         max_iterations=frames, batch=2).run()
    group = next(d for d in sorted(slice_groups(program)) if "idct" in d)
    for fuse in (False, True):
        rt = ProcessRuntime(program, REG, workers=4, pipeline_depth=4,
                            max_iterations=frames, batch=2, fuse=fuse)
        rt._controller = _Scripted([
            Decision(kind="set_batch", window=1, reason="scripted", batch=4),
            Decision(kind="shrink_workers", window=2, reason="scripted",
                     workers=1),
            Decision(kind="narrow_slices", window=3, reason="scripted",
                     slices={group: 2}),
            Decision(kind="grow_workers", window=4, reason="scripted",
                     workers=2),
        ])
        result = rt.run()
        assert result.completed_iterations == frames
        assert (rt.workers, rt.batch) == (2, 4)
        assert [e["kind"] for e in rt.autotune_events] == [
            "set_batch", "shrink_workers", "narrow_slices", "grow_workers",
        ]
        # every decision's effect was measured against its prediction
        for event in rt.autotune_events:
            assert event["achieved_fps"] is not None
            assert event["achieved_ratio"] is not None
        _assert_identical(_frames(ref), _frames(result))


def test_seed_plan_bug_surfaces(monkeypatch):
    """Only a model rejection (a ReproError) falls back to measurement-only
    tuning; any other exception from the cost-model seed is a bug and
    must not vanish."""
    import repro.prediction

    def broken(*args, **kwargs):
        raise TypeError("seed_plan bug")

    monkeypatch.setattr(repro.prediction, "seed_plan", broken)
    with pytest.raises(TypeError, match="seed_plan bug"):
        ProcessRuntime(_jpip(), REG, workers=2, max_iterations=4,
                       autotune=True)

    def rejects(*args, **kwargs):
        raise PredictionError("no cost model")

    monkeypatch.setattr(repro.prediction, "seed_plan", rejects)
    rt = ProcessRuntime(_jpip(), REG, workers=2, max_iterations=4,
                        autotune=True)
    assert rt._controller is not None


def test_autotuned_run_matches_static_run_bit_for_bit():
    frames = 16
    program = _jpip(frames=frames)
    ref = ProcessRuntime(program, REG, workers=1, pipeline_depth=4,
                         max_iterations=frames, batch=4).run()
    rt = ProcessRuntime(program, REG, workers=4, pipeline_depth=4,
                        max_iterations=frames, batch=1, autotune=True)
    result = rt.run()
    assert result.completed_iterations == frames
    # decisions are timing-dependent; the *record* contract is not
    for event in result.autotune_events:
        assert event.keys() >= {
            "kind", "window", "iteration", "reason", "predicted_fps",
            "achieved_fps",
        }
    _assert_identical(_frames(ref), _frames(result))


def test_autotune_composes_with_fusion_bit_identically():
    frames = 16
    program = _jpip(frames=frames)
    ref = ProcessRuntime(program, REG, workers=1, pipeline_depth=4,
                         max_iterations=frames, batch=4).run()
    result = ProcessRuntime(program, REG, workers=4, pipeline_depth=4,
                            max_iterations=frames, batch=1, fuse=True,
                            autotune=True).run()
    assert result.completed_iterations == frames
    _assert_identical(_frames(ref), _frames(result))


def test_autotune_survives_a_worker_kill_mid_run():
    frames = 12
    program = _jpip(frames=frames)
    ref = ProcessRuntime(program, REG, workers=1, pipeline_depth=4,
                         max_iterations=frames, batch=4).run()
    rt = ProcessRuntime(program, REG, workers=4, pipeline_depth=4,
                        max_iterations=frames, batch=1, autotune=True,
                        faults="kill:20")
    result = rt.run()
    assert result.completed_iterations == frames
    assert any(
        e["kind"] == "worker_failure" for e in result.fault_events
    )
    _assert_identical(_frames(ref), _frames(result))


def test_workers_spawned_counts_forked_slots_only():
    frames = 6
    program = _jpip(frames=frames)
    rt = ProcessRuntime(program, REG, workers=4, pipeline_depth=4,
                        max_iterations=frames, batch=2, trace=True)
    result = rt.run()
    assert 1 <= result.workers_spawned <= 4
    # a slot that ran a job was necessarily forked
    assert result.workers_spawned >= len(result.trace.workers_seen())


def test_deadline_objective_requires_a_deadline():
    program = _jpip(frames=4)
    with pytest.raises(SchedulingError):
        ProcessRuntime(program, REG, workers=2, max_iterations=4,
                       autotune=True, objective="deadline")
    with pytest.raises(SchedulingError):
        ProcessRuntime(program, REG, workers=2, max_iterations=4,
                       autotune=True, objective="latency")


# -- degenerate windows (fuzzer-pinned) --------------------------------------


def test_degenerate_window_is_legal_and_nan_free():
    """A window can close with zero iterations, zero jobs, and zero
    forked workers (lazy spawn); the controller must digest it without
    raising or emitting a non-finite prediction."""
    ctl = AutotuneController(AutotuneConfig())
    empty = _obs(0, iterations=0, jobs=0, worker_busy={}, node_busy={},
                 live=0, wall=1e-9)
    for window in range(4):
        decision = ctl.observe(
            _obs(window, iterations=0, jobs=0, worker_busy={},
                 node_busy={}, live=0, wall=1e-9)
        )
        if decision is not None:
            assert math.isfinite(decision.predicted_ratio)
    assert empty.wall > 0


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        ({"wall": float("nan")}, "wall"),
        ({"wall": float("inf")}, "wall"),
        ({"wall": -1.0}, "wall"),
        ({"iterations": -1}, "iterations"),
        ({"jobs": -2}, "jobs"),
        ({"live": -1}, "live_workers"),
        ({"worker_busy": {0: float("nan")}}, "worker 0"),
        ({"node_busy": {"stage": float("inf")}}, "node 'stage'"),
        ({"node_busy": {"stage": -0.5}}, "node 'stage'"),
    ],
    ids=["nan-wall", "inf-wall", "negative-wall", "negative-iterations",
         "negative-jobs", "negative-live", "nan-worker-busy",
         "inf-node-busy", "negative-node-busy"],
)
def test_observation_rejects_nonfinite_measurements(kwargs, needle):
    with pytest.raises(ValueError, match="window 3") as exc:
        _obs(3, **kwargs)
    assert needle in str(exc.value)
