"""Coordination core shared by every backend.

The paper keeps XSPCL coordination apart from the Hinch run time; this
module is that split in code.  Everything the three backends — the
threaded runtime, the process runtime's dispatcher (and its workers) and
the SpaceCAKE simulator — must agree on lives here, once:

* :func:`build_configuration` — the one configuration build: graph
  instantiation, format solving, buffer expectations, X506 converter
  insertion and chain fusion;
* :class:`ComponentHost` — live component objects and splicing;
* :class:`Coordinator` — the base of the runtimes.  It owns the broker,
  streams, host, current graph, target option states, pre-created
  components, managers, scheduler and ``reconfig_log``; implements the
  manager-facing :class:`~repro.hinch.manager.ReconfigController`,
  :meth:`~Coordinator.post_event`, the splice core of
  :meth:`~Coordinator.on_reconfigure`, re-slicing, control-node
  execution and the :class:`RunResult` of a run.

A backend is an executor plus hooks: ``_lock`` (a context manager
guarding controller state), ``_before_splice``/``_after_splice`` around
the splice, and ``_deliver_request`` for parameter requests.

**The replay rule.**  A parameter request (``action="reconfigure"``)
reaches exactly the manager members that are live when it is sent.  The
coordinator records it per component *definition* (sliced copies share
one definition and always live and die together) and forgets a
definition once no copy of it is live.  A component object created
fresh for a live definition — a process worker respawned, a re-sliced
copy, a member rebuilt because its descriptor changed — replays that
definition's requests in order, so every mirror of an instance holds the
same parameter state.  Members an option-enable creates start fresh:
their definition was not live, so no request reached it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.analysis.formats import (
    auto_insert_converters,
    runtime_expectations,
    solve_formats_or_raise,
)
from repro.core.program import ComponentInstance, Program, ProgramGraph
from repro.errors import ReproError
from repro.hinch.component import Component
from repro.hinch.events import Event, EventBroker
from repro.hinch.fusion import FusionReport, fuse_chains
from repro.hinch.manager import ManagerRuntime
from repro.hinch.scheduler import DataflowScheduler, ReconfigPlan
from repro.hinch.stream import StreamStore
from repro.hinch.tracing import Tracer

__all__ = [
    "ComponentHost",
    "Configuration",
    "Coordinator",
    "RunResult",
    "apply_replay",
    "build_configuration",
    "slice_candidates",
]


@dataclass
class RunResult:
    """Outcome of one application run."""

    completed_iterations: int
    elapsed_seconds: float
    reconfig_count: int
    trace: Tracer
    components: dict[str, Component]
    stream_stats: dict[str, tuple[int, int]]  # name -> (writes, reads)
    events_handled: int = 0
    events_ignored: int = 0
    #: allocation + serialization counters from the plane pool (see
    #: :class:`repro.hinch.shm.PoolStats`); summed across processes on
    #: the process backend
    pool_stats: dict[str, int] = field(default_factory=dict)
    #: worker failures, retries and respawns observed by the process
    #: backend (empty elsewhere); each entry is a dict with at least
    #: ``kind``/``worker``/``detail`` keys — see docs/fault-tolerance.md
    fault_events: list[dict[str, Any]] = field(default_factory=list)
    #: worker slots that actually forked (lazy spawn and elastic resize
    #: mean this can differ from the configured ``--workers`` in either
    #: direction); equals ``nodes`` on the threaded backend
    workers_spawned: int = 0
    #: auto-tuner decisions applied during the run, each a dict with
    #: ``kind``/``reason``/``predicted_fps``/``achieved_fps`` keys
    autotune_events: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class Configuration:
    """One built configuration, ready to install on a backend."""

    pg: ProgramGraph
    #: auto-inserted converters and readers rebound to converted streams
    #: (the program is never mutated)
    overrides: dict[str, ComponentInstance]
    #: stream name -> solved (shape, dtype) buffer expectation
    expectations: dict[str, tuple[tuple[int, ...], str]]
    fusion: FusionReport | None


def build_configuration(
    program: Program,
    registry: Mapping[str, type[Component]],
    option_states: Mapping[str, bool] | None,
    *,
    fuse: bool = False,
    fuse_headroom: int | None = None,
) -> Configuration:
    """Build one configuration of ``program``.

    Every backend calls it through :meth:`Coordinator._build`, once per
    configuration; process workers install the configuration the
    dispatcher ships them.  Format errors (X501–X503) raise
    :class:`~repro.errors.StreamFormatError` on every backend.
    """
    pg = program.build_graph(option_states)
    solution = solve_formats_or_raise(program, pg)
    expectations = runtime_expectations(program, pg, solution=solution)
    pg, overrides, expectations = auto_insert_converters(
        program, pg, registry, expectations, solution
    )
    fusion = None
    if fuse:
        pg, fusion = fuse_chains(
            pg, program, registry, expectations,
            parallel_headroom=fuse_headroom,
        )
    return Configuration(pg, overrides, expectations, fusion)


def slice_candidates(
    program: Program,
    registry: Mapping[str, type[Component]],
    option_states: Mapping[str, bool] | None,
) -> dict[str, tuple[int, tuple[int, ...]]]:
    """Widths each slice-elastic group of ``program`` can be re-sliced to.

    Maps a group's definition id to its current replication total and
    the totals it builds at (the current one included); groups with no
    alternative width are left out.  Every width is validated up front
    with a trial re-slice (structure + format solve), so a re-slice
    decided at a splice never discovers mid-run that it does not build.
    """
    from repro.analysis.diagnostics import DiagnosticBag
    from repro.analysis.formats import check_formats
    from repro.core.reslice import reslice, slice_groups

    candidates: dict[str, tuple[int, tuple[int, ...]]] = {}
    for group in slice_groups(program).values():
        cls = registry.get(group.class_name)
        if cls is None or not cls.slice_elastic():
            continue
        totals: list[int] = []
        for total in sorted({1, 2, 4, 8} | {group.total}):
            if total != group.total:
                try:
                    trial = reslice(program, {group.definition_id: total})
                    bag = DiagnosticBag()
                    check_formats(
                        bag, trial, trial.build_graph(option_states)
                    )
                except ReproError:
                    continue
                if bag.has_errors:
                    continue
            totals.append(total)
        if len(totals) > 1:
            candidates[group.definition_id] = (group.total, tuple(totals))
    return candidates


def apply_replay(
    live: Mapping[str, Component], replay: Mapping[str, tuple[str, ...]]
) -> None:
    """Apply :meth:`Coordinator._replay_for` output to fresh objects."""
    for instance_id, requests in replay.items():
        component = live[instance_id]
        for request in requests:
            component.reconfigure(request)


class ComponentHost:
    """Owns live component objects and applies reconfiguration splices."""

    def __init__(
        self, program: Program, registry: Mapping[str, type[Component]]
    ) -> None:
        self.program = program
        self.registry = registry
        self.live: dict[str, Component] = {}
        self.created_total = 0
        #: build-time instance overrides (see :class:`Configuration`)
        self.overrides: dict[str, ComponentInstance] = {}

    def create(self, instance_id: str) -> Component:
        instance = self.overrides.get(instance_id)
        if instance is None:
            instance = self.program.components[instance_id]
        cls = self.registry[instance.class_name]
        component = cls(instance)
        component.setup()
        if instance.slice is not None:
            index, total = instance.slice
            component.reconfigure(f"slice={index}/{total}")
        if instance.reconfigure:
            component.reconfigure(instance.reconfigure)
        self.created_total += 1
        return component

    def populate(self, active: tuple[str, ...]) -> None:
        for instance_id in active:
            self.live[instance_id] = self.create(instance_id)

    def splice(
        self,
        new_active: tuple[str, ...],
        precreated: dict[str, Component],
    ) -> tuple[list[str], list[str]]:
        """Swap membership to ``new_active``; returns (added, removed)."""
        new_set = set(new_active)
        removed = [i for i in self.live if i not in new_set]
        for instance_id in removed:
            self.live.pop(instance_id).teardown()
        added = [i for i in new_active if i not in self.live]
        for instance_id in added:
            component = precreated.pop(instance_id, None)
            if component is None:
                component = self.create(instance_id)
            self.live[instance_id] = component
        # A re-slice can keep an instance id while changing its
        # descriptor (copy 0 of 4 becomes copy 0 of 2): the surviving
        # object still holds the old slice assignment and must be
        # rebuilt.  Only slice-elastic (stateless) components are ever
        # re-sliced, so recreation loses nothing.
        for instance_id in new_active:
            if instance_id in added:
                continue
            instance = self.overrides.get(
                instance_id, self.program.components.get(instance_id)
            )
            component = self.live[instance_id]
            if instance is not None and component.instance != instance:
                component.teardown()
                self.live[instance_id] = self.create(instance_id)
                added.append(instance_id)
        return added, removed


class Coordinator:
    """Build, reconfiguration control and events for one run.

    Subclasses set their own attributes (including hook state such as
    ``_lock`` and ``_fuse_headroom``) before calling ``__init__``, which
    builds the initial configuration and the scheduler.  The instance
    itself is the scheduler's hooks object and every manager's
    controller.
    """

    #: guards controller state; the threaded runtime installs an RLock
    _lock: Any = nullcontext()
    #: parallel headroom for the fusion profitability guard (None fuses
    #: unconditionally); the process runtime sets it
    _fuse_headroom: int | None = None

    def __init__(
        self,
        program: Program,
        registry: Mapping[str, type[Component]],
        *,
        pipeline_depth: int,
        max_iterations: int,
        trace: bool,
        option_states: Mapping[str, bool] | None,
        fuse: bool = False,
        pool: Any = None,
    ) -> None:
        self.program = program
        #: the program as given; every re-slice derives from it
        self._program_base = program
        #: cumulative group -> replication-total overrides (see _apply_slices)
        self._slice_overrides: dict[str, int] = {}
        self.registry = registry
        self.pipeline_depth = pipeline_depth
        self.max_iterations = max_iterations
        self.fuse = fuse
        self.fusion_report: FusionReport | None = None
        self.broker = EventBroker()
        self.pool = pool
        self.streams = StreamStore(pool)
        self.tracer = Tracer(enabled=trace)
        self.host = ComponentHost(program, registry)
        self.pg: ProgramGraph = self._build(option_states)
        self._target_states: dict[str, bool] = dict(self.pg.option_states)
        self._precreated: dict[str, Component] = {}
        #: definition id -> parameter requests that reached it, in order
        self._param_history: dict[str, list[str]] = {}
        self.host.populate(self.pg.active_components)
        self.managers = {
            qname: ManagerRuntime(info, self.broker, self)
            for qname, info in program.managers.items()
        }
        self.scheduler = DataflowScheduler(
            self.pg,
            pipeline_depth=pipeline_depth,
            max_iterations=max_iterations,
            hooks=self,
        )
        #: (resume_iteration, option states) per applied reconfiguration
        self.reconfig_log: list[tuple[int, dict[str, bool]]] = []

    def _build(self, option_states: Mapping[str, bool] | None) -> ProgramGraph:
        """Build and install one configuration on host and streams."""
        config = build_configuration(
            self.program, self.registry, option_states,
            fuse=self.fuse, fuse_headroom=self._fuse_headroom,
        )
        self.host.overrides = config.overrides
        self.streams.set_expectations(config.expectations)
        if config.fusion is not None:
            self.fusion_report = config.fusion
        return config.pg

    def _apply_slices(self, slices: Mapping[str, int]) -> None:
        """Change replication totals (definition id -> copies).

        Overrides accumulate and always apply to the program the run
        started with, so revisiting a width is idempotent.  Managers get
        their replacement descriptors (queue binding and stats stay); the
        graph follows at the next :meth:`_build`.
        """
        from repro.core.reslice import reslice

        self._slice_overrides.update(slices)
        self.program = reslice(self._program_base, self._slice_overrides)
        self.host.program = self.program
        for qname, manager in self.managers.items():
            manager.rebind(self.program.managers[qname])

    def _replay_for(
        self, instance_ids: Iterable[str]
    ) -> dict[str, tuple[str, ...]]:
        """Requests fresh objects of ``instance_ids`` must replay."""
        if not self._param_history:
            return {}
        replay = {}
        for instance_id in instance_ids:
            definition = self.host.live[instance_id].instance.definition_id
            requests = self._param_history.get(definition)
            if requests:
                replay[instance_id] = tuple(requests)
        return replay

    def _run_control(self, node: Any, iteration: int) -> None:
        """Execute a control node: a manager invocation (barriers no-op)."""
        if node.kind in ("manager_enter", "manager_exit"):
            with self._lock:
                self.managers[node.payload].invoke(
                    iteration, node.kind.removeprefix("manager_")
                )

    def _result(self, elapsed: float, **extra: Any) -> RunResult:
        """Assemble the run's :class:`RunResult`; ``extra`` adds the
        backend-specific fields."""
        managers = self.managers.values()
        return RunResult(
            completed_iterations=self.scheduler.completed_iterations,
            elapsed_seconds=elapsed,
            reconfig_count=self.scheduler.reconfig_count,
            trace=self.tracer,
            components=dict(self.host.live),
            stream_stats={
                name: self.streams.stream(name).stats
                for name in self.streams.names
            },
            events_handled=sum(m.events_handled for m in managers),
            events_ignored=sum(m.events_ignored for m in managers),
            pool_stats=self.pool.stats.as_dict(),
            **extra,
        )

    # -- SchedulerHooks ------------------------------------------------------

    def on_iteration_complete(self, iteration: int) -> None:
        self.streams.release_iteration(iteration)

    def on_reconfigure(
        self, plans: list[ReconfigPlan], resume_iteration: int
    ) -> ProgramGraph:
        self._before_splice(resume_iteration)
        states = dict(self.pg.option_states)
        for plan in plans:
            states.update(plan.changes)
        new_pg = self._build(states)
        added, removed = self.host.splice(
            new_pg.active_components, self._precreated
        )
        # Anything pre-created for a change that was later reverted is
        # discarded here (its option ended up disabled).
        for component in self._precreated.values():
            component.teardown()
        self._precreated.clear()
        if self._param_history:
            live = {c.instance.definition_id for c in self.host.live.values()}
            self._param_history = {
                d: h for d, h in self._param_history.items() if d in live
            }
        replay = self._replay_for(added)
        apply_replay(self.host.live, replay)
        self.pg = new_pg
        self._target_states = dict(states)
        self.reconfig_log.append((resume_iteration, dict(states)))
        self._after_splice(added, removed, replay)
        return new_pg

    def _before_splice(self, resume_iteration: int) -> None:
        """Hook: the graph is quiescent and about to be rebuilt."""

    def _after_splice(
        self,
        added: list[str],
        removed: list[str],
        replay: dict[str, tuple[str, ...]],
    ) -> None:
        """Hook: ``self.pg`` and the host hold the new configuration."""

    # -- ReconfigController --------------------------------------------------

    def target_option_state(self, option_qname: str) -> bool:
        with self._lock:
            return self._target_states[option_qname]

    def apply_option_changes(self, manager: str, changes: dict[str, bool]) -> None:
        with self._lock:
            effective = {
                opt: state
                for opt, state in changes.items()
                if self._target_states.get(opt) != state
            }
            if not effective:
                return
            self._target_states.update(effective)
            # Pre-create components for options being enabled, while the
            # subgraph is still active (paper §3.4: reduces reconfig time).
            for opt, state in effective.items():
                if state:
                    for member in self.program.options[opt].members:
                        if (
                            member not in self.host.live
                            and member not in self._precreated
                        ):
                            self._precreated[member] = self.host.create(member)
            self.scheduler.request_reconfig(
                ReconfigPlan(manager=manager, changes=effective)
            )

    def send_reconfigure_request(self, manager: str, request: str) -> None:
        with self._lock:
            live = self.host.live
            reached = [
                m for m in self.program.managers[manager].members if m in live
            ]
            for definition in dict.fromkeys(
                live[m].instance.definition_id for m in reached
            ):
                self._param_history.setdefault(definition, []).append(request)
            for member in reached:
                live[member].reconfigure(request)
            self._deliver_request(reached, request)

    def _deliver_request(self, instance_ids: list[str], request: str) -> None:
        """Hook: forward a request to mirrors outside this process."""

    # -- event injection -----------------------------------------------------

    def post_event(self, queue: str, name: str, payload: Any = None) -> None:
        """Inject an external (user) event."""
        self.broker.post(queue, Event(name=name, payload=payload))
