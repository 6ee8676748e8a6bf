"""Chain fusion: compile producer→consumer chains into single-dispatch kernels.

Paper §4.1 proposes scheduling a producer and its consumer as one entity
so the consumer finds the data still in the cache.  On the threaded and
process runtimes this module is that merge (``--fuse``): a
**chain-fusion compiler** that runs at build time and again at every
reconfiguration splice.  Unlike a graph-linear rewrite it also merges
sliced stages that meet at barrier nodes:

1. For every stream it asks whether each *reader copy* provably consumes
   only what its *paired writer copy* produced.  Unsliced 1:1 streams
   pass trivially; sliced pairs are proven through the components'
   ``writes_rows``/``reads_rows`` access contracts against the plane
   height pinned by the reconciled X5xx port formats (PR 6) — e.g. a
   block-8 IDCT copy writes rows ``[16i, 16i+16)`` of a 128-row field
   and the factor-4 downscaler copy with the same slice index reads
   exactly that band.
2. Approved pairs are contracted into :class:`FusedChain` nodes whose one
   job executes every member back-to-back per slice.  The intermediate
   plane becomes a worker-local numpy temporary (never touching
   ``Stream``/shm — no pack, no ensure rpc, no pickle), and the released
   cross-pair orderings let the mediating barrier disappear: the fused
   graph keeps structural edges plus per-stream dataflow edges for
   everything *not* proven internal, and falls back chain-by-chain (and
   ultimately to the unfused graph) if a rewrite would introduce a cycle.

A fused job composes the members' vectorized numpy kernels over the
local temporaries; adjacent members may collapse further into one
combined kernel (:meth:`Component.compile_fused_pair`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.program import ComponentInstance, ProgramGraph, StreamTable
from repro.errors import StreamError
from repro.graph.taskgraph import TaskGraph
from repro.hinch.component import Component, JobContext
from repro.hinch.events import EventBroker
from repro.hinch.grouping import GROUP_SEPARATOR
from repro.hinch.stream import check_geometry

__all__ = [
    "FusedChain",
    "FusionReport",
    "fuse_chains",
    "run_fused",
    "run_task",
    "task_members",
]


class FusedChain(tuple):
    """Execution-ordered members of one fused kernel.

    A tuple of the member instances (lease assembly, input gathering and
    checkpointing iterate them) that also carries:

    ``internal``
        resolved stream name -> ``(shape, dtype)`` geometry from the
        format solution, or ``None`` for opaque (object) streams.  These
        streams live as job-local values/temporaries and never reach the
        stream store.
    """

    internal: dict[str, tuple[tuple[int, ...], Any] | None]

    def __new__(
        cls,
        members: tuple[ComponentInstance, ...],
        internal: Mapping[str, tuple[tuple[int, ...], Any] | None],
    ) -> "FusedChain":
        self = super().__new__(cls, tuple(members))
        self.internal = dict(internal)
        return self

    def __reduce__(self):
        return (FusedChain, (tuple(self), self.internal))

    @property
    def node_id(self) -> str:
        return GROUP_SEPARATOR.join(m.instance_id for m in self)


@dataclass
class FusionReport:
    """What one :func:`fuse_chains` pass decided, for introspection/tests."""

    chains: tuple[FusedChain, ...] = ()
    #: resolved stream names proven internal to some chain
    internal_streams: tuple[str, ...] = ()
    #: chain node ids dropped to keep the rewritten graph acyclic
    dropped: tuple[str, ...] = ()
    #: stream name -> human-readable refusal reason (first one found)
    refused: dict[str, str] = field(default_factory=dict)

    @property
    def fused_node_count(self) -> int:
        return len(self.chains)


# ---------------------------------------------------------------------------
# Candidate approval
# ---------------------------------------------------------------------------


def _approve_stream(
    name: str,
    table: StreamTable,
    pg: ProgramGraph,
    registry: Mapping[str, type[Component]],
    expectations: Mapping[str, tuple[tuple[int, ...], Any]],
    parallel_headroom: int | None = None,
) -> tuple[list[tuple[str, str]], Any] | str:
    """Decide whether stream ``name`` can become fused-chain internal.

    Returns ``(pairs, geometry)`` — writer/reader instance-id pairs whose
    cross-pair ordering the access contracts release — or a refusal
    reason string.

    ``parallel_headroom`` (workers the caller can actually run in
    parallel, ``None`` = unknown/serial) feeds the profitability guard:
    fusing slice copy pairs is a loss when *more* workers than copies
    exist, because the unfused form lets writer copies of iteration k+1
    overlap reader copies of iteration k on the extra workers — fusion
    welds each pair into one job and forfeits that pipeline overlap.
    Pairs with a real combined kernel (``compile_fused_pair`` override)
    are exempt: they elide work outright, which beats overlap.
    """
    graph = pg.graph
    if not table.writers or not table.readers:
        return "missing endpoint"

    # stream endpoints are components, each its own task node
    writer_insts = [graph.node(w.instance_id).payload for w in table.writers]
    reader_insts = [graph.node(r.instance_id).payload for r in table.readers]
    # chains must not cross crossdep consumers, manager or
    # option-configuration boundaries
    all_insts = writer_insts + reader_insts
    if any(i.instance_id in pg.crossdep_nodes for i in all_insts):
        return "crossdep endpoint"
    if len({i.manager for i in all_insts}) > 1:
        return "crosses a manager boundary"
    if len({i.options for i in all_insts}) > 1:
        return "crosses an option-configuration boundary"
    if len({i.definition_id for i in writer_insts}) > 1:
        return "multiple writer definitions"
    if len({i.definition_id for i in reader_insts}) > 1:
        return "multiple reader definitions"
    writer_ids = {i.instance_id for i in writer_insts}
    if writer_ids & {i.instance_id for i in reader_insts}:
        return "instance both writes and reads the stream"
    if len({i.instance_id for i in reader_insts}) != len(reader_insts):
        return "instance reads the stream on several ports"

    w_port = table.writers[0].port
    r_port = table.readers[0].port
    slices = {i.slice for i in all_insts}

    if slices == {None}:
        if len(writer_insts) == 1 and len(reader_insts) == 1:
            # Unsliced 1:1: the single reader consumes exactly the single
            # writer's whole value — pass it as a local object.
            pairs = [
                (writer_insts[0].instance_id, reader_insts[0].instance_id)
            ]
            return pairs, expectations.get(name)
        return "plural unsliced endpoints"

    if None in slices:
        return "mixed sliced/unsliced endpoints"

    # Sliced pairs: writer copy i must provably cover reader copy i.
    n_totals = {i.slice[1] for i in all_insts}
    if len(n_totals) != 1:
        return "slice counts differ"
    n = n_totals.pop()
    by_index_w = {i.slice[0]: i for i in writer_insts}
    by_index_r = {i.slice[0]: i for i in reader_insts}
    if set(by_index_w) != set(range(n)) or set(by_index_r) != set(range(n)):
        return "slice copies do not cover 0..n-1"
    if parallel_headroom is not None and parallel_headroom > n:
        r_cls0 = registry.get(reader_insts[0].class_name)
        peephole = (
            r_cls0 is not None
            and r_cls0.compile_fused_pair.__func__
            is not Component.compile_fused_pair.__func__
        )
        if not peephole:
            return (
                f"unprofitable: {n} slice copies under "
                f"{parallel_headroom}-way parallel headroom — unfused "
                "pipeline overlap beats single-job fusion"
            )
    geometry = expectations.get(name)
    if geometry is None:
        return "no reconciled plane format (X5xx) to prove row spans"
    height = int(geometry[0][0])
    pairs: list[tuple[str, str]] = []
    for i in range(n):
        w, r = by_index_w[i], by_index_r[i]
        if w.slice != r.slice:
            return "slice assignments differ within a pair"
        w_cls = registry.get(w.class_name)
        r_cls = registry.get(r.class_name)
        if w_cls is None or r_cls is None:
            return "endpoint class not in registry"
        wrote = w_cls.writes_rows(w, w_port, height)
        read = r_cls.reads_rows(r, r_port, height)
        if wrote is None or read is None:
            return (
                f"no access contract for pair {w.instance_id!r}/"
                f"{r.instance_id!r}"
            )
        if not (wrote[0] <= read[0] and read[1] <= wrote[1]):
            return (
                f"rows read {read} exceed rows written {wrote} for slice {i}"
            )
        pairs.append((w.instance_id, r.instance_id))
    return pairs, geometry


# ---------------------------------------------------------------------------
# Graph rewrite
# ---------------------------------------------------------------------------


def _build_chains(
    graph: TaskGraph, pairs: list[tuple[str, str]]
) -> list[list[str]]:
    """Union approved pairs into chains, members in topological order."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    order = {nid: i for i, nid in enumerate(graph.topological_order())}
    groups: dict[str, list[str]] = {}
    for member in parent:
        groups.setdefault(find(member), []).append(member)
    chains = [sorted(ms, key=order.__getitem__) for ms in groups.values()]
    chains.sort(key=lambda ms: order[ms[0]])
    return chains


def _rewrite(
    pg: ProgramGraph,
    chains: list[list[str]],
    approved: dict[str, tuple[list[tuple[str, str]], Any]],
) -> tuple[TaskGraph, list[FusedChain]] | None:
    """Contract ``chains`` into fused nodes; None when the result cycles.

    Barrier nodes encode only ordering, and the approved access contracts
    released exactly the cross-pair orderings they enforced — so barriers
    are dropped wholesale and replaced by per-stream dataflow edges:
    every writer→reader pair for unapproved streams, matched pairs only
    for approved ones (which contract to self-edges inside a chain).
    """
    graph = pg.graph
    member_of: dict[str, str] = {}
    chain_ids: list[str] = []
    for members in chains:
        cid = GROUP_SEPARATOR.join(members)
        chain_ids.append(cid)
        for m in members:
            member_of[m] = cid
    chain_members = dict(zip(chain_ids, chains))

    fused_payloads: dict[str, FusedChain] = {}
    new = TaskGraph()
    for node in graph:
        if node.kind == "barrier":
            continue
        cid = member_of.get(node.node_id)
        if cid is None:
            new.add_node(
                node.node_id,
                label=node.label,
                kind=node.kind,
                payload=node.payload,
                weight=node.weight,
            )
        elif cid not in new:
            members = tuple(
                graph.node(m).payload for m in chain_members[cid]
            )
            internal = {
                name: geometry
                for name, (prs, geometry) in approved.items()
                if any(
                    member_of.get(w) == cid and member_of.get(r) == cid
                    for w, r in prs
                )
            }
            payload = FusedChain(members, internal)
            fused_payloads[cid] = payload
            new.add_node(
                cid,
                label=cid,
                kind="task",
                payload=payload,
                weight=sum(graph.node(m).weight for m in chain_members[cid]),
            )

    # structural edges (series/parallel/crossdep/manager), barriers elided
    for u, v in graph.edges():
        if graph.node(u).kind == "barrier" or graph.node(v).kind == "barrier":
            continue
        a, b = member_of.get(u, u), member_of.get(v, v)
        if a != b and a in new and b in new:
            new.add_edge(a, b)
    # dataflow edges per stream
    for name, table in pg.streams.items():
        entry = approved.get(name)
        if entry is None:
            pairlist = [
                (w.instance_id, r.instance_id)
                for w in table.writers
                for r in table.readers
            ]
        else:
            pairlist = entry[0]
        for w_id, r_id in pairlist:
            a, b = member_of.get(w_id, w_id), member_of.get(r_id, r_id)
            if a != b:
                new.add_edge(a, b)

    if not new.is_acyclic():
        return None
    return new, [fused_payloads[cid] for cid in chain_ids]


def fuse_chains(
    pg: ProgramGraph,
    program: Any,
    registry: Mapping[str, type[Component]],
    expectations: Mapping[str, tuple[tuple[int, ...], Any]],
    parallel_headroom: int | None = None,
) -> tuple[ProgramGraph, FusionReport]:
    """Compile every provably-fusable chain of ``pg`` into fused nodes.

    Deterministic in its inputs: the dispatcher and every worker process
    run this independently after each reconfiguration splice and must
    agree on node ids and member order.  Returns the rewritten graph
    (or ``pg`` itself when nothing fuses) plus a :class:`FusionReport`.

    ``parallel_headroom`` enables the sliced-pair profitability guard
    (see :func:`_approve_stream`); callers pass the number of workers
    that can genuinely run in parallel (``min(workers, cores)`` on the
    process backend) or ``None`` to fuse unconditionally.
    """
    report = FusionReport()

    approved: dict[str, tuple[list[tuple[str, str]], Any]] = {}
    for name, table in pg.streams.items():
        verdict = _approve_stream(
            name, table, pg, registry, expectations,
            parallel_headroom=parallel_headroom,
        )
        if isinstance(verdict, str):
            report.refused[name] = verdict
        else:
            approved[name] = verdict

    if not approved:
        return pg, report

    all_pairs = [p for prs, _ in approved.values() for p in prs]
    chains = _build_chains(pg.graph, all_pairs)

    dropped: list[str] = []
    while chains:
        result = _rewrite(pg, chains, approved)
        if result is not None:
            break
        # A chain interacts with an external path; drop the most recently
        # discovered chain and retry (deterministic, converges).
        dropped.append(GROUP_SEPARATOR.join(chains[-1]))
        chains = chains[:-1]
    else:
        report.dropped = tuple(dropped)
        return pg, report

    new_graph, fused = result
    report.chains = tuple(fused)
    report.dropped = tuple(dropped)
    report.internal_streams = tuple(
        sorted({name for c in fused for name in c.internal})
    )

    fused_pg = ProgramGraph(
        graph=new_graph,
        streams=pg.streams,
        aliases=pg.aliases,
        option_states=pg.option_states,
        active_components=pg.active_components,
        crossdep_nodes=pg.crossdep_nodes,
    )
    return fused_pg, report


# ---------------------------------------------------------------------------
# Task execution (shared by both runtimes)
# ---------------------------------------------------------------------------

_MISSING = object()


class _LocalStream:
    """Stream facade for one fused-internal stream within one job."""

    __slots__ = ("_store", "_name")

    def __init__(self, store: "_FusedLocalStore", name: str) -> None:
        self._store = store
        self._name = name

    def get(self, iteration: int) -> Any:
        value = self._store.slots.get(self._name, _MISSING)
        if value is _MISSING:
            raise StreamError(
                f"fused stream {self._name!r}: read before write in "
                f"iteration {iteration} (member order broken)"
            )
        return value

    def put(self, iteration: int, value: Any, *, writer: str | None = None) -> None:
        if self._name in self._store.slots:
            raise StreamError(
                f"fused stream {self._name!r}: double write in iteration "
                f"{iteration}"
            )
        self._store.slots[self._name] = value

    def ensure_buffer(
        self,
        iteration: int,
        factory: Callable[[], Any] | None = None,
        *,
        shape: tuple[int, ...] | None = None,
        dtype: Any = None,
        writer: str | None = None,
    ) -> Any:
        buf = self._store.slots.get(self._name, _MISSING)
        if buf is not _MISSING:
            return buf
        expected = self._store.internal.get(self._name)
        if expected is not None:
            check_geometry(
                self._name, iteration, writer, expected, shape, dtype,
                label="fused stream",
            )
        if shape is None and expected is not None:
            shape, dtype = expected
        if shape is not None:
            buf = self._store.temp(self._name, tuple(shape), dtype)
        elif factory is not None:
            buf = factory()
        else:
            raise StreamError(
                f"fused stream {self._name!r}: ensure_buffer needs a "
                "factory or a shape"
            )
        self._store.slots[self._name] = buf
        return buf


class _FusedLocalStore:
    """StreamStore facade: internal streams stay job-local, rest pass through.

    ``temps`` caches the intermediate planes per fused node *across
    iterations* — the scheduler serializes a node's iterations, so the
    same scratch plane is safely reused and the fused hot path stops
    allocating entirely.  Caches are discarded at reconfiguration.
    """

    __slots__ = ("_base", "internal", "slots", "_temps")

    def __init__(
        self,
        base: Any,
        chain: FusedChain,
        temps: dict[str, np.ndarray],
    ) -> None:
        self._base = base
        self.internal = chain.internal
        self.slots: dict[str, Any] = {}
        self._temps = temps

    def stream(self, name: str):
        if name in self.internal:
            return _LocalStream(self, name)
        return self._base.stream(name)

    def temp(
        self, name: str, shape: tuple[int, ...], dtype: Any
    ) -> np.ndarray:
        buf = self._temps.get(name)
        if (
            buf is None
            or buf.shape != shape
            or (dtype is not None and buf.dtype != np.dtype(dtype))
        ):
            buf = np.empty(shape, dtype=dtype)
            self._temps[name] = buf
        return buf


def run_fused(
    chain: FusedChain,
    iteration: int,
    streams: Any,
    broker: EventBroker,
    aliases: dict[str, str],
    components: Mapping[str, Component],
    *,
    stop_requester: Callable[[], None] | None = None,
    cache: dict[str, Any] | None = None,
) -> list[tuple[str, float, float]]:
    """Execute one fused job; returns per-member (instance_id, start, end).

    ``streams`` is anything exposing ``.stream(name)`` (a
    :class:`~repro.hinch.stream.StreamStore` or the process workers'
    stream view); ``cache`` is a per-fused-node dict owned by the caller,
    holding the reusable intermediate temps and the compiled steps.
    Clear it on reconfiguration.
    """
    if cache is None:
        cache = {}
    temps = cache.setdefault("temps", {})
    store = _FusedLocalStore(streams, chain, temps)
    steps = cache.get("steps")
    if steps is None:
        steps = cache["steps"] = _compile_steps(chain, components, aliases)
    member_times: list[tuple[str, float, float]] = []
    for first, second, kernel in steps:
        ctx = JobContext(
            first,
            iteration,
            store,
            broker,
            aliases,
            stop_requester=stop_requester,
        )
        start = time.perf_counter()
        if second is not None:
            # pair-compiled step: one kernel covers both members; the
            # combined span is attributed to each constituent (display
            # only — fused_member events never enter busy accounting)
            ctx2 = JobContext(
                second,
                iteration,
                store,
                broker,
                aliases,
                stop_requester=stop_requester,
            )
            kernel(
                components[first.instance_id],
                components[second.instance_id],
                ctx,
                ctx2,
            )
            end = time.perf_counter()
            member_times.append((first.instance_id, start, end))
            member_times.append((second.instance_id, start, end))
            continue
        components[first.instance_id].run(ctx)
        member_times.append(
            (first.instance_id, start, time.perf_counter())
        )
    return member_times


def task_members(
    payload: ComponentInstance | FusedChain,
) -> tuple[ComponentInstance, ...]:
    """The component instances one task node runs, in execution order."""
    return payload if isinstance(payload, FusedChain) else (payload,)


def run_task(
    node_id: str,
    payload: ComponentInstance | FusedChain,
    iteration: int,
    streams: Any,
    broker: Any,
    aliases: dict[str, str],
    components: Mapping[str, Component],
    *,
    stop_requester: Callable[[], None],
    caches: dict[str, dict[str, Any]],
) -> list[tuple[str, float, float]] | None:
    """Execute one task job; returns fused member times, else None.

    The one task executor of the threaded runtime and the process
    workers: a fused chain runs in one dispatch through
    :func:`run_fused` (``caches`` maps node id to its per-node cache), a
    single component through its ``run``.  ``streams`` and ``broker``
    may be duck types (the process workers' per-job facades).
    """
    if isinstance(payload, FusedChain):
        return run_fused(
            payload, iteration, streams, broker, aliases, components,
            stop_requester=stop_requester,
            cache=caches.setdefault(node_id, {}),
        )
    ctx = JobContext(
        payload, iteration, streams, broker, aliases,
        stop_requester=stop_requester,
    )
    components[payload.instance_id].run(ctx)
    return None


def _compile_steps(
    chain: FusedChain,
    components: Mapping[str, Component],
    aliases: dict[str, str],
) -> list[tuple[ComponentInstance, ComponentInstance | None, Any]]:
    """Lower a chain to execution steps: pair kernels, then per-member.

    Adjacent members whose connecting streams are all chain-internal are
    offered to the downstream class's
    :meth:`~Component.compile_fused_pair` peephole; a hit collapses both
    into one step.  Remaining members run their interpreted ``run``.
    """
    members = list(chain)
    steps: list[tuple[ComponentInstance, ComponentInstance | None, Any]] = []
    i = 0
    while i < len(members):
        if i + 1 < len(members):
            a, b = members[i], members[i + 1]
            if _feeds_internally(a, b, chain, components, aliases):
                pair = type(components[b.instance_id]).compile_fused_pair(
                    type(components[a.instance_id]), a, b, "numpy"
                )
                if pair is not None:
                    steps.append((a, b, pair))
                    i += 2
                    continue
        steps.append((members[i], None, None))
        i += 1
    return steps


def _feeds_internally(
    a: ComponentInstance,
    b: ComponentInstance,
    chain: FusedChain,
    components: Mapping[str, Component],
    aliases: dict[str, str],
) -> bool:
    """True when every output of ``a`` is chain-internal and read by ``b``.

    The pair peephole may skip materializing ``a``'s outputs, which is
    sound only if no one outside the pair — neither another chain member
    nor the stream store — can observe them.
    """
    ports_a = type(components[a.instance_id]).ports
    ports_b = type(components[b.instance_id]).ports
    outs = {
        aliases.get(a.streams[p], a.streams[p])
        for p in ports_a.outputs
        if p in a.streams
    }
    ins = {
        aliases.get(b.streams[p], b.streams[p])
        for p in ports_b.inputs
        if p in b.streams
    }
    return bool(outs) and outs <= set(chain.internal) and outs <= ins
