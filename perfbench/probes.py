"""Measurement probes that sit outside the program.

Two kinds, both kept in memory until the benchmark ends:

* **Stamps** — one ``(instance_id, iteration, start_ns, end_ns, digest)``
  record per component job, taken by subclasses of the registered
  component classes (:func:`stamped_registry`).  On the process backend a
  worker cannot append to the benchmark's list, so its stamps ride the
  components' ``checkpoint_state``/``merge_state`` contract back to the
  dispatcher, exactly like collected sink output.  Workers fork and
  ``perf_counter_ns`` reads CLOCK_MONOTONIC, so stamps taken in different
  processes share one time base.
* **Spans** — ``(layer, start_ns, end_ns, thread, depth)`` records around
  calls into a layer's public methods (:class:`Spans.wrap`).  Nested
  spans let each layer's self time exclude the layers it calls.
"""

from __future__ import annotations

import hashlib
import os
import threading
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Mapping

import numpy as np

from repro.components.registry import default_registry
from repro.hinch.component import Component

__all__ = ["Recorder", "Spans", "stamped_registry", "role_of"]


class Recorder:
    """Stamps of one process; the process that made it owns the list."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stamps: list[tuple] = []

    def clear(self) -> None:
        self.stamps = []


def role_of(cls: type[Component]) -> str:
    """``source`` (outputs only), ``sink`` (inputs only) or ``job``."""
    ports = cls.ports
    if ports.outputs and not ports.inputs:
        return "source"
    if ports.inputs and not ports.outputs:
        return "sink"
    return "job"


def _digest(job: Any, ports: tuple[str, ...]) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for port in ports:
        h.update(np.ascontiguousarray(job.read(port)))
    return h.digest()


def _has_pair_kernel(cls: type[Component]) -> bool:
    return (cls.compile_fused_pair.__func__
            is not Component.compile_fused_pair.__func__)


def _stamped(base: type[Component], recorder: Recorder, *, run: bool,
             digest: bool) -> type[Component]:
    """Subclass of ``base`` that stamps jobs into ``recorder``.

    ``run`` stamps :meth:`run`; ``digest`` adds a hash of every input
    port's value to the stamp (sinks).  A class with a fused-pair
    peephole also stamps the pair kernel, which runs in place of both
    members' ``run`` on fused chains; the upstream member (the source)
    is stamped with the pair's start so that fused and unfused latency
    cover the same interval.
    """
    namespace: dict[str, Any] = {"__module__": __name__}

    def emit(self, record: tuple) -> None:
        if os.getpid() == recorder.pid:
            recorder.stamps.append(record)
        else:
            self._bench_pending.append(record)

    def __init__(self, instance):
        base.__init__(self, instance)
        self._bench_pending = []

    def checkpoint_state(self):
        state = base.checkpoint_state(self)
        if state is None and not self._bench_pending:
            return None
        pending, self._bench_pending = self._bench_pending, []
        return ("bench", state, pending)

    def snapshot_state(self):
        state = base.snapshot_state(self)
        if state is None and not self._bench_pending:
            return None
        pending, self._bench_pending = self._bench_pending, []
        return ("bench", state, pending)

    def merge_state(self, state):
        _, inner, stamps = state
        if inner is not None:
            base.merge_state(self, inner)
        recorder.stamps.extend(stamps)

    namespace.update(
        __init__=__init__, _bench_emit=emit,
        checkpoint_state=checkpoint_state, snapshot_state=snapshot_state,
        merge_state=merge_state,
    )
    if run:
        inputs = tuple(base.ports.inputs) if digest else ()

        def run_(self, job):
            start = perf_counter_ns()
            base.run(self, job)
            end = perf_counter_ns()
            self._bench_emit((self.instance.instance_id, job.iteration,
                              start, end,
                              _digest(job, inputs) if digest else None))

        namespace["run"] = run_
    if _has_pair_kernel(base):
        base_pair = base.compile_fused_pair.__func__

        def compile_fused_pair(cls, upstream_cls, upstream, instance,
                               backend):
            kernel = base_pair(cls, upstream_cls, upstream, instance, backend)
            if kernel is None:
                return None

            def stamped_kernel(first, second, first_job, second_job):
                start = perf_counter_ns()
                kernel(first, second, first_job, second_job)
                end = perf_counter_ns()
                emit_first = getattr(first, "_bench_emit", None)
                if emit_first is not None:
                    emit_first((first_job.instance.instance_id,
                                first_job.iteration, start, start, None))
                if run:
                    second._bench_emit((second_job.instance.instance_id,
                                        second_job.iteration, start, end,
                                        None))
            return stamped_kernel

        namespace["compile_fused_pair"] = classmethod(compile_fused_pair)
    return type(f"Stamped{base.__name__}", (base,), namespace)


def stamped_registry(
    recorder: Recorder,
    *,
    every_job: bool,
    sink_overrides: Mapping[str, Callable[[type], type]] | None = None,
) -> dict[str, type[Component]]:
    """The default registry with every class wrapped for stamping.

    Untraced (``every_job=False``) only sources and sinks stamp their
    jobs — what latency and throughput need — plus the fused-pair
    peephole, which stands in for a source; other classes stay as
    registered.  Traced runs stamp every job.  ``sink_overrides`` maps a class name to a function that
    subclasses the stamped class (the self-tests corrupt a record this
    way).
    """
    wrapped: dict[str, type[Component]] = {}
    for name, base in default_registry().items():
        role = role_of(base)
        if not every_job and role == "job" and not _has_pair_kernel(base):
            continue
        cls = _stamped(base, recorder, run=every_job or role != "job",
                       digest=role == "sink")
        if sink_overrides and name in sink_overrides:
            cls = sink_overrides[name](cls)
        wrapped[name] = cls
    return default_registry(wrapped)


class Spans:
    """In-memory spans around calls into named layers (thread-safe).

    Fields live in flat integer arrays rather than a list of tuples: a
    traced sweep makes ~10^5 spans, and that many tracked tuples would
    slow every garbage collection in the program being measured.
    """

    def __init__(self) -> None:
        self._layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._fields = tuple(array("q") for _ in range(5))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    @property
    def records(self) -> list[tuple[str, int, int, int, int]]:
        """``(layer, start_ns, end_ns, thread, depth)`` per span."""
        layers = self._layers
        return [(layers[lid], start, end, thread, depth)
                for lid, start, end, thread, depth in zip(*self._fields)]

    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`restore`.

        ``owner`` is an instance (the wrapper shadows the bound method) or
        a class (the wrapper is a plain function, so it binds ``self``).
        """
        had_own = attr in vars(owner)
        previous = vars(owner).get(attr)
        original = previous if had_own and isinstance(owner, type) \
            else getattr(owner, attr)
        local = self._local
        lock = self._lock
        lid = self._layer_ids.setdefault(layer, len(self._layers))
        if lid == len(self._layers):
            self._layers.append(layer)
        lids, starts, ends, threads, depths = self._fields

        def spanned(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                with lock:  # the five appends must stay aligned
                    lids.append(lid)
                    starts.append(start)
                    ends.append(end)
                    threads.append(threading.get_ident())
                    depths.append(depth)
                local.depth = depth

        setattr(owner, attr, spanned)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def self_ns(self) -> dict[str, int]:
        """Per-layer self time: span durations minus directly nested spans."""
        totals: dict[str, int] = {}
        by_thread: dict[int, list[tuple[str, int, int, int, int]]] = {}
        for rec in self.records:
            by_thread.setdefault(rec[3], []).append(rec)
        for recs in by_thread.values():
            recs.sort(key=lambda r: (r[1], r[4]))
            stack: list[tuple[str, int]] = []  # (layer, end)
            for layer, start, end, _, _ in recs:
                while stack and stack[-1][1] <= start:
                    stack.pop()
                if stack:
                    parent = stack[-1][0]
                    totals[parent] = totals.get(parent, 0) - (end - start)
                totals[layer] = totals.get(layer, 0) + (end - start)
                stack.append((layer, end))
        return totals

    def total_ns(self, layer: str) -> int:
        """Summed duration of ``layer``'s outermost spans."""
        return sum(end - start for name, start, end, _, depth in self.records
                   if name == layer and depth == 0)

    def of(self, layer: str) -> list[tuple[int, int]]:
        return [(s, e) for name, s, e, _, _ in self.records if name == layer]
