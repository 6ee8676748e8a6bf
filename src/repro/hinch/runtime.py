"""ThreadedRuntime: Hinch executing for real on worker threads.

This is the *correctness* backend: components compute actual data (numpy
frames, JPEG bitstreams...), streams carry it, managers reconfigure live.
``nodes`` worker threads pop jobs from the central queue — under CPython's
GIL this yields concurrency, not parallel speedup; performance curves come
from the SpaceCAKE simulator (:mod:`repro.spacecake`).  Build, splicing
and reconfiguration control come from the shared
:class:`~repro.hinch.coordination.Coordinator`; this module adds only the
worker threads and the lock they share.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

from repro.core.program import Program
from repro.errors import SchedulingError
from repro.hinch.component import Component
from repro.hinch.coordination import Coordinator, RunResult
from repro.hinch.fusion import run_task
from repro.hinch.jobqueue import Job, JobQueue
from repro.hinch.shm import SharedPlanePool

__all__ = ["ThreadedRuntime", "RunResult"]


class ThreadedRuntime(Coordinator):
    """Run a Program on worker threads with real component execution."""

    def __init__(
        self,
        program: Program,
        registry: Mapping[str, type[Component]],
        *,
        nodes: int = 1,
        pipeline_depth: int = 5,
        max_iterations: int,
        trace: bool = False,
        option_states: Mapping[str, bool] | None = None,
        fuse: bool = False,
    ) -> None:
        if nodes < 1:
            raise SchedulingError(f"nodes must be >= 1, got {nodes}")
        self.nodes = nodes
        self._lock = threading.RLock()
        #: per-fused-node execution caches (intermediate temps, compiled
        #: kernels); discarded whenever the graph is rebuilt
        self._fused_caches: dict[str, dict[str, Any]] = {}
        # Process-local plane pool: sliced-writer buffers are recycled
        # across iterations instead of reallocated (same pool class the
        # process backend uses in shared-memory mode).
        super().__init__(
            program, registry, pipeline_depth=pipeline_depth,
            max_iterations=max_iterations, trace=trace,
            option_states=option_states, fuse=fuse,
            pool=SharedPlanePool(shared=False),
        )
        self.queue = JobQueue()
        self._failure: BaseException | None = None
        self._start_time = 0.0

    def _after_splice(self, added, removed, replay) -> None:
        # fused temps/kernels are per-graph
        self._fused_caches = {}

    # -- execution --------------------------------------------------------------------

    def _execute(self, job: Job, worker: int) -> None:
        node = self.pg.graph.node(job.node_id)
        start = time.perf_counter()
        members = None
        if node.kind == "task":
            members = run_task(
                job.node_id, node.payload, job.iteration, self.streams,
                self.broker, self.pg.aliases, self.host.live,
                stop_requester=self._request_stop, caches=self._fused_caches,
            )
        else:
            self._run_control(node, job.iteration)
        end = time.perf_counter()
        if self.tracer.enabled:
            self.tracer.record_job(job.node_id, job.iteration, worker,
                                   start, end, node.kind, members)

    def _request_stop(self) -> None:
        with self._lock:
            self.scheduler.request_stop()

    def _worker(self, worker_id: int) -> None:
        while True:
            job = self.queue.pop()
            if job is None:
                return
            try:
                self._execute(job, worker_id)
            except BaseException as exc:  # propagate to run()
                with self._lock:
                    if self._failure is None:
                        self._failure = exc
                self.queue.close()
                return
            with self._lock:
                ready = self.scheduler.complete(job)
                done = self.scheduler.done
            self.queue.push_all(ready)
            if done:
                self.queue.drain()

    def run(self) -> RunResult:
        """Execute to completion; returns statistics and live components."""
        self._start_time = time.perf_counter()
        with self._lock:
            initial = self.scheduler.start()
            done_immediately = self.scheduler.done
        self.queue.push_all(initial)
        if done_immediately:
            self.queue.drain()
        threads = [
            threading.Thread(
                target=self._worker, args=(i,), name=f"hinch-worker-{i}",
                daemon=True,
            )
            for i in range(self.nodes)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self._failure is not None:
            raise self._failure
        return self._result(
            time.perf_counter() - self._start_time,
            workers_spawned=self.nodes,
        )
