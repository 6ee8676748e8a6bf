"""Pure functions from stamps to frames, latencies and layer splits.

A stamp is ``(instance_id, iteration, start_ns, end_ns, digest)``.  A
frame is one iteration: it starts when its first source kernel starts
and ends when its sink kernel ends.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Topology", "FrameCheck", "by_iteration", "check_frames", "throughput_fps",
    "percentile", "handoffs_ns", "critical_path", "splice_gaps_ms",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Topology:
    """Who produces each instance's inputs, per configuration.

    ``configs`` is ``[(first_iteration, producers)]`` in iteration order;
    ``producers`` maps an instance id to the instance ids writing the
    streams it reads, after the configuration's bypass aliases.
    """

    roles: dict[str, str]
    configs: list[tuple[int, dict[str, frozenset[str]]]] = field(
        default_factory=list)

    @staticmethod
    def producers_of(
        ports: Mapping[str, tuple[tuple[str, ...], tuple[str, ...]]],
        streams: Mapping[str, Mapping[str, str]],
        aliases: Mapping[str, str],
    ) -> dict[str, frozenset[str]]:
        """``ports``: iid -> (inputs, outputs); ``streams``: iid -> port map."""
        writers: dict[str, set[str]] = {}
        for iid, (_, outputs) in ports.items():
            for port in outputs:
                if port in streams[iid]:
                    name = streams[iid][port]
                    writers.setdefault(aliases.get(name, name), set()).add(iid)
        producers: dict[str, frozenset[str]] = {}
        for iid, (inputs, _) in ports.items():
            found: set[str] = set()
            for port in inputs:
                if port in streams[iid]:
                    name = streams[iid][port]
                    found |= writers.get(aliases.get(name, name), set())
            producers[iid] = frozenset(found - {iid})
        return producers

    def producers(self, iteration: int) -> dict[str, frozenset[str]]:
        current: dict[str, frozenset[str]] = {}
        for first, producers in self.configs:
            if first > iteration:
                break
            current = producers
        return current


@dataclass
class FrameCheck:
    """Outcome of checking one run's frames against the reference."""

    frames: int
    failed: int
    #: per good frame, in iteration order
    latency_ns: list[int]
    #: iteration -> sink end, good frames only
    sink_end: dict[int, int]
    first_kernel_ns: int | None

    @property
    def sink_end_ns(self) -> list[int]:
        return sorted(self.sink_end.values())


def by_iteration(stamps: Iterable[tuple]) -> dict[int, list[tuple]]:
    out: dict[int, list[tuple]] = {}
    for stamp in stamps:
        out.setdefault(stamp[1], []).append(stamp)
    return out


def check_frames(
    stamps: Sequence[tuple],
    roles: Mapping[str, str],
    frames: int,
    reference: Sequence[bytes] | None,
) -> FrameCheck:
    """Every frame needs a source stamp, one sink stamp, the right digest.

    ``reference`` is the per-iteration sink digest to match; ``None``
    checks only that each frame has both stamps (the reference run
    itself).
    """
    grouped = by_iteration(stamps)
    failed = 0
    latency: list[int] = []
    ends: dict[int, int] = {}
    for i in range(frames):
        group = grouped.get(i, [])
        sources = [s for s in group if roles.get(s[0]) == "source"]
        sinks = [s for s in group if roles.get(s[0]) == "sink"]
        if not sources or len(sinks) != 1:
            failed += 1
            continue
        sink = sinks[0]
        if reference is not None and sink[4] != reference[i]:
            failed += 1
            continue
        latency.append(sink[3] - min(s[2] for s in sources))
        ends[i] = sink[3]
    extra = sum(1 for i in grouped if not 0 <= i < frames)
    return FrameCheck(
        frames=frames,
        failed=failed + extra,
        latency_ns=latency,
        sink_end=ends,
        first_kernel_ns=min((s[2] for s in stamps), default=None),
    )


def throughput_fps(sink_end_ns: Sequence[int]) -> float:
    """Frames per second between the first and the last sink stamp."""
    ends = sorted(sink_end_ns)
    if len(ends) < 2 or ends[-1] == ends[0]:
        raise ValueError("throughput needs two distinct sink stamps")
    return (len(ends) - 1) * 1e9 / (ends[-1] - ends[0])


def handoffs_ns(stamps: Sequence[tuple], topology: Topology) -> list[int]:
    """Per consumer job: its start minus its last producer's end."""
    out: list[int] = []
    for iteration, group in by_iteration(stamps).items():
        producers = topology.producers(iteration)
        ends = {s[0]: s[3] for s in group}
        for iid, _, start, _, _ in group:
            prods = [ends[p] for p in producers.get(iid, ()) if p in ends]
            if prods:
                out.append(start - max(prods))
    return out


def critical_path(
    group: Sequence[tuple], producers: Mapping[str, frozenset[str]],
    roles: Mapping[str, str],
) -> tuple[int, int, int, int]:
    """Split one frame's wall time along its critical path.

    Walks back from the sink through the producer that finished last.
    Returns ``(wall, kernel, handoff, non_kernel)`` in ns, where
    ``non_kernel`` is the wait between the frame's first source start
    and the start of the path's root; the three parts sum to ``wall``.
    """
    by_iid = {s[0]: s for s in group}
    sink = next(s for s in group if roles.get(s[0]) == "sink")
    start = min(s[2] for s in group if roles.get(s[0]) == "source")
    kernel = sink[3] - sink[2]
    handoff = 0
    cur = sink
    while True:
        prods = [by_iid[p] for p in producers.get(cur[0], ()) if p in by_iid]
        if not prods:
            break
        prev = max(prods, key=lambda s: s[3])
        handoff += cur[2] - prev[3]
        kernel += prev[3] - prev[2]
        cur = prev
    return sink[3] - start, kernel, handoff, cur[2] - start


def splice_gaps_ms(sink_end: Mapping[int, int],
                   resume_iterations: Iterable[int]) -> list[float]:
    """Sink inter-arrival gap into each splice's first iteration, minus
    the median gap of the run (ms)."""
    gaps = {i: sink_end[i] - sink_end[i - 1]
            for i in sink_end if i - 1 in sink_end}
    if not gaps:
        return []
    steady = statistics.median(gaps.values())
    return [(gaps[r] - steady) / 1e6 for r in resume_iterations if r in gaps]
