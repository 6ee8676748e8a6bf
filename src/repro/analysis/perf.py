"""Performance lint passes (codes ``X4xx``).

These never indicate a broken program — they point at cycles left on the
table: producer/consumer chains the runtimes could fuse into one job
(X401, chain fusion, the optimization of paper §4.1), slice counts
that split frames unevenly and unbalance the data-parallel copies (X402),
component classes the SpaceCAKE cost model can only price with its flat
fallback constant (X403), which degrades prediction fidelity, and slice
replication wider than the target machine (X404) — excess copies can
never run concurrently, they only add per-job scheduling overhead.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.diagnostics import DiagnosticBag
from repro.core.program import Program, ProgramGraph
from repro.hinch.grouping import find_linear_chains

__all__ = [
    "check_fusable_chains",
    "check_slice_divisibility",
    "check_cost_profiles",
    "check_over_slicing",
    "run_perf_passes",
]


def check_fusable_chains(
    bag: DiagnosticBag, program: Program, pg: ProgramGraph
) -> None:
    """X401: maximal linear component chains fusable into one job.

    Chain fusion merges producer→consumer pairs, so a chain is reported
    only when a stream joins each consecutive pair; a graph-only edge
    (a source followed by an event timer) is not a fusion opportunity.
    """
    joined = {
        (w.instance_id, r.instance_id)
        for table in pg.streams.values()
        for w in table.writers
        for r in table.readers
    }
    for chain in find_linear_chains(pg.graph, pg.crossdep_nodes):
        if not all(pair in joined for pair in zip(chain, chain[1:])):
            continue
        first = program.components.get(chain[0])
        bag.report(
            "X401",
            "linear chain " + " -> ".join(chain) + " can be fused into one "
            "scheduled job (run with --fuse) to keep the intermediate "
            "stream in cache",
            line=first.line if first is not None else None,
            where=chain[0],
        )


def check_slice_divisibility(bag: DiagnosticBag, program: Program) -> None:
    """X402: slice replication counts that do not divide the frame height.

    Each slice copy processes ``height / n`` rows; a remainder means the
    last copy gets a larger region and becomes the straggler every
    iteration — the region assignment interface (paper §3.3) balances
    only when ``n`` divides the height.
    """
    seen: set[str] = set()
    for inst in program.components.values():
        if inst.slice is None or inst.definition_id in seen:
            continue
        seen.add(inst.definition_id)
        _, n = inst.slice
        height = inst.params.get("height")
        if n > 1 and isinstance(height, int) and height % n != 0:
            bag.report(
                "X402",
                f"component {inst.definition_id!r} is sliced {n} ways but its "
                f"frame height {height} is not divisible by {n}; the uneven "
                "remainder rows make the last copy the per-iteration "
                "straggler",
                line=inst.line,
                where=inst.definition_id,
            )


def check_cost_profiles(
    bag: DiagnosticBag,
    program: Program,
    class_registry: Mapping[str, type] | None,
) -> None:
    """X403: classes the cost model prices with ``default_job_cycles``."""
    if class_registry is None:
        return
    reported: set[str] = set()
    for inst in program.components.values():
        if inst.class_name in reported:
            continue
        cls = class_registry.get(inst.class_name)
        if cls is not None and getattr(cls, "cost_profile", None) is None:
            reported.add(inst.class_name)
            bag.report(
                "X403",
                f"component class {inst.class_name!r} publishes no "
                "cost_profile; simulation and prediction fall back to the "
                "flat default_job_cycles constant (spacecake.costmodel)",
                line=inst.line,
                where=inst.instance_id,
            )


def check_over_slicing(
    bag: DiagnosticBag, program: Program, machine_nodes: int | None
) -> None:
    """X404: data-parallel replication wider than the target machine.

    The scheduler admits at most ``machine_nodes`` jobs concurrently, so
    slicing a region into more copies than there are nodes cannot buy
    additional parallelism — each extra copy only adds a job's worth of
    dispatch, stream accounting, and (on the process backend) transport
    overhead per iteration.  ``machine_nodes`` comes from the deployment
    (``xspcl lint --nodes N``); without it the pass is skipped.
    """
    if machine_nodes is None or machine_nodes < 1:
        return
    seen: set[str] = set()
    for inst in program.components.values():
        if inst.slice is None or inst.definition_id in seen:
            continue
        seen.add(inst.definition_id)
        _, n = inst.slice
        if n > machine_nodes:
            bag.report(
                "X404",
                f"component {inst.definition_id!r} is replicated into {n} "
                f"slice copies but the target machine has only "
                f"{machine_nodes} node(s); the {n - machine_nodes} excess "
                "cop" + ("y" if n - machine_nodes == 1 else "ies")
                + " can never run concurrently and only add per-iteration "
                "scheduling overhead",
                line=inst.line,
                where=inst.definition_id,
            )


def run_perf_passes(
    bag: DiagnosticBag,
    program: Program,
    pg: ProgramGraph,
    class_registry: Mapping[str, type] | None = None,
    machine_nodes: int | None = None,
) -> None:
    check_fusable_chains(bag, program, pg)
    check_slice_divisibility(bag, program)
    check_cost_profiles(bag, program, class_registry)
    check_over_slicing(bag, program, machine_nodes)
