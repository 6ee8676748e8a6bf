"""Component grouping: schedule producer+consumer as one entity (§4.1).

"This issue can be addressed in future versions by grouping several
components into a group that is scheduled as one entity.  The consumer
components in this group will then be run immediately after the
producers, when the data is still in the cache.  However, this approach
reduces the amount of parallelism in the application ..."

:func:`group_linear_chains` rewrites a built task graph, merging *linear
chains* of task nodes (single successor meets single predecessor, both
plain components with the same slice assignment) into one composite
node whose members run back-to-back in one job on one core.  Only the
SpaceCAKE simulator applies it (the ABL-1 "grouped" column of
:func:`repro.bench.figures.ablation_fusion`): the intermediate stream's
cache keys are written and immediately re-read by the same core,
reproducing the reuse the paper predicts, while the merged node shows
the lost parallelism.  The threaded and process runtimes merge producer
and consumer through chain fusion (:mod:`repro.hinch.fusion`,
``--fuse``) instead.

:func:`find_linear_chains` never crosses a *control* node, a *crossdep*
consumer (its halo edges encode a sparser ordering than
producer+consumer) or an *option-configuration* boundary (the members
would splice at different times).
"""

from __future__ import annotations

from repro.core.program import ComponentInstance, ProgramGraph
from repro.graph.taskgraph import TaskGraph

__all__ = ["group_linear_chains", "find_linear_chains", "GROUP_SEPARATOR"]

GROUP_SEPARATOR = "+"


def find_linear_chains(
    graph: TaskGraph,
    crossdep_nodes: frozenset[str] | set[str] = frozenset(),
) -> list[list[str]]:
    """Maximal linear chains of fusable task nodes (length >= 2).

    Public so the lint pass (X401, ``repro.analysis.perf``) can point at
    fusion opportunities without committing to the rewrite.  A chain
    refuses to cross control nodes (non-task kinds), crossdep members
    (``crossdep_nodes``, from :attr:`ProgramGraph.crossdep_nodes`), or an
    option-configuration boundary (members with different option sets
    would splice at different times).
    """

    def fusable_edge(u: str, v: str) -> bool:
        nu, nv = graph.node(u), graph.node(v)
        # control nodes (managers, barriers) are never chain members
        if nu.kind != "task" or nv.kind != "task":
            return False
        if graph.out_degree(u) != 1 or graph.in_degree(v) != 1:
            return False
        pu = nu.payload
        pv = nv.payload
        if not isinstance(pu, ComponentInstance) or not isinstance(
            pv, ComponentInstance
        ):
            return False
        # crossdep members: the halo edges encode a sparser ordering
        # than producer+consumer; merging would serialize the region
        if u in crossdep_nodes or v in crossdep_nodes:
            return False
        # option boundaries: members spliced by different reconfigurations
        # cannot be one scheduled entity
        if pu.options != pv.options:
            return False
        if pu.manager != pv.manager:
            return False
        return pu.slice == pv.slice

    in_chain: set[str] = set()
    chains: list[list[str]] = []
    for node in graph.topological_order():
        if node in in_chain:
            continue
        # only start a chain at a node that is not a fusable continuation
        preds = graph.predecessors(node)
        if len(preds) == 1 and fusable_edge(preds[0], node):
            continue
        chain = [node]
        cur = node
        while True:
            succs = graph.successors(cur)
            if len(succs) == 1 and fusable_edge(cur, succs[0]):
                cur = succs[0]
                chain.append(cur)
            else:
                break
        if len(chain) >= 2:
            chains.append(chain)
            in_chain.update(chain)
    return chains


def group_linear_chains(pg: ProgramGraph) -> ProgramGraph:
    """Return a ProgramGraph with linear component chains merged.

    Composite nodes get id ``a+b+c`` and payload ``(inst_a, inst_b,
    inst_c)`` in execution order; everything else (streams, aliases,
    option states) is shared with the input.
    """
    graph = pg.graph
    chains = find_linear_chains(graph, pg.crossdep_nodes)
    if not chains:
        return pg
    member_of: dict[str, str] = {}
    for chain in chains:
        gid = GROUP_SEPARATOR.join(chain)
        for node_id in chain:
            member_of[node_id] = gid

    grouped = TaskGraph()
    for node in graph:
        if node.node_id in member_of:
            gid = member_of[node.node_id]
            if gid not in grouped:
                chain = gid.split(GROUP_SEPARATOR)
                grouped.add_node(
                    gid,
                    label=gid,
                    kind="task",
                    payload=tuple(graph.node(n).payload for n in chain),
                    weight=sum(graph.node(n).weight for n in chain),
                )
        else:
            grouped.add_node(
                node.node_id,
                label=node.label,
                kind=node.kind,
                payload=node.payload,
                weight=node.weight,
            )

    def rename(node_id: str) -> str:
        return member_of.get(node_id, node_id)

    for u, v in graph.edges():
        gu, gv = rename(u), rename(v)
        if gu != gv:
            grouped.add_edge(gu, gv)

    return ProgramGraph(
        graph=grouped,
        streams=pg.streams,
        aliases=pg.aliases,
        option_states=pg.option_states,
        active_components=pg.active_components,
        crossdep_nodes=pg.crossdep_nodes,
    )
