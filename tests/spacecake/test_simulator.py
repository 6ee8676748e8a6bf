"""Behavioural tests of the SpaceCAKE SimRuntime."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.components.registry import default_ports, default_registry
from repro.core import AppBuilder, expand, parse_file
from repro.errors import SimulationError, StreamFormatError
from repro.hinch import ThreadedRuntime
from repro.spacecake import CostParams, SimRuntime

from tests.spacecake.helpers import PORTS, REGISTRY

ZERO_OVERHEAD = CostParams(
    job_overhead_cycles=0.0,
    sync_overhead_cycles=0.0,
    manager_invoke_cycles=0.0,
    barrier_cycles=0.0,
)


def linear_app(cycles=1000) -> AppBuilder:
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "costed_source", streams={"output": "a"},
                   params={"cycles": cycles})
    main.component("w", "costed_worker", streams={"input": "a", "output": "b"},
                   params={"cycles": cycles})
    main.component("snk", "costed_sink", streams={"input": "b"},
                   params={"cycles": cycles})
    return b


def sim(builder, *, nodes=1, depth=5, iters=10, execute=False, params=None,
        trace=False):
    program = expand(builder.build(), PORTS)
    return SimRuntime(
        program, REGISTRY, nodes=nodes, pipeline_depth=depth,
        max_iterations=iters, execute=execute, cost_params=params, trace=trace,
    ).run()


def test_sequential_cycle_count_is_exact():
    # depth=1, 1 node, zero overhead: cycles = 3 jobs * 1000 * iters
    result = sim(linear_app(1000), nodes=1, depth=1, iters=4,
                 params=ZERO_OVERHEAD)
    assert result.cycles == pytest.approx(3 * 1000 * 4)
    assert result.completed_iterations == 4
    assert result.jobs_executed == 12


def test_pipeline_parallelism_speeds_up_multinode():
    seq = sim(linear_app(1000), nodes=1, depth=1, iters=12, params=ZERO_OVERHEAD)
    pipe = sim(linear_app(1000), nodes=3, depth=5, iters=12, params=ZERO_OVERHEAD)
    # 3-stage pipeline on 3 cores: steady state runs all stages concurrently
    assert pipe.cycles < seq.cycles / 2
    # perfect pipeline bound: (iters + stages - 1) * stage_cycles
    assert pipe.cycles == pytest.approx((12 + 2) * 1000)


def test_one_node_pipeline_depth_does_not_speed_up():
    d1 = sim(linear_app(1000), nodes=1, depth=1, iters=8, params=ZERO_OVERHEAD)
    d5 = sim(linear_app(1000), nodes=1, depth=5, iters=8, params=ZERO_OVERHEAD)
    assert d5.cycles == pytest.approx(d1.cycles)


def test_determinism():
    results = [
        sim(linear_app(777), nodes=3, depth=4, iters=9).cycles for _ in range(3)
    ]
    assert results[0] == results[1] == results[2]


def test_slice_parallel_scales_with_nodes():
    def app():
        b = AppBuilder()
        main = b.procedure("main")
        main.component("src", "costed_source", streams={"output": "a"},
                       params={"cycles": 10})
        with main.parallel("slice", n=8):
            main.component("w", "costed_worker",
                           streams={"input": "a", "output": "b"},
                           params={"cycles": 80000})
        main.component("snk", "costed_sink", streams={"input": "b"},
                       params={"cycles": 10})
        return b

    one = sim(app(), nodes=1, depth=1, iters=4, params=ZERO_OVERHEAD)
    four = sim(app(), nodes=4, depth=1, iters=4, params=ZERO_OVERHEAD)
    eight = sim(app(), nodes=8, depth=1, iters=4, params=ZERO_OVERHEAD)
    assert one.cycles / four.cycles == pytest.approx(4.0, rel=0.05)
    assert one.cycles / eight.cycles == pytest.approx(8.0, rel=0.10)


def test_sync_overhead_charged_only_multinode():
    params = CostParams(job_overhead_cycles=0.0, sync_overhead_cycles=500.0,
                        manager_invoke_cycles=0.0, barrier_cycles=0.0)
    one = sim(linear_app(1000), nodes=1, depth=1, iters=4, params=params)
    two = sim(linear_app(1000), nodes=2, depth=1, iters=4, params=params)
    assert one.cycles == pytest.approx(3 * 1000 * 4)
    # 2 nodes, depth 1: same critical path + sync on every job
    assert two.cycles == pytest.approx(3 * (1000 + 500) * 4)


def test_cache_traffic_affects_cycles():
    def app(nbytes):
        b = AppBuilder()
        main = b.procedure("main")
        main.component("src", "costed_source", streams={"output": "a"},
                       params={"cycles": 100, "nbytes": nbytes})
        main.component("w", "costed_worker", streams={"input": "a", "output": "b"},
                       params={"cycles": 100, "nbytes": nbytes})
        main.component("snk", "costed_sink", streams={"input": "b"})
        return b

    small = sim(app(0), nodes=1, depth=1, iters=4, params=ZERO_OVERHEAD)
    big = sim(app(1 << 20), nodes=1, depth=1, iters=4, params=ZERO_OVERHEAD)
    assert big.cycles > small.cycles
    assert big.cache_stats.total_accesses > 0


def test_producer_consumer_same_core_reuses_cache():
    # With one node, the consumer reads what the producer just wrote ->
    # L1/L2 hits; with two nodes the consumer often runs on the other
    # core -> L2 at best.  Per-byte read cost must therefore not be lower
    # on two nodes.
    def app():
        b = AppBuilder()
        main = b.procedure("main")
        main.component("src", "costed_source", streams={"output": "a"},
                       params={"cycles": 100, "nbytes": 4096})
        main.component("w", "costed_worker", streams={"input": "a", "output": "b"},
                       params={"cycles": 100, "nbytes": 4096})
        main.component("snk", "costed_sink", streams={"input": "b"})
        return b

    one = sim(app(), nodes=1, depth=1, iters=6, params=ZERO_OVERHEAD)
    from repro.spacecake import AccessLevel

    l1_hits = one.cache_stats.accesses[AccessLevel.L1]
    assert l1_hits > 0


def test_utilization_bounds():
    result = sim(linear_app(1000), nodes=3, depth=5, iters=12, trace=True)
    assert 0.0 < result.utilization <= 1.0
    assert len(result.core_busy_cycles) == 3
    assert result.trace.events  # trace populated with virtual times


def test_more_nodes_than_parallelism_wastes_cores():
    result = sim(linear_app(1000), nodes=9, depth=1, iters=5,
                 params=ZERO_OVERHEAD)
    # depth=1 linear chain: exactly one job runs at a time
    assert result.utilization <= 1 / 9 + 1e-9


def test_simruntime_single_use():
    program = expand(linear_app().build(), PORTS)
    rt = SimRuntime(program, REGISTRY, nodes=1, max_iterations=1)
    rt.run()
    with pytest.raises(SimulationError, match="single-use"):
        rt.run()


def test_execute_mode_matches_threaded_results():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"},
                   params={"base": 5})
    main.component("dbl", "doubler", streams={"input": "a", "output": "b"})
    main.component("snk", "collector", streams={"input": "b"})
    program = expand(b.build(), PORTS)

    sim_result = SimRuntime(program, REGISTRY, nodes=3, pipeline_depth=4,
                            max_iterations=8, execute=True).run()
    thr_result = ThreadedRuntime(program, REGISTRY, nodes=3, pipeline_depth=4,
                                 max_iterations=8).run()
    assert (
        sim_result.components["snk"].ordered()
        == thr_result.components["snk"].ordered()
        == [(5 + k) * 2 for k in range(8)]
    )


# -- reconfiguration in virtual time ---------------------------------------------


def reconfig_app(period=6) -> AppBuilder:
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "costed_source", streams={"output": "a"},
                   params={"cycles": 1000})
    main.component("timer", "sim_timer",
                   params={"queue": "ui", "period": period, "event": "flip"})
    with main.manager("m", queue="ui") as mgr:
        mgr.on("flip", "toggle", option="extra")
        with main.option("extra", enabled=False, bypass=[("a", "b")]):
            main.component("x", "costed_worker",
                           streams={"input": "a", "output": "b"},
                           params={"cycles": 1000})
    main.component("snk", "costed_sink", streams={"input": "b"},
                   params={"cycles": 100})
    return b


def test_sim_reconfiguration_toggles():
    result = sim(reconfig_app(period=6), nodes=2, depth=3, iters=24)
    assert result.completed_iterations == 24
    assert result.reconfig_count >= 2
    assert result.events_handled >= 2


def test_reconfig_costs_cycles():
    static = sim(reconfig_app(period=1000), nodes=2, depth=3, iters=24)
    dynamic = sim(reconfig_app(period=6), nodes=2, depth=3, iters=24)
    assert dynamic.cycles > static.cycles


def test_reconfig_overhead_grows_with_nodes():
    """Paper Fig. 10: reconfig overhead increases with node count."""

    def overhead(nodes):
        b_static = reconfig_app(period=10 ** 9)
        b_dyn = reconfig_app(period=6)

        def with_slices(b):
            return b  # the simple app is enough for the trend

        static = sim(with_slices(b_static), nodes=nodes, depth=5, iters=48)
        dyn = sim(with_slices(b_dyn), nodes=nodes, depth=5, iters=48)
        return dyn.cycles / static.cycles - 1.0

    o1 = overhead(1)
    o4 = overhead(4)
    assert o4 >= o1 - 0.02  # allow tiny noise from scheduling detail


@pytest.mark.parametrize("execute", [False, True])
def test_format_mismatch_rejected_at_construction(execute):
    """The simulator runs the shared build, format solve included: an
    X501 spec fails at construction, as on the other backends."""
    fixture = (Path(__file__).resolve().parents[1] / "analysis" / "fixtures"
               / "format_mismatch.xml")
    program = expand(parse_file(fixture), default_ports(), name="mismatch")
    with pytest.raises(StreamFormatError, match="X501"):
        SimRuntime(program, default_registry(), nodes=1, max_iterations=2,
                   execute=execute)
