"""Cross-backend equivalence on the real applications.

The SpaceCAKE simulator with ``execute=True`` must produce exactly the
frames the threaded runtime produces — the scheduler semantics are
shared, only the notion of time differs.  Parameter requests obey one
replay rule on every backend, process workers and respawns included.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.apps import build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.core import parse_string
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.spacecake import SimRuntime

REG = default_registry()


def both(spec, *, iters, nodes=2, depth=2):
    program = make_program(spec, name="app")
    thr = ThreadedRuntime(program, REG, nodes=nodes, pipeline_depth=depth,
                          max_iterations=iters).run()
    sim = SimRuntime(program, REG, nodes=nodes, pipeline_depth=depth,
                     max_iterations=iters, execute=True).run()
    return thr, sim


def test_pip_identical_frames():
    thr, sim = both(build_pip(1, width=64, height=48, factor=4, slices=2,
                              frames=2, collect=True), iters=4)
    a = thr.components["sink"].ordered_frames()
    b = sim.components["sink"].ordered_frames()
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert x == y


def test_blur_identical_planes():
    thr, sim = both(build_blur(5, width=48, height=36, slices=3, frames=2,
                               collect=True), iters=4)
    a = thr.components["sink"].ordered_planes()
    b = sim.components["sink"].ordered_planes()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_jpip_identical_frames():
    thr, sim = both(
        build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                   slices=3, frames=2, collect=True),
        iters=3,
    )
    a = thr.components["sink"].ordered_frames()
    b = sim.components["sink"].ordered_frames()
    for x, y in zip(a, b):
        assert x == y


def test_reconfigurable_blur_same_reconfig_points_when_sequential():
    """With pipeline depth 1 and 1 node both backends are deterministic
    and must reconfigure at identical iterations with identical output."""
    spec = build_blur(reconfigurable=True, period=3, width=48, height=36,
                      slices=3, frames=2, collect=True)
    program = make_program(spec, name="blur35")
    thr_rt = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                             max_iterations=9)
    thr = thr_rt.run()
    sim_rt = SimRuntime(program, REG, nodes=1, pipeline_depth=1,
                        max_iterations=9, execute=True)
    sim = sim_rt.run()
    assert thr_rt.reconfig_log == sim_rt.reconfig_log
    a = thr.components["sink"].ordered_planes()
    b = sim.components["sink"].ordered_planes()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("nodes,depth", [(1, 1), (3, 4)])
def test_simulated_cycles_independent_of_execute_mode(nodes, depth):
    """Functional execution must not change virtual time."""
    spec = build_blur(3, width=48, height=36, slices=3, frames=2)
    program = make_program(spec, name="blur")
    plain = SimRuntime(program, REG, nodes=nodes, pipeline_depth=depth,
                       max_iterations=6, execute=False).run()
    functional = SimRuntime(program, REG, nodes=nodes, pipeline_depth=depth,
                            max_iterations=6, execute=True).run()
    assert plain.cycles == functional.cycles
    assert plain.jobs_executed == functional.jobs_executed


# -- one replay rule for parameter requests ----------------------------------

PIP12 = Path(__file__).resolve().parents[2] / "examples" / "specs" / "pip12.xml"


def _pip12_with_move():
    """PiP-12 plus a ``move`` parameter request on the pip manager."""
    text = PIP12.read_text()
    text = text.replace(
        '<on event="toggle_pip" action="toggle" option="pip_opt"/>',
        '<on event="toggle_pip" action="toggle" option="pip_opt"/>\n'
        '        <on event="move" action="reconfigure" request="pos=8,8"/>',
    )
    text = text.replace(
        '<component name="sink" class="video_sink">',
        '<component name="sink" class="video_sink">\n'
        '        <param name="collect" value="1"/>',
    )
    return make_program(parse_string(text), name="pip12")


def _blend_params(result):
    return {
        iid: dict(c.params) for iid, c in result.components.items()
        if iid.startswith("sb1_") and "/blend[" in iid
    }


@pytest.mark.parametrize(
    "events,enabled",
    [
        # move reaches no live member; the enable then creates them fresh
        pytest.param(("move", "toggle_pip"), False, id="move-then-enable"),
        # move reaches the live members; a respawn must replay it
        pytest.param(("move",), True, id="move-live-members"),
    ],
)
def test_parameter_requests_replay_alike_on_every_backend(events, enabled):
    program = _pip12_with_move()
    states = {"pip_opt": True} if enabled else None
    common = dict(pipeline_depth=1, max_iterations=4, option_states=states)
    runtimes = {
        "threaded": ThreadedRuntime(program, REG, nodes=1, **common),
        "sim": SimRuntime(program, REG, nodes=1, execute=True, **common),
        "process-b1": ProcessRuntime(program, REG, workers=2, batch=1,
                                     **common),
        "process-b4": ProcessRuntime(program, REG, workers=2, batch=4,
                                     **common),
        # job 80 runs after the request and after the splice
        "process-kill": ProcessRuntime(program, REG, workers=2,
                                       faults="kill:80", **common),
    }
    results = {}
    for name, rt in runtimes.items():
        for event in events:
            rt.post_event("ui", event)
        results[name] = rt.run()
    assert any(e["kind"] == "respawn"
               for e in results["process-kill"].fault_events)
    ref = results["threaded"]
    ref_frames = ref.components["sink"].ordered_frames()
    assert len(ref_frames) == 4
    moved = {p.get("pos") for p in _blend_params(ref).values()}
    assert moved == ({"8,8"} if enabled else {None})
    for name, result in results.items():
        assert result.components["sink"].ordered_frames() == ref_frames, name
        assert _blend_params(result) == _blend_params(ref), name
