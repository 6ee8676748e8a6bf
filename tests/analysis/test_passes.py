"""Per-code trigger / non-trigger tests for every analysis pass.

Each case is a minimal specification that must raise the diagnostic
followed by close siblings that must not.  Assertions are on the
specific code only — sibling diagnostics (e.g. the X401 fusion hint on
any linear pipeline) are allowed.
"""

from __future__ import annotations

import pytest

from repro.analysis import lint_string
from repro.analysis.diagnostics import Severity

from .conftest import CLEAN, blur, codes_of, sink, source, timer, wrap

# -- building blocks for the reconfiguration cases --------------------------

TOGGLE_PAIR = wrap(
    source("src", "raw")
    + '<manager name="mgr" queue="ui">\n'
    + '<on event="e" action="toggle" option="o3"/>\n'
    + '<on event="e" action="toggle" option="o5"/>\n'
    + "<body>\n"
    + '<option name="o3" enabled="true">\n'
    + blur("b3", "raw", "out", size=3)
    + "</option>\n"
    + '<option name="o5" enabled="false">\n'
    + blur("b5", "raw", "out", size=5)
    + "</option>\n"
    + "</body>\n"
    + "</manager>\n"
    + sink("snk", "out")
    + timer()
)

TOGGLE_PAIR_NO_TIMER = TOGGLE_PAIR.replace(timer(), "")

#: Two managers whose forward handlers bounce event "e" between their
#: queues forever (X405).
FORWARD_CYCLE = wrap(
    source("src", "raw")
    + '<manager name="m1" queue="q1">\n'
    + '<on event="e" action="forward" target="q2"/>\n'
    + "<body>\n" + blur("b1", "raw", "mid") + "</body>\n"
    + "</manager>\n"
    + '<manager name="m2" queue="q2">\n'
    + '<on event="e" action="forward" target="q1"/>\n'
    + "<body>\n" + blur("b2", "mid", "out") + "</body>\n"
    + "</manager>\n"
    + sink("snk", "out")
    + timer("q1")
)


def bypassed_option(bypasses: str) -> str:
    return wrap(
        source("src", "raw")
        + '<manager name="mgr" queue="ui">\n'
        + '<on event="e" action="toggle" option="opt"/>\n'
        + "<body>\n"
        + '<option name="opt" enabled="true">\n'
        + blur("b", "raw", "out")
        + bypasses
        + "</option>\n"
        + "</body>\n"
        + "</manager>\n"
        + sink("snk", "out")
        + timer()
    )


def helper_spec(helper_body: str, formals: str, call_args: str) -> str:
    extra = (
        '  <procedure name="helper">\n'
        f"    <params>{formals}</params>\n"
        "    <body>\n"
        f"{helper_body}"
        "    </body>\n"
        "  </procedure>\n"
    )
    body = (
        source("src", "s")
        + f'<call procedure="helper" name="h">{call_args}</call>\n'
    )
    return wrap(body, extra_procs=extra)


def sliced_pipeline(n: int, shape: str = "slice") -> str:
    if shape == "slice":  # slice allows exactly one parblock
        inner = ("<parblock>\n" + blur("h", "raw", "mid")
                 + blur("v", "mid", "out") + "</parblock>\n")
    else:
        inner = ("<parblock>\n" + blur("h", "raw", "mid") + "</parblock>\n"
                 "<parblock>\n" + blur("v", "mid", "out") + "</parblock>\n")
    return wrap(
        source("src", "raw")
        + f'<parallel shape="{shape}" n="{n}">\n'
        + inner
        + "</parallel>\n"
        + sink("snk", "out")
    )


#: source -> three parallel blurs -> sink: every node branches, no chain.
DIAMOND = wrap(
    '<component name="src" class="video_source">'
    '<stream port="y" ref="sy"/><stream port="u" ref="su"/>'
    '<stream port="v" ref="sv"/>'
    '<param name="width" value="8"/><param name="height" value="8"/>'
    "</component>\n"
    '<parallel shape="task">\n'
    "<parblock>\n" + blur("by", "sy", "ty") + "</parblock>\n"
    "<parblock>\n" + blur("bu", "su", "tu") + "</parblock>\n"
    "<parblock>\n" + blur("bv", "sv", "tv") + "</parblock>\n"
    "</parallel>\n"
    '<component name="snk" class="video_sink">'
    '<stream port="y" ref="ty"/><stream port="u" ref="tu"/>'
    '<stream port="v" ref="tv"/>'
    '<param name="width" value="8"/><param name="height" value="8"/>'
    "</component>\n"
)


CASES = {
    # -- front end / validation ---------------------------------------------
    "X001": (
        "<xspcl><procedure name='main'><body>",  # truncated document
        CLEAN,
    ),
    "X101": (
        wrap("", extra_procs=(
            '  <procedure name="helper"><body>'
            + source("s1", "x")
            + "</body></procedure>\n"
        )).replace('  <procedure name="main">\n    <body>\n    </body>\n'
                   "  </procedure>\n", ""),
        CLEAN,
    ),
    "X114": (
        wrap('<component name="x" class="no_such_class">'
             '<stream port="p" ref="s"/></component>\n'),
        CLEAN,
    ),
    "X118": (
        helper_spec(
            '<parallel shape="slice" n="${k}"><parblock>'
            + blur("c", "${s}", "dead")
            + "</parblock></parallel>\n",
            '<stream name="s"/><param name="k" default="0"/>',
            '<stream name="s" ref="s"/>',
        ),
        helper_spec(
            '<parallel shape="slice" n="${k}"><parblock>'
            + blur("c", "${s}", "dead")
            + "</parblock></parallel>\n",
            '<stream name="s"/><param name="k" default="2"/>',
            '<stream name="s" ref="s"/>',
        ),
    ),
    # -- liveness / dead flow -----------------------------------------------
    "X201": (
        wrap(
            source("src", "raw") + sink("snk", "raw"),
            extra_procs=(
                '  <procedure name="orphan"><body>'
                + source("s1", "x")
                + "</body></procedure>\n"
            ),
        ),
        CLEAN,
    ),
    "X202": (
        helper_spec(sink("c", "nowhere"), '<stream name="s"/>',
                    '<stream name="s" ref="s"/>'),
        helper_spec(sink("c", "${s}"), '<stream name="s"/>',
                    '<stream name="s" ref="s"/>'),
    ),
    "X203": (
        helper_spec(sink("c", "${s}"),
                    '<stream name="s"/><param name="k" default="1"/>',
                    '<stream name="s" ref="s"/>'),
        helper_spec(sink("c", "${s}"), '<stream name="s"/>',
                    '<stream name="s" ref="s"/>'),
    ),
    "X204": (
        wrap(source("src", "s") + sink("snk", "s") + source("src2", "dead")),
        wrap(source("src", "s") + sink("snk", "s")
             + source("src2", "s2") + sink("snk2", "s2")),
    ),
    "X205": (
        wrap(source("src", "s") + sink("snk", "s") + sink("snk2", "ghost")),
        CLEAN,
    ),
    "X206": (
        TOGGLE_PAIR
        + "",  # modified below: drop the o5 handler so o5 is untoggleable
        TOGGLE_PAIR,
    ),
    # -- concurrency / safety -----------------------------------------------
    "X301": (
        wrap(
            '<parallel shape="task">\n'
            "<parblock>\n" + blur("c1", "a", "b") + "</parblock>\n"
            "<parblock>\n" + blur("c2", "b", "a") + "</parblock>\n"
            "</parallel>\n"
        ),
        CLEAN,
    ),
    "X302": (
        wrap(source("src1", "s") + source("src2", "s") + sink("snk", "s")),
        wrap(source("src1", "s") + source("src2", "s2")
             + sink("snk", "s") + sink("snk2", "s2")),
    ),
    "X303": (
        wrap(
            '<parallel shape="task">\n'
            "<parblock>\n" + source("src", "s") + "</parblock>\n"
            "<parblock>\n" + sink("snk", "s") + "</parblock>\n"
            "</parallel>\n"
        ),
        wrap(source("src", "s") + sink("snk", "s")),
    ),
    "X304": (
        sliced_pipeline(3, shape="crossdep"),
        sliced_pipeline(3, shape="slice"),
    ),
    "X305": (TOGGLE_PAIR_NO_TIMER, TOGGLE_PAIR),
    "X306": (
        TOGGLE_PAIR.replace(
            '<on event="e" action="toggle" option="o5"/>\n',
            '<on event="e" action="toggle" option="o5"/>\n'
            '<on event="f" action="forward" target="nowhere"/>\n'),
        TOGGLE_PAIR.replace(
            '<on event="e" action="toggle" option="o5"/>\n',
            '<on event="e" action="toggle" option="o5"/>\n'
            '<on event="f" action="forward" target="ui"/>\n'),
    ),
    "X307": (
        bypassed_option('<bypass from="out" to="raw"/>'
                        '<bypass from="raw" to="out"/>\n'),
        bypassed_option('<bypass from="out" to="raw"/>\n'),
    ),
    # -- performance ---------------------------------------------------------
    "X401": (
        CLEAN,
        DIAMOND,
        # a linear graph edge no stream joins is no fusion opportunity
        wrap(source("src", "raw") + timer() + sink("snk", "raw")),
    ),
    "X402": (
        sliced_pipeline(3),  # height 8 % 3 != 0
        sliced_pipeline(2),
    ),
    "X403": (CLEAN, CLEAN),  # distinguished by the classes registry below
    "X405": (
        FORWARD_CYCLE,
        # same topology, but the return edge carries a different event:
        # (q1, e) -> (q2, e) and (q2, f) -> (q1, f) do not form a cycle.
        FORWARD_CYCLE.replace(
            '<on event="e" action="forward" target="q1"/>',
            '<on event="f" action="forward" target="q1"/>'),
    ),
}

# X206 trigger: same toggle pair but no handler ever touches o5.
CASES["X206"] = (
    TOGGLE_PAIR.replace('<on event="e" action="toggle" option="o5"/>\n', ""),
    TOGGLE_PAIR,
)


@pytest.mark.parametrize("code", sorted(CASES))
def test_trigger_and_non_trigger(code, ports, classes):
    trigger, *cleans = CASES[code]
    if code == "X403":
        # a class object that publishes no cost_profile
        bad_classes = dict(classes)
        bad_classes["luma_source"] = type("NoProfile", (), {})
        assert code in codes_of(trigger, ports, bad_classes)
        assert code not in codes_of(cleans[0], ports, classes)
        return
    assert code in codes_of(trigger, ports, classes), f"{code} not raised"
    for clean in cleans:
        assert code not in codes_of(clean, ports, classes), \
            f"{code} false positive"


def test_collects_multiple_validation_errors(ports):
    text = wrap(
        '<component name="x" class="no_such_class">'
        '<stream port="p" ref="s"/></component>\n'
        '<call procedure="missing"/>\n'
        '<call procedure="alsomissing"/>\n'
    )
    diagnostics = lint_string(text, ports=ports)
    assert len([d for d in diagnostics if d.severity >= Severity.ERROR]) == 3
    assert {d.code for d in diagnostics} >= {"X103", "X114"}


def test_x206_severity_depends_on_default_state(ports):
    """Untoggleable options: dead weight is a warning, pointless wrapper info."""
    untoggleable_off = CASES["X206"][0]
    diags = [d for d in lint_string(untoggleable_off, ports=ports)
             if d.code == "X206"]
    assert diags and all(d.severity == Severity.WARNING for d in diags)

    untoggleable_on = untoggleable_off.replace(
        '<on event="e" action="toggle" option="o3"/>\n', ""
    ).replace('<option name="o5" enabled="false">',
              '<option name="o5" enabled="true">')
    # now *both* options are untoggleable; o3/o5 are permanently enabled
    diags = [d for d in lint_string(untoggleable_on, ports=ports)
             if d.code == "X206"]
    assert diags and all(d.severity == Severity.INFO for d in diags)


def test_x404_over_slicing_against_machine_width(ports, classes):
    """Slice replication wider than the deployment is flagged — but only
    when a machine width is supplied, and never when the copies fit."""
    spec = sliced_pipeline(8)  # 8 divides height 8: no X402 noise

    # no deployment width -> the pass is skipped entirely
    assert "X404" not in codes_of(spec, ports, classes)

    diags = [d for d in lint_string(spec, ports=ports, classes=classes,
                                    machine_nodes=3) if d.code == "X404"]
    # both definitions inside the slice region are over-replicated,
    # each reported once (not once per copy)
    assert {d.where for d in diags} == {"h", "v"}
    assert len(diags) == 2
    assert all(d.severity == Severity.WARNING for d in diags)
    assert "5 excess copies" in diags[0].message

    # copies fit on the machine -> clean
    assert "X404" not in {
        d.code
        for d in lint_string(spec, ports=ports, classes=classes,
                             machine_nodes=8)
    }


def test_x301_suppresses_redundant_x303(ports):
    trigger = CASES["X301"][0]
    codes = codes_of(trigger, ports)
    assert "X301" in codes
    assert "X303" not in codes


def test_x204_stream_live_in_alternate_configuration(ports):
    """A stream read only in a non-default configuration is not dead."""
    codes = codes_of(TOGGLE_PAIR, ports)
    assert "X204" not in codes
    assert "X205" not in codes  # toggles flip atomically: 'out' always written


def test_diagnostics_carry_source_lines(ports):
    diagnostics = lint_string(CASES["X114"][0], ports=ports)
    bad = [d for d in diagnostics if d.code == "X114"]
    assert bad and bad[0].line is not None
