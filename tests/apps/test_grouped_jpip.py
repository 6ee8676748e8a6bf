"""The grouped JPiP variant (§4.1) must stay functionally identical."""

from __future__ import annotations

import pytest

from repro.apps import build_jpip, make_program
from repro.components.registry import default_registry
from repro.errors import XSPCLError
from repro.hinch import ThreadedRuntime
from repro.hinch.grouping import group_linear_chains

REG = default_registry()
KW = dict(width=64, height=48, pip_height=48, factor=4, slices=3, frames=2,
          collect=True)


def frames_of(spec, *, fuse=False, iters=3):
    program = make_program(spec, name="jpip")
    rt = ThreadedRuntime(program, REG, nodes=2, pipeline_depth=2,
                         max_iterations=iters, fuse=fuse)
    if fuse:
        # each Y-field IDCT slice copy fuses with the downscale copy
        # that shares its slice region
        fused = {c.node_id for c in rt.fusion_report.chains}
        assert {f"pip0_idct_y/idct[{i}]+pip0_idct_y/scale[{i}]"
                for i in range(3)} <= fused
    return rt.run().components["sink"].ordered_frames()


def test_grouped_structure_shares_slice_copies():
    prog = make_program(build_jpip(1, grouped_stages=True, **{
        k: v for k, v in KW.items() if k != "collect"}), name="jpip")
    # Y idct and downscale live in the same slice region (same copy index)
    idct = prog.components["pip0_idct_y/idct[0]"]
    scale = prog.components["pip0_idct_y/scale[0]"]
    assert idct.slice == scale.slice
    pg = prog.build_graph()
    assert pg.graph.has_edge("pip0_idct_y/idct[0]", "pip0_idct_y/scale[0]")
    # chroma stays split: downscale in its own region
    assert "scale0_u[0]" in prog.components


def test_grouped_chains_merge_under_group_chains():
    prog = make_program(build_jpip(1, grouped_stages=True, **{
        k: v for k, v in KW.items() if k != "collect"}), name="jpip")
    grouped = group_linear_chains(prog.build_graph())
    merged = [n for n in grouped.graph.node_ids if "+" in n]
    assert any("idct" in m and "scale" in m for m in merged)


def test_grouped_output_identical_to_split():
    split = frames_of(build_jpip(1, **KW))
    grouped = frames_of(build_jpip(1, grouped_stages=True, **KW))
    grouped_merged = frames_of(build_jpip(1, grouped_stages=True, **KW),
                               fuse=True)
    assert len(split) == len(grouped) == len(grouped_merged) == 3
    for a, b, c in zip(split, grouped, grouped_merged):
        assert a == b == c


def test_grouped_incompatible_with_reconfigurable():
    with pytest.raises(XSPCLError, match="static-variant"):
        build_jpip(2, reconfigurable=True, grouped_stages=True)
