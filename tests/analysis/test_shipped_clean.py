"""Shipped specifications and builders lint clean.

"Clean" means: no errors, and any warnings/infos are from the documented,
intentional set — X304 on the Blur crossdep region (the paper deliberately
uses a non-SP halo exchange; docs/lint.md explains why it stays) and X401
fusion hints on linear decode chains (the sequential baselines exist to
measure exactly that fusion).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import lint_file, lint_spec
from repro.apps import (
    build_blur,
    build_blur_sequential,
    build_jpip,
    build_jpip_sequential,
    build_pip,
    build_pip_sequential,
    make_program,
)
from repro.core import parse_file
from repro.hinch.coordination import build_configuration

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "specs").glob("*.xml")
)

#: intentional, documented diagnostics (see docs/lint.md)
ALLOWED = {"X304", "X401"}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_specs_lint_clean(path, ports, classes):
    diagnostics = lint_file(path, ports=ports, classes=classes)
    assert not [d for d in diagnostics if d.severity.name == "ERROR"]
    unexpected = {d.code for d in diagnostics} - ALLOWED
    assert not unexpected, [d.format() for d in diagnostics]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_x401_chains_lie_inside_one_fused_chain(path, ports, classes):
    """X401 proposes only what ``--fuse`` merges on the runtimes."""
    chains = [
        re.match(r"linear chain (.+?) can be fused", d.message)[1].split(" -> ")
        for d in lint_file(path, ports=ports, classes=classes)
        if d.code == "X401"
    ]
    program = make_program(parse_file(path), name=path.stem)
    fusion = build_configuration(program, classes, None, fuse=True).fusion
    fused = [{m.instance_id for m in c} for c in fusion.chains]
    for chain in chains:
        assert any(set(chain) <= members for members in fused), chain


BUILDERS = [
    (build_blur, {}),
    (build_blur, dict(size=5)),
    (build_blur, dict(reconfigurable=True)),
    (build_blur_sequential, {}),
    (build_pip, {}),
    (build_pip, dict(n_pips=2, reconfigurable=True)),
    (build_pip_sequential, {}),
    (build_jpip, {}),
    (build_jpip, dict(n_pips=2, reconfigurable=True)),
    (build_jpip_sequential, {}),
]


@pytest.mark.parametrize(
    "builder,kwargs", BUILDERS,
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_builder_specs_lint_clean(builder, kwargs, ports, classes):
    diagnostics = lint_spec(builder(**kwargs), ports=ports, classes=classes)
    assert not [d for d in diagnostics if d.severity.name == "ERROR"]
    unexpected = {d.code for d in diagnostics} - ALLOWED
    assert not unexpected, [d.format() for d in diagnostics]


def test_examples_directory_is_nonempty():
    assert len(EXAMPLES) >= 5
