"""Self-tests of the benchmark itself (not part of the repo's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
from analysis import check_frames  # noqa: E402


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def _corrupt_iteration(iteration: int):
    """Sink subclass whose input record for ``iteration`` has one bit flipped."""

    class Job:
        def __init__(self, job):
            self._job = job

        def __getattr__(self, name):
            return getattr(self._job, name)

        def read(self, port):
            value = np.array(self._job.read(port))
            value.reshape(-1).view(np.uint8)[0] ^= 1
            return value

    def override(cls):
        class Corrupting(cls):
            def run(self, job):
                super().run(Job(job) if job.iteration == iteration else job)

        return Corrupting

    return override


@pytest.mark.parametrize("backend", bench.BACKENDS)
def test_corrupted_record_counts_as_failed(backend):
    session = bench.Session(
        "audio-dispatch", 0,
        sink_overrides={"feature_sink": _corrupt_iteration(3)})
    session.make_reference(20)
    result = session.run(backend, frames=20)
    assert result.failed == 1
    assert session.failed / session.attempted > 0


def test_clean_runs_pass_and_seed_moves_inputs():
    first = bench.Session("audio-dispatch", 0)
    first.make_reference(10)
    for backend in bench.BACKENDS:
        assert first.run(backend, frames=10).failed == 0
    again = bench.Session("audio-dispatch", 0)
    again.make_reference(10)
    other = bench.Session("audio-dispatch", 1)
    other.make_reference(10)
    assert again.references == first.references
    assert all(a != b for a, b in zip(other.references[None],
                                      first.references[None]))


def test_fused_pair_stamps_the_source():
    """On fused JPiP the source+decode pair kernel replaces both ``run``s."""
    session = bench.Session("jpip-kernel", 0)
    session.make_reference(6)
    result = session.run("process", frames=6)
    assert result.failed == 0
    assert result.workers_spawned >= 1
    fused = [s for s in result.stamps if s[0] == "bg_read" and s[2] == s[3]]
    assert len(fused) == 6


def test_frames_without_a_source_stamp_fail():
    roles = {"src": "source", "sink": "sink"}
    stamps = [("src", 0, 0, 1, None), ("sink", 0, 2, 3, b"a"),
              ("sink", 1, 4, 5, b"b")]
    check = check_frames(stamps, roles, 2, [b"a", b"b"])
    assert check.failed == 1


@pytest.mark.parametrize("workload,frames", [("audio-dispatch", 60),
                                             ("pip-reconfig", 40)])
def test_traced_split_reconciles_with_wall_time(workload, frames):
    session = bench.Session(workload, 0)
    session.make_reference(frames)
    for backend in bench.BACKENDS:
        result = session.run(backend, traced=True, frames=frames)
        assert result.failed == 0
        parts = bench.reconcile(result)
        assert len(parts) == frames
        for wall, kernel, handoff, non_kernel in parts:
            assert kernel + handoff + non_kernel == wall
            assert 0 < kernel <= wall
            assert handoff >= 0 and non_kernel >= 0
        split = bench.layer_split(result)
        assert split["jobs_per_frame"] >= 1
        assert 0 < split["kernel_share"] <= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "audio-dispatch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
