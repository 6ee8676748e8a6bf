"""Runtime enforcement of reconciled stream formats (StreamFormatError)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StreamError, StreamFormatError
from repro.hinch.stream import Stream, StreamStore


def test_put_against_expectation_raises_structured_error():
    s = Stream("frames")
    s.set_expected((8, 8), np.uint8)
    with pytest.raises(StreamFormatError) as exc_info:
        s.put(0, np.zeros((4, 4), dtype=np.uint8), writer="cam")
    err = exc_info.value
    assert err.stream == "frames"
    assert err.iteration == 0
    assert err.node == "cam"
    assert err.declared == ((8, 8), "uint8")
    assert err.observed == ((4, 4), "uint8")
    assert "X501" in str(err)


def test_put_matching_expectation_passes():
    s = Stream("frames")
    s.set_expected((8, 8), np.uint8)
    s.put(0, np.zeros((8, 8), dtype=np.uint8), writer="cam")
    assert s.observed == ("plane", (8, 8), "uint8")


def test_ensure_buffer_against_expectation_raises():
    s = Stream("frames")
    s.set_expected((8, 8), np.uint8)
    with pytest.raises(StreamFormatError, match="geometry mismatch"):
        s.ensure_buffer(0, shape=(8, 8), dtype=np.float32, writer="scale")


def test_fused_stream_geometry_mismatch_raises_structured_error():
    # a chain-internal stream of a fused job is held to its solved format
    from repro.hinch.fusion import FusedChain, _FusedLocalStore

    chain = FusedChain((), {"mid": ((8, 8), "uint8")})
    store = _FusedLocalStore(StreamStore(), chain, {})
    with pytest.raises(StreamFormatError, match="fused stream") as exc_info:
        store.stream("mid").ensure_buffer(
            0, shape=(4, 8), dtype=np.uint8, writer="scale"
        )
    err = exc_info.value
    assert err.stream == "mid"
    assert err.iteration == 0
    assert err.node == "scale"
    assert err.declared == ((8, 8), "uint8")
    assert err.observed == ((4, 8), "uint8")
    # the matching geometry gets the job-local temporary
    buf = store.stream("mid").ensure_buffer(0, shape=(8, 8), dtype=np.uint8)
    assert buf.shape == (8, 8)


def test_format_error_is_a_stream_error():
    # callers catching the historical StreamError keep working
    assert issubclass(StreamFormatError, StreamError)


def test_slice_copy_disagreement_still_raises():
    s = Stream("frames")  # no expectation installed: first-write rules
    s.ensure_buffer(0, shape=(8, 8), dtype=np.uint8, writer="scale/0")
    with pytest.raises(StreamFormatError) as exc_info:
        s.ensure_buffer(0, shape=(4, 8), dtype=np.uint8, writer="scale/1")
    assert exc_info.value.node == "scale/1"


def test_opaque_payloads_are_not_validated():
    s = Stream("bits")
    s.set_expected((8, 8), np.uint8)  # a solver bug should not break objects

    class Blob:
        FORMAT_KIND = "bitstream"

    s.put(0, Blob(), writer="enc")
    assert s.observed == ("bitstream", None, None)


def test_store_installs_expectations_on_existing_and_new_streams():
    store = StreamStore()
    early = store.stream("a")
    store.set_expectations({"a": ((8, 8), "uint8"), "b": ((4, 4), "uint8")})
    late = store.stream("b")
    assert early.expected == ((8, 8), np.dtype("uint8"))
    assert late.expected == ((4, 4), np.dtype("uint8"))
    # reconfiguration replaces the table; dropped streams revert to inference
    store.set_expectations({"b": ((2, 2), "uint8")})
    assert early.expected is None
    assert late.expected == ((2, 2), np.dtype("uint8"))
