"""Atomic writer tests."""

import json
import os

import pytest

from conftest import dense, small_spec
from modkv import AttentionTrace, ParameterError, generate_synthetic, save_trace
from modkv.files import atomic_file, canonical_json, write_atomic


def test_writes_the_payload_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "out.bin"
    write_atomic(target, b"first")
    write_atomic(target, b"second")
    assert target.read_bytes() == b"second"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_mode_matches_a_plain_open(tmp_path):
    write_atomic(tmp_path / "atomic", b"x")
    with open(tmp_path / "plain", "wb") as fh:
        fh.write(b"x")
    assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode


def test_failed_write_removes_its_temporary_and_keeps_the_target(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_atomic(target, "not bytes")
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_failed_rename_removes_its_temporary(tmp_path):
    blocker = tmp_path / "dir"
    blocker.mkdir()
    (blocker / "keep").write_bytes(b"")
    with pytest.raises(OSError):
        write_atomic(blocker, b"payload")
    assert sorted(os.listdir(tmp_path)) == ["dir"]
    assert os.listdir(blocker) == ["keep"]


def test_two_writers_into_one_directory_use_distinct_temporaries(tmp_path, monkeypatch):
    """A fixed `<name>.tmp` would let two runs clobber each other's file."""
    seen = []
    real_replace = os.replace

    def spy(src, dst):
        seen.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    write_atomic(tmp_path / "a.csv", b"1")
    write_atomic(tmp_path / "a.csv", b"2")
    assert len(set(seen)) == 2
    assert all(os.path.dirname(p) == str(tmp_path) for p in seen)


def test_streamed_writes_appear_only_when_the_block_ends(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with atomic_file(target) as fh:
        fh.write(b"new ")
        fh.write(b"bytes")
        assert target.read_bytes() == b"old"
    assert target.read_bytes() == b"new bytes"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_exception_inside_the_block_keeps_the_target(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="writer failed"):
        with atomic_file(target) as fh:
            fh.write(b"partial")
            raise RuntimeError("writer failed")
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


class _FailsAtLastHead(AttentionTrace):
    """A trace whose last (layer, head) block cannot be produced."""

    def head_rows(self, layer, head, start=0, stop=None):
        h = self.header
        if (layer, head) == (h.num_layers - 1, h.num_heads - 1):
            raise RuntimeError("block unavailable")
        return super().head_rows(layer, head, start, stop)


@pytest.mark.parametrize("name", ["t.mkvt", "t.json"])
def test_failed_trace_saves_keep_the_old_file(tmp_path, name):
    # Two chunks of rows a head: the last head fails after the file has
    # grown.
    trace = dense(generate_synthetic(small_spec(3, layers=1, prompt_len=700)))
    n = trace.header.prompt_len
    partial = AttentionTrace(
        trace.header, trace.prefill[:, :, n - 8:].copy(), trace.decode, first_row=n - 8
    )
    failing = _FailsAtLastHead(trace.header, trace.prefill, trace.decode)
    target = tmp_path / name
    target.write_bytes(b"old")
    with pytest.raises(ParameterError, match="prompt row 0 requested"):
        save_trace(partial, target)
    with pytest.raises(RuntimeError, match="block unavailable"):
        save_trace(failing, target)
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == [name]


def test_canonical_json_is_compact_escaped_ascii():
    """The one JSON rendering behind traces, plans, masks, JSON tables and
    effective_config.json: no spaces, keys in insertion order, non-ASCII
    escaped."""
    obj = {"b": [1, 0.5, None, True], "a": "é"}
    assert canonical_json(obj) == b'{"b":[1,0.5,null,true],"a":"\\u00e9"}'
    assert canonical_json(obj) == json.dumps(obj, separators=(",", ":")).encode("ascii")
