"""Atomic writer tests."""

import os

import pytest

from modkv.files import write_atomic


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
