"""The golden transcript: tools/make_transcript.py rebuilds
tests/transcript.jsonl byte for byte, whatever the hash seed.  A change
that alters any answer it records shows here; such a change rewrites the
file with the tool, in the same diff."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "transcript.jsonl"


def test_transcript_size():
    assert TRANSCRIPT.stat().st_size < 150_000


@pytest.mark.parametrize("seed", ["0", "1"])
def test_rebuild_is_byte_identical(tmp_path, seed):
    out = tmp_path / "transcript.jsonl"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "make_transcript.py"), str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_bytes() == TRANSCRIPT.read_bytes()
