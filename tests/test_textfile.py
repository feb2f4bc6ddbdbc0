"""Tests for the hashed output writer."""

import hashlib

from fracloc import textfile
from fracloc.textfile import write_hashed


def test_blocks_keep_the_bytes_and_their_digest(tmp_path):
    # lines of many lengths, and one chunk longer than a block, so the
    # stream crosses block boundaries inside and between chunks
    chunks = [f"{i}," + "x" * (i % 977) + "\n" for i in range(1500)]
    chunks.insert(700, "y" * (3 * textfile.BLOCK_CHARS + 5))
    path = tmp_path / "f.csv"
    digest = write_hashed(path, iter(chunks))
    data = path.read_bytes()
    assert data == "".join(chunks).encode("ascii")
    assert len(data) > 4 * textfile.BLOCK_CHARS
    assert digest == hashlib.sha256(data).hexdigest()


def test_empty_stream_is_an_empty_file(tmp_path):
    path = tmp_path / "f.csv"
    digest = write_hashed(path, iter([]))
    assert path.read_bytes() == b""
    assert digest == hashlib.sha256(b"").hexdigest()
