"""Journal-file helpers for the tests: a version-1 writer for
compatibility fixtures, and byte-level damage of one record.

Version 1 of the journal wrote one ``<crc32-hex> <compact-json>\\n`` line
per record; the library only reads that format now, so the fixtures that
need a version-1 file write it here.
"""

from __future__ import annotations

import io
import json
import os
import zlib

from repro.persist import _HEAD, _HEADER_BYTES, JOURNAL_MAGIC, _genesis_payload


def v1_line(payload: dict) -> bytes:
    """One version-1 record line."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return f"{zlib.crc32(body.encode('utf-8')):08x} {body}\n".encode("utf-8")


class V1Journal:
    """Writes the records ``BatchJournal`` writes, as version-1 lines."""

    def __init__(self, path, genesis: dict) -> None:
        self._file = open(path, "xb")
        self._next_seq = 1
        self._write({**genesis, "journal_version": 1})

    @classmethod
    def create(cls, path, *, num_vertices, params, backend="object"):
        return cls(path, _genesis_payload(num_vertices, params, backend))

    def _write(self, payload: dict) -> None:
        self._file.write(v1_line(payload))

    def append_batch(self, insertions, deletions) -> int:
        seq = self._next_seq
        self._next_seq += 1
        self._write({
            "type": "batch",
            "seq": seq,
            "ins": [[int(u), int(v)] for u, v in insertions],
            "del": [[int(u), int(v)] for u, v in deletions],
        })
        return seq

    def commit(self, seq: int) -> None:
        self._write({"type": "commit", "seq": seq})

    def note_checkpoint(self, seq: int, filename: str) -> None:
        self._write({"type": "checkpoint", "seq": seq, "file": filename})

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def record_spans(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` byte offsets of every record, genesis first."""
    spans = []
    if data.startswith(JOURNAL_MAGIC):
        pos = len(JOURNAL_MAGIC)
        while pos < len(data):
            _, length = _HEAD.unpack_from(data, pos)
            spans.append((pos, pos + _HEADER_BYTES + length))
            pos = spans[-1][1]
        return spans
    pos = 0
    for line in io.BytesIO(data).readlines():
        spans.append((pos, pos + len(line)))
        pos += len(line)
    return spans


def flip(path: os.PathLike[str], offset: int) -> None:
    """Invert every bit of the byte at ``offset``."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0xFF]))


def damage_record(path: os.PathLike[str], index: int) -> None:
    """Flip the middle byte of record ``index`` (0 is the genesis); a
    flipped byte is never a newline, so a version-1 file keeps its lines."""
    with open(path, "rb") as fh:
        start, end = record_spans(fh.read())[index]
    flip(path, (start + end) // 2)
