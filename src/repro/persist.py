"""Durability: checkpoints and the write-ahead batch journal.

Long-running monitoring deployments (the paper's motivating social-network
workloads) need restartability; this module provides the two halves of the
service layer's durability story:

* **Checkpoints** (:func:`save_cplds` / :func:`load_cplds`) serialise a
  *quiescent* CPLDS — graph edges, live levels, parameters, batch counter —
  to a compressed numpy archive guarded by a format version and a CRC-32
  checksum, and rebuild an equivalent structure, recomputing the degree
  counters from the restored levels (they are a pure function of graph +
  levels, see the stores' ``load_levels``).  Format 4 stores the edges as
  sorted per-vertex rows of gaps (a forward-degree count per vertex, then
  each row's gaps) and the levels in the narrowest unsigned word that
  holds ``num_levels - 1``; the checksum covers the decoded ``int64``
  edges and levels plus the scalars, so it does not depend on the stored
  widths.  Formats 2 and 3 (``int64`` edge pairs) still load.  Corrupted,
  truncated or malformed archives raise a typed
  :class:`~repro.errors.CheckpointCorruptError` instead of raw numpy/zip
  errors, so recovery code can fall back to an older checkpoint.

* **The batch journal** (:class:`BatchJournal`) is an append-only,
  checksummed record of every batch the service layer applies, written
  *before* the batch touches the structure (write-ahead) and committed with
  a marker afterwards.  Version 2 writes one length-prefixed binary frame
  per record, with a CRC-32 over its header and one over its payload; a
  batch stores its endpoints in the narrowest unsigned word that holds
  them (:func:`_narrow`), and a compaction snapshot reuses the version-4
  checkpoint's edge layout.  Version-1 JSON-line journals still scan and
  recover, and recovery rewrites them as version 2.  Recovery is therefore *restore the newest valid
  checkpoint, then replay the committed journal suffix* — batch by batch,
  which reproduces the exact level history (the PLDS is deterministic under
  the sequential executor).  A torn final record — the signature of a crash
  mid-append — is tolerated and dropped; corruption anywhere earlier raises
  :class:`~repro.errors.JournalCorruptError`.

Only *quiescent* state is checkpointed: descriptors live strictly within a
batch, so a structure with no batch in flight has nothing transient to save.
"""

from __future__ import annotations

import io
import json
import operator
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from repro.core.cplds import CPLDS
from repro.errors import (
    BatchInProgressError,
    CheckpointCorruptError,
    JournalCorruptError,
    JournalEncodeError,
    PersistError,
    ReproError,
)
from repro.lds.params import LDSParams
from repro.lds.store import BACKENDS
from repro.types import Edge

#: Format version embedded in every checkpoint.  Version 2 added the CRC-32
#: ``checksum`` field (version-1 archives are no longer loadable); version 3
#: added the level-store ``backend`` field; version 4 stores the edges as
#: sorted per-row gaps and both large arrays in narrow unsigned words (see
#: :func:`_encode_edges`).  Version-2 and version-3 archives still load
#: (version 2 predates the backend seam and restores onto the object
#: backend).
FORMAT_VERSION = 4

#: Oldest checkpoint format :func:`load_cplds` still understands.
MIN_FORMAT_VERSION = 2

#: Format version embedded in every journal's genesis record.  Version 1
#: wrote one ``<crc32-hex> <compact-json>\n`` line per record; version 2
#: writes binary frames (see :class:`BatchJournal`).  Version-1 files still
#: scan and recover.
JOURNAL_VERSION = 2

#: Backend names that stored records may carry but the registry no longer
#: has, mapped to the backend their state restores onto.  The plain
#: ``columnar`` store was folded into ``columnar-frontier``; both keep the
#: same level semantics, and stored state is graph + levels only.
_RETIRED_BACKENDS = {"columnar": "columnar-frontier"}


def restore_backend(
    stored: str | None, error: type[PersistError], source: str
) -> str:
    """The level-store backend a stored ``backend`` name restores onto.

    The one decoder for checkpoints and journal genesis records alike: an
    absent name (records written before the backend seam) restores onto
    ``object``, a retired name onto its successor, and any other name
    outside :data:`~repro.lds.store.BACKENDS` raises ``error`` naming it.
    """
    if stored is None:
        return "object"
    name = _RETIRED_BACKENDS.get(stored, stored)
    if name not in BACKENDS:
        raise error(
            f"{source} names unknown level-store backend {stored!r} "
            f"(available: {', '.join(BACKENDS)})"
        )
    return name


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
def _checkpoint_checksum(
    num_vertices: int,
    edges: np.ndarray,
    levels: np.ndarray,
    batch_number: int,
    delta: float,
    lam: float,
    group_height: int,
    backend: str | None = None,
) -> int:
    """CRC-32 over every field that determines the restored structure.

    ``edges`` and ``levels`` are the decoded ``int64`` arrays (version 4:
    edges in their stored, sorted order), so the checksum does not depend
    on the narrow words an archive stores them in.  ``backend=None``
    reproduces the version-2 checksum (no backend field); later versions
    fold the backend name into the scalar tuple.
    """
    crc = zlib.crc32(edges.tobytes())
    crc = zlib.crc32(levels.tobytes(), crc)
    if backend is None:
        scalars = repr((num_vertices, batch_number, delta, lam, group_height))
    else:
        scalars = repr(
            (num_vertices, batch_number, delta, lam, group_height, backend)
        )
    return zlib.crc32(scalars.encode("utf-8"), crc)


def _narrow(values: np.ndarray) -> np.ndarray:
    """Non-negative ``values`` in the narrowest unsigned dtype holding them."""
    top = int(values.max()) if values.size else 0
    return values.astype(np.min_scalar_type(top))


def _encode_edges(
    edges: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The version-4 edge layout of ``u < v`` rows ``edges``.

    Returns the rows sorted by ``(u, v)`` as ``int64`` (what the checksum
    covers), each vertex's forward degree (its count of rows), and each
    row's gap: ``v - u`` for the first row of a vertex, else ``v`` minus
    the previous row's ``v``.  Both stored arrays come back in the
    narrowest unsigned dtype that holds their largest value.
    """
    u, v = np.divmod(np.sort(edges[:, 0] * n + edges[:, 1]), n)
    degrees = np.bincount(u, minlength=n)
    gaps = np.diff(v, prepend=0)
    first = np.ones(v.size, dtype=bool)
    first[1:] = u[1:] != u[:-1]
    gaps[first] = v[first] - u[first]
    return np.stack([u, v], axis=1), _narrow(degrees), _narrow(gaps)


def _decode_edges(
    degrees: np.ndarray,
    gaps: np.ndarray,
    n: int,
    source: str,
    error: type[PersistError] = CheckpointCorruptError,
) -> np.ndarray:
    """Invert :func:`_encode_edges`: the sorted ``int64`` ``(m, 2)`` rows.

    One ``repeat`` gives each row its ``u``; one cumulative sum over all
    gaps, less its running total at each vertex's first row, gives ``v``.
    A layout no encoder writes raises ``error`` (checkpoints and journal
    snapshots pass their own corruption type).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    gaps = np.asarray(gaps, dtype=np.int64)
    if degrees.shape != (n,) or gaps.ndim != 1:
        raise error(
            f"{source} stores {degrees.shape} forward degrees and "
            f"{gaps.shape} gaps for {n} vertices"
        )
    if (degrees < 0).any() or int(degrees.sum()) != gaps.size:
        raise error(
            f"{source} has forward degrees that do not sum to its "
            f"{gaps.size} gaps"
        )
    if gaps.size and gaps.min() < 1:
        raise error(f"{source} stores a zero gap")
    # A gap of n or more already puts its endpoint out of range, and
    # rejecting it first keeps the cumulative sum clear of overflow.
    if gaps.size and gaps.max() >= n:
        raise error(f"{source} has an endpoint >= {n}")
    u = np.repeat(np.arange(n, dtype=np.int64), degrees)
    total = np.cumsum(gaps)
    row_base = np.concatenate(([0], total))[np.cumsum(degrees) - degrees]
    v = u + total - row_base[u]
    if v.size and v.max() >= n:
        raise error(f"{source} has an endpoint >= {n}")
    return np.stack([u, v], axis=1)


def save_cplds(
    cplds: CPLDS, path: str | os.PathLike[str], *, verify: bool = True
) -> None:
    """Serialise a quiescent CPLDS to ``path`` (.npz archive).

    Raises :class:`~repro.errors.BatchInProgressError` if any descriptor is
    still marked (a batch is executing).  With ``verify`` (the default) the
    LDS invariants are checked first, so a structure that a batch left
    inconsistent by dying mid-flight (see :meth:`CPLDS.rebuild`) cannot be
    checkpointed silently.  Writes format :data:`FORMAT_VERSION`: edges as
    ``forward_degrees`` + ``gaps`` (:func:`_encode_edges`), levels in the
    narrowest unsigned word holding ``params.num_levels - 1``.
    """
    if cplds.descriptors.marked_vertices or any(
        s is not None for s in cplds.descriptors.slots
    ):
        raise BatchInProgressError(
            "cannot checkpoint: descriptors are marked (batch in flight)"
        )
    if verify:
        cplds.check_invariants()
    graph = cplds.graph
    n = graph.num_vertices
    edges, degrees, gaps = _encode_edges(graph.edge_array(), n)
    levels = np.asarray(cplds.plds.state.levels_snapshot(), dtype=np.int64)
    params = cplds.params
    backend = cplds.backend
    checksum = _checkpoint_checksum(
        n,
        edges,
        levels,
        cplds.batch_number,
        params.delta,
        params.lam,
        params.group_height,
        backend,
    )
    np.savez_compressed(
        path,
        format_version=np.int64(FORMAT_VERSION),
        num_vertices=np.int64(n),
        forward_degrees=degrees,
        gaps=gaps,
        levels=levels.astype(np.min_scalar_type(params.num_levels - 1)),
        batch_number=np.int64(cplds.batch_number),
        delta=np.float64(params.delta),
        lam=np.float64(params.lam),
        group_height=np.int64(params.group_height),
        backend=np.str_(backend),
        checksum=np.uint32(checksum),
    )


def load_cplds(path: str | os.PathLike[str]) -> CPLDS:
    """Rebuild a CPLDS from a checkpoint written by :func:`save_cplds`.

    The restored structure answers reads identically to the saved one and
    accepts new batches immediately.  An unreadable, truncated, or
    checksum-mismatched archive raises
    :class:`~repro.errors.CheckpointCorruptError`; an archive written by an
    incompatible library version raises the same (the version field is
    validated before anything else is trusted).  Versions
    :data:`MIN_FORMAT_VERSION` to :data:`FORMAT_VERSION` load.
    """
    source = f"checkpoint {os.fspath(path)!r}"
    try:
        # Own the handle: np.load's error paths (e.g. a truncated archive
        # that fails zip parsing) would otherwise leave it to the GC.
        with open(path, "rb") as fh, np.load(fh) as data:
            version = int(data["format_version"])
            if not MIN_FORMAT_VERSION <= version <= FORMAT_VERSION:
                raise CheckpointCorruptError(
                    f"unsupported checkpoint format {version} "
                    f"(supported: {MIN_FORMAT_VERSION}..{FORMAT_VERSION})"
                )
            n = int(data["num_vertices"])
            if version >= 4:
                edges_arr = _decode_edges(
                    data["forward_degrees"], data["gaps"], n, source
                )
            else:
                edges_arr = np.asarray(data["edges"], dtype=np.int64).reshape(-1, 2)
            levels_arr = np.asarray(data["levels"], dtype=np.int64)
            batch_number = int(data["batch_number"])
            delta = float(data["delta"])
            lam = float(data["lam"])
            group_height = int(data["group_height"])
            # Version 2 predates the backend seam: checksum with no backend
            # component, restore onto the object backend.
            backend = str(data["backend"]) if version >= 3 else None
            stored = int(data["checksum"])
    except ReproError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, KeyError, ...
        raise CheckpointCorruptError(f"{source} is unreadable: {exc}") from exc
    expected = _checkpoint_checksum(
        n, edges_arr, levels_arr, batch_number, delta, lam, group_height, backend
    )
    if stored != expected:
        raise CheckpointCorruptError(
            f"{source} failed its checksum "
            f"(stored {stored:#010x}, computed {expected:#010x})"
        )
    if len(levels_arr) != n:
        raise CheckpointCorruptError(
            f"{source} has {len(levels_arr)} levels for {n} vertices"
        )
    backend = restore_backend(backend, CheckpointCorruptError, source)
    edges = edges_arr.tolist()
    levels = levels_arr.astype(int).tolist()
    params = LDSParams(n, delta=delta, lam=lam, levels_per_group=group_height)

    # The restored levels must be a valid LDS state; fail fast otherwise.
    # A v4 archive decodes to sorted, distinct, in-range ``u < v`` rows
    # (``_decode_edges`` rejects anything else): no second canonical pass.
    try:
        return _restore_state(
            n, params, edges, levels, batch_number, backend, version >= 4
        )
    except Exception as exc:
        raise CheckpointCorruptError(
            f"{source} decodes to an inconsistent structure: {exc}"
        ) from exc


def _restore_state(
    n: int,
    params: LDSParams,
    edges: list[Edge] | list[list[int]],
    levels: list[int],
    batch_number: int,
    backend: str,
    canonical: bool = False,
) -> CPLDS:
    """Materialise a CPLDS from raw saved state (shared by checkpoint and
    journal-snapshot restore); raises on an inconsistent level assignment.
    ``canonical`` edges (``u < v``, distinct, in range) skip the graph's
    validating canonicalisation."""
    from repro import engines

    cplds = engines.create("cplds", n, params=params, backend=backend)
    if canonical:
        cplds.graph._apply_canonical(edges, True)
    else:
        cplds.graph.insert_batch(edges)
    cplds.plds.state.load_levels(levels)
    cplds.batch_number = batch_number
    cplds.check_invariants()
    return cplds


def cplds_from_snapshot(genesis: dict, snapshot: dict) -> CPLDS:
    """Materialise the CPLDS embedded in a journal ``snapshot`` record.

    ``genesis`` supplies the dimensions and parameters; the snapshot record
    carries levels, edges, and the batch counter.  A version-2 snapshot
    holds the version-4 checkpoint's edge layout (``forward_degrees`` and
    ``gaps``, restored through :func:`_decode_edges` with no canonical
    pass); a version-1 snapshot holds JSON ``edges`` pairs.  An
    inconsistent snapshot raises :class:`~repro.errors.JournalCorruptError`
    (the record's CRC already passed, so inconsistency means a logic bug or
    hand-edited file).
    """
    n, params, backend = _genesis_config(genesis)
    source = f"journal snapshot at seq {snapshot.get('seq')}"
    try:
        if "gaps" in snapshot:
            edges = _decode_edges(
                snapshot["forward_degrees"], snapshot["gaps"], n, source,
                JournalCorruptError,
            ).tolist()
        else:
            edges = [(int(u), int(v)) for u, v in snapshot["edges"]]
        return _restore_state(
            n,
            params,
            edges,
            np.asarray(snapshot["levels"], dtype=np.int64).tolist(),
            int(snapshot["batch_number"]),
            backend,
            "gaps" in snapshot,
        )
    except ReproError:
        raise
    except Exception as exc:
        raise JournalCorruptError(
            f"{source} decodes to an inconsistent structure: {exc}"
        ) from exc


def cplds_from_genesis(genesis: dict) -> CPLDS:
    """A fresh, empty CPLDS matching a journal's genesis record."""
    from repro import engines

    n, params, backend = _genesis_config(genesis)
    return engines.create("cplds", n, params=params, backend=backend)


def _genesis_config(genesis: dict) -> tuple[int, LDSParams, str]:
    """Vertex count, LDS parameters and restore backend of a genesis record
    (its ``backend`` field decoded by :func:`restore_backend`)."""
    n = int(genesis["num_vertices"])
    params = LDSParams(
        n,
        delta=float(genesis["delta"]),
        lam=float(genesis["lam"]),
        levels_per_group=int(genesis["group_height"]),
    )
    backend = restore_backend(
        genesis.get("backend"), JournalCorruptError, "journal genesis record"
    )
    return n, params, backend


def seed_epoch_store(cplds: CPLDS, store) -> None:
    """Re-seed an epoch-snapshot store from a (recovered) structure.

    Recovery restores levels by checkpoint + replay, so the read tier's
    history must be re-anchored: epochs the crash rolled back are dropped
    and the recovered state becomes the newest retained epoch (see
    :meth:`repro.reads.EpochSnapshotStore.reseed`), keeping pinned-epoch
    semantics — pre-crash pins at or below the recovery point stay
    bit-identical, rolled-back pins force-advance — across the crash.
    The store is (re-)attached so subsequent batches publish again.
    """
    from repro.reads import attach_epoch_store

    attach_epoch_store(cplds, store)


# ----------------------------------------------------------------------
# The write-ahead batch journal
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchRecord:
    """One journaled batch: its sequence number and its two sub-batches."""

    seq: int
    insertions: tuple[Edge, ...]
    deletions: tuple[Edge, ...]


@dataclass
class JournalContents:
    """Everything a scan of a journal file recovered.

    ``records`` preserves file order; ``torn_tail`` reports whether the scan
    dropped an incomplete final record (the normal signature of a crash
    mid-append — not an error).  Both journal versions scan to the same
    record dicts.  For a version-2 file, ``genesis_bytes`` is the length of
    the file's prefix through the genesis record (the magic included) and
    ``intact_bytes`` the length of its prefix through the last intact
    record; a version-1 scan leaves both 0, since no writer appends to it.
    """

    genesis: dict
    records: list[dict] = field(default_factory=list)
    torn_tail: bool = False
    genesis_bytes: int = 0
    intact_bytes: int = 0

    def committed_batches(self) -> list[BatchRecord]:
        """The replayable history: batch records with a commit marker, in
        sequence order."""
        committed = {
            r["seq"] for r in self.records if r.get("type") == "commit"
        }
        out = []
        for r in self.records:
            if r.get("type") == "batch" and r["seq"] in committed:
                out.append(
                    BatchRecord(
                        seq=r["seq"],
                        insertions=tuple((u, v) for u, v in r["ins"]),
                        deletions=tuple((u, v) for u, v in r["del"]),
                    )
                )
        out.sort(key=lambda r: r.seq)
        return out

    def checkpoint_notes(self) -> list[tuple[int, str]]:
        """(seq, filename) of every checkpoint note, in file order."""
        return [
            (r["seq"], r["file"])
            for r in self.records
            if r.get("type") == "checkpoint"
        ]

    def last_seq(self) -> int:
        """Highest sequence number mentioned by any surviving record."""
        seqs = [r["seq"] for r in self.records if "seq" in r]
        return max(seqs, default=0)

    def latest_snapshot(self) -> dict | None:
        """The newest embedded state snapshot record, if any.

        Snapshots are written by :meth:`BatchJournal.compact` when a
        recovered service re-bases its journal; they make the journal
        self-sufficient again after records below a checkpoint were lost.
        """
        snap = None
        for r in self.records:
            if r.get("type") == "snapshot":
                snap = r
        return snap

    def floor(self) -> int:
        """Lowest sequence number this journal can still restore to.

        History at or below the newest snapshot's sequence number was
        compacted away: recovery must start from a base (checkpoint or the
        snapshot itself) at least this new, never from genesis replay.
        """
        snap = self.latest_snapshot()
        return int(snap["seq"]) if snap is not None else 0


def _genesis_payload(
    num_vertices: int, params: LDSParams, backend: str = "object"
) -> dict:
    """The journal's first record: dimensions, LDS parameters, backend.

    ``backend`` is an additive field (journals written before the
    level-store seam simply lack it and restore onto the object backend),
    so the journal version is unchanged.
    """
    return {
        "type": "genesis",
        "journal_version": JOURNAL_VERSION,
        "num_vertices": num_vertices,
        "delta": params.delta,
        "lam": params.lam,
        "group_height": params.group_height,
        "backend": backend,
    }


# -- version 1: one ``<crc32-hex> <compact-json>\n`` line per record -------
def _decode_line(line: bytes) -> dict | None:
    """Parse one journal line; None means invalid (torn or corrupt)."""
    if not line.endswith(b"\n"):
        return None
    try:
        text = line.decode("utf-8")
        crc_hex, body = text[:-1].split(" ", 1)
        if zlib.crc32(body.encode("utf-8")) != int(crc_hex, 16):
            return None
        payload = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _scan_lines(data: bytes, name: str) -> JournalContents:
    """Scan a version-1 journal: a bad final line is a torn tail, a bad
    line anywhere before it raises."""
    lines = io.BytesIO(data).readlines()
    genesis = _decode_line(lines[0])
    if (
        genesis is None
        or genesis.get("type") != "genesis"
        or genesis.get("journal_version") != 1
    ):
        raise JournalCorruptError(
            f"journal {name!r} has an invalid genesis record"
        )
    contents = JournalContents(genesis=genesis)
    for i, line in enumerate(lines[1:], start=1):
        payload = _decode_line(line)
        if payload is None:
            if i == len(lines) - 1:
                contents.torn_tail = True
                break
            raise JournalCorruptError(
                f"journal {name!r} record {i} is corrupt (not at the tail)"
            )
        contents.records.append(payload)
    return contents


# -- version 2: length-prefixed, CRC-checked binary frames -----------------
#: The bytes that open a version-2 journal.  A version-1 journal opens with
#: eight hex digits and a space, so the first byte tells the two apart.
JOURNAL_MAGIC = b"\x89KCJ2\n"

_GENESIS, _BATCH, _COMMIT, _CHECKPOINT, _SNAPSHOT = range(1, 6)

#: Frame header: type and payload length, then a CRC-32 of those 5 bytes
#: and a CRC-32 of the payload (13 bytes, little-endian).
_HEAD = struct.Struct("<BI")
_CRCS = struct.Struct("<II")
_HEADER_BYTES = _HEAD.size + _CRCS.size

#: Batch payload: seq, insert count, delete count, endpoint word code; then
#: the flattened ``(u, v)`` endpoints, inserts first, in submitted order.
_BATCH_HEAD = struct.Struct("<QIIB")
#: Commit payload; a checkpoint note appends the UTF-8 file name.
_SEQ = struct.Struct("<Q")
#: Snapshot payload: seq, batch number, n, m, and the word codes of the
#: ``forward_degrees[n]``, ``gaps[m]`` and ``levels[n]`` columns after it.
_SNAPSHOT_HEAD = struct.Struct("<QQQQBBB")

#: Column word codes: a code indexes this tuple.  Columns are stored in the
#: narrowest unsigned word holding their largest value; ``<i8`` keeps a
#: batch that names a negative id (which the engine then rejects).
_WORDS = tuple(np.dtype(w) for w in ("<u1", "<u2", "<u4", "<u8", "<i8"))


def _frame(kind: int, payload: bytes) -> bytes:
    head = _HEAD.pack(kind, len(payload))
    return head + _CRCS.pack(zlib.crc32(head), zlib.crc32(payload)) + payload


def _genesis_frame(payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return _frame(_GENESIS, body.encode("utf-8"))


def _endpoints(insertions: Sequence[Edge], deletions: Sequence[Edge]) -> np.ndarray:
    """A batch's flattened endpoints as ``int64``, inserts first.

    Raises :class:`~repro.errors.JournalEncodeError` when an endpoint is
    not an integer in the ``int64`` range, before anything is written.
    """
    pairs = [*insertions, *deletions]
    ends = np.array(pairs).reshape(-1)
    if ends.dtype.kind in "bi" or not ends.size:
        return ends.astype(np.int64, copy=False)
    # numpy inferred a float, unsigned or object word: check every endpoint.
    try:
        return np.array(
            [operator.index(x) for edge in pairs for x in edge], dtype=np.int64
        )
    except (TypeError, OverflowError) as exc:
        raise JournalEncodeError(
            f"batch names an endpoint that is not an int64 vertex id: {exc}"
        ) from exc


def _words(values: np.ndarray) -> tuple[int, bytes]:
    """A column as its word code and little-endian bytes."""
    dtype = values.dtype.newbyteorder("<")
    return _WORDS.index(dtype), values.astype(dtype, copy=False).tobytes()


def _genesis_record(payload: bytes) -> dict:
    record = json.loads(payload)
    if not isinstance(record, dict):
        raise ValueError("genesis payload is not an object")
    return record


def _batch_record(payload: bytes) -> dict:
    seq, n_ins, n_del, code = _BATCH_HEAD.unpack_from(payload)
    flat = np.frombuffer(payload, _WORDS[code], offset=_BATCH_HEAD.size)
    if flat.size != 2 * (n_ins + n_del):
        raise ValueError(f"{flat.size} endpoints for {n_ins} + {n_del} edges")
    ends = flat.tolist()
    pairs = list(zip(ends[0::2], ends[1::2]))
    return {"type": "batch", "seq": seq, "ins": pairs[:n_ins], "del": pairs[n_ins:]}


def _commit_record(payload: bytes) -> dict:
    (seq,) = _SEQ.unpack(payload)
    return {"type": "commit", "seq": seq}


def _checkpoint_record(payload: bytes) -> dict:
    (seq,) = _SEQ.unpack_from(payload)
    return {
        "type": "checkpoint",
        "seq": seq,
        "file": payload[_SEQ.size:].decode("utf-8"),
    }


def _snapshot_record(payload: bytes) -> dict:
    seq, batch_number, n, m, *codes = _SNAPSHOT_HEAD.unpack_from(payload)
    columns, offset = [], _SNAPSHOT_HEAD.size
    for code, count in zip(codes, (n, m, n)):
        column = np.frombuffer(payload, _WORDS[code], count, offset)
        offset += column.nbytes
        columns.append(column)
    if offset != len(payload):
        raise ValueError(f"{len(payload) - offset} bytes after the levels")
    degrees, gaps, levels = columns
    return {
        "type": "snapshot",
        "seq": seq,
        "batch_number": batch_number,
        "forward_degrees": degrees,
        "gaps": gaps,
        "levels": levels,
    }


_DECODERS = {
    _GENESIS: _genesis_record,
    _BATCH: _batch_record,
    _COMMIT: _commit_record,
    _CHECKPOINT: _checkpoint_record,
    _SNAPSHOT: _snapshot_record,
}


def _scan_frames(data: bytes, name: str) -> JournalContents:
    """Scan a version-2 journal by the frame rules of :class:`BatchJournal`."""
    records: list[dict] = []
    genesis_bytes = 0
    pos, torn = len(JOURNAL_MAGIC), False
    while pos < len(data):
        body = pos + _HEADER_BYTES
        if body > len(data):
            torn = True  # a header cut short
            break
        kind, length = _HEAD.unpack_from(data, pos)
        head_crc, body_crc = _CRCS.unpack_from(data, pos + _HEAD.size)
        # A torn write shortens the file but never rewrites a length, so a
        # damaged header is corruption wherever it sits.
        if zlib.crc32(data[pos:pos + _HEAD.size]) != head_crc:
            raise JournalCorruptError(
                f"journal {name!r} record {len(records)} has a damaged "
                "frame header"
            )
        stop = body + length
        if stop > len(data):
            torn = True  # a payload cut short
            break
        payload = data[body:stop]
        if zlib.crc32(payload) != body_crc:
            if stop == len(data):
                torn = True
                break
            raise JournalCorruptError(
                f"journal {name!r} record {len(records)} is corrupt "
                "(not at the tail)"
            )
        try:
            records.append(_DECODERS[kind](payload))
        except (KeyError, IndexError, ValueError, struct.error) as exc:
            raise JournalCorruptError(
                f"journal {name!r} record {len(records)} is malformed: {exc}"
            ) from exc
        pos = stop
        genesis_bytes = genesis_bytes or pos
    if (
        not records
        or records[0].get("type") != "genesis"
        or records[0].get("journal_version") != JOURNAL_VERSION
    ):
        raise JournalCorruptError(
            f"journal {name!r} has an invalid genesis record"
        )
    return JournalContents(
        genesis=records[0],
        records=records[1:],
        torn_tail=torn,
        genesis_bytes=genesis_bytes,
        intact_bytes=pos,
    )


class BatchJournal:
    """Append-only, checksummed write-ahead log of applied batches.

    The first record is a *genesis* record fixing the vertex universe and
    LDS parameters, so a journal alone suffices to rebuild the structure
    from scratch.  Batches are appended **before** they are applied and
    followed by a tiny commit marker on success; only committed records
    are replayed, so a batch that died mid-apply (and was re-tried or
    bisected under new sequence numbers) never reaches a recovered
    structure twice.

    File format (version :data:`JOURNAL_VERSION`): :data:`JOURNAL_MAGIC`,
    then one frame per record.  A frame is a 13-byte header (type ``u8``,
    payload length ``u32``, a CRC-32 of those 5 bytes, a CRC-32 of the
    payload) and the payload:

    * genesis — :func:`_genesis_payload` as compact JSON;
    * batch — ``seq u64``, insert and delete counts ``u32``, one word code,
      then the insert and delete endpoints as flattened ``(u, v)`` in the
      order :meth:`append_batch` received them, in the narrowest unsigned
      word holding the batch's largest id: O(b), nothing O(n);
    * commit — ``seq u64``; checkpoint note — ``seq u64`` + UTF-8 name;
    * snapshot (written by :meth:`compact`) — the version-4 checkpoint's
      ``forward_degrees``, ``gaps`` and narrow ``levels`` columns.

    A scan treats a header or payload cut short by EOF, and a payload
    whose CRC fails in the last frame, as a torn tail; a header whose CRC
    fails anywhere, and a failed payload CRC before the last frame, raise
    :class:`~repro.errors.JournalCorruptError`.  Version-1 files (one
    ``<crc32-hex> <compact-json>\\n`` line per record) still scan and
    recover; :meth:`open` refuses to append to one.

    ``sync=True`` fsyncs after every append (true crash durability at a
    throughput cost); the default flushes to the OS, which survives process
    death — the failure mode the supervisor handles in-process.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        _file: IO[bytes],
        _genesis: dict,
        _next_seq: int,
        _size: int,
        sync: bool = False,
    ) -> None:
        self.path = os.fspath(path)
        self._file = _file
        self.genesis = _genesis
        self._next_seq = _next_seq
        #: Bytes in the file: those present when this handle opened plus
        #: every frame written through it.
        self.size = _size
        self.sync = sync

    # -- constructors ----------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | os.PathLike[str],
        *,
        num_vertices: int,
        params: LDSParams,
        backend: str = "object",
        sync: bool = False,
    ) -> "BatchJournal":
        """Start a fresh journal at ``path`` (which must not exist)."""
        if os.path.exists(path):
            raise PersistError(f"journal {os.fspath(path)!r} already exists")
        genesis = _genesis_payload(num_vertices, params, backend)
        fh = open(path, "ab")
        journal = cls(
            path, _file=fh, _genesis=genesis, _next_seq=1, _size=0, sync=sync
        )
        journal._write(JOURNAL_MAGIC + _genesis_frame(genesis))
        return journal

    @classmethod
    def compact(
        cls,
        path: str | os.PathLike[str],
        *,
        cplds: CPLDS,
        seq: int,
        sync: bool = False,
    ) -> "BatchJournal":
        """Atomically rewrite the journal as genesis + one state snapshot.

        Used when a recovered service re-opens its journal: the old file
        may be missing batch records that the recovery checkpoint covered
        (tail truncation below a checkpoint), so appending to it would
        leave a journal that can never again reproduce the live state by
        replay.  Compaction re-bases the journal on the recovered state
        itself — an embedded, CRC-guarded snapshot at sequence ``seq`` —
        after which the journal alone restores to ``seq`` regardless of
        what happens to the checkpoint files.  The rewrite goes through a
        temporary file and ``os.replace``, so a crash mid-compaction
        leaves either the old journal or the new one, never a hybrid.
        It always writes version 2, whatever version the old file was.
        """
        path = os.fspath(path)
        n = cplds.graph.num_vertices
        genesis = _genesis_payload(n, cplds.params, cplds.backend)
        _, degrees, gaps = _encode_edges(cplds.graph.edge_array(), n)
        levels = np.asarray(cplds.plds.state.levels_snapshot(), dtype=np.int64)
        levels = levels.astype(np.min_scalar_type(cplds.params.num_levels - 1))
        codes, columns = zip(*(_words(c) for c in (degrees, gaps, levels)))
        head = _SNAPSHOT_HEAD.pack(
            int(seq), int(cplds.batch_number), n, gaps.size, *codes
        )
        data = (
            JOURNAL_MAGIC
            + _genesis_frame(genesis)
            + _frame(_SNAPSHOT, head + b"".join(columns))
        )
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if sync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        return cls(
            path,
            _file=open(path, "ab"),
            _genesis=genesis,
            _next_seq=int(seq) + 1,
            _size=len(data),
            sync=sync,
        )

    @classmethod
    def open(
        cls, path: str | os.PathLike[str], *, sync: bool = False
    ) -> "BatchJournal":
        """Re-open an existing version-2 journal for appending.

        A torn final record (partial write from a crash) is truncated away
        before the append handle is opened — otherwise new records would
        land *after* the damage, turning tolerated tail damage into
        mid-stream corruption on the next scan.  A version-1 journal
        raises :class:`~repro.errors.PersistError`:
        :meth:`SupervisedCPLDS.open <repro.runtime.supervisor.SupervisedCPLDS.open>`
        recovers it and rewrites it as version 2.
        """
        contents = cls.scan(path)
        if contents.genesis["journal_version"] != JOURNAL_VERSION:
            raise PersistError(
                f"journal {os.fspath(path)!r} is version "
                f"{contents.genesis['journal_version']}; recover it with "
                f"SupervisedCPLDS.open, which rewrites it as version "
                f"{JOURNAL_VERSION}"
            )
        if contents.torn_tail:
            with open(path, "r+b") as writer:
                writer.truncate(contents.intact_bytes)
        fh = open(path, "ab")
        return cls(
            path,
            _file=fh,
            _genesis=contents.genesis,
            _next_seq=contents.last_seq() + 1,
            _size=contents.intact_bytes,
            sync=sync,
        )

    # -- reading ---------------------------------------------------------
    @staticmethod
    def scan(path: str | os.PathLike[str]) -> JournalContents:
        """Read and validate a journal file of either version.

        Tolerates (and reports) a torn final record; raises
        :class:`~repro.errors.JournalCorruptError` for an invalid genesis or
        for corruption before the tail.
        """
        name = os.fspath(path)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise JournalCorruptError(
                f"journal {name!r} is unreadable: {exc}"
            ) from exc
        if not data:
            raise JournalCorruptError(
                f"journal {name!r} is empty (no genesis record)"
            )
        if data.startswith(JOURNAL_MAGIC):
            return _scan_frames(data, name)
        return _scan_lines(data, name)

    # -- writing ---------------------------------------------------------
    def _write(self, data: bytes) -> None:
        self._file.write(data)
        self.size += len(data)
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())

    def append_batch(
        self, insertions: Sequence[Edge], deletions: Sequence[Edge]
    ) -> int:
        """Write-ahead record for one batch; returns its sequence number."""
        ends = _endpoints(insertions, deletions)
        code, words = _words(ends if ends.size and ends.min() < 0 else _narrow(ends))
        seq = self._next_seq
        self._next_seq += 1
        head = _BATCH_HEAD.pack(seq, len(insertions), len(deletions), code)
        self._write(_frame(_BATCH, head + words))
        return seq

    def commit(self, seq: int) -> None:
        """Mark batch ``seq`` as durably applied."""
        self._write(_frame(_COMMIT, _SEQ.pack(seq)))

    def note_checkpoint(self, seq: int, filename: str) -> None:
        """Record that a checkpoint covering batches ``<= seq`` was written."""
        self._write(_frame(_CHECKPOINT, _SEQ.pack(seq) + filename.encode("utf-8")))

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
