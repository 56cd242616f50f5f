"""Flight recorder: a bounded ring buffer of typed pipeline events.

Where the metrics registry (:mod:`repro.obs.registry`) answers *how much*
(counters, distributions), the flight recorder answers *what happened, in
what order*: it keeps the last N structured events of the batch/read
pipeline — batch begin/end, per-round frontier sizes, DAG merges, sandwich
read retries/successes with the batch numbers they observed, supervisor
health transitions, chaos fault injections — so a crash dump reconstructs
the seconds *before* a failure instead of an aggregate after it.

Design contracts (mirroring the registry's, tested in
``tests/test_flightrec.py``):

* **Disabled means one branch.**  Hot sites guard with
  ``if RECORDER.enabled:``; :meth:`FlightRecorder.record` additionally
  self-guards so an unguarded call on a disabled recorder stores nothing.
  ``benchmarks/bench_obs.py`` pins the guard cost at ≤2x the registry's.
* **Exact under concurrency.**  One lock serialises writes: sequence
  numbers are dense (0, 1, 2, ...), no event is ever lost before being
  overwritten, and the ring always holds exactly the ``capacity`` newest
  events in sequence order.
* **Deterministic dumps.**  The JSONL and binary formats serialise events
  byte-identically given the same event stream (sorted JSON keys, fixed
  struct layout).  Timestamps are wall-clock and therefore vary run to
  run; :func:`reconstruct_batches` and the chaos determinism tests compare
  on :meth:`Event.key`, which excludes them.
* **Zero dependencies, no cycles.**  Pure stdlib; importable from
  anywhere in the tree (this module imports nothing from ``repro``).

Event field semantics (the ``a``/``b``/``c``/``d`` integer payload) are
documented per type in :data:`EVENT_FIELDS` and rendered by
:func:`format_event`; ``python -m repro.obs dump <file>`` pretty-prints a
dump, ``python -m repro.obs summary <file>`` reconstructs the batch
timeline.
"""

from __future__ import annotations

import enum
import json
import os
import struct
import threading
import time
from typing import Iterable, List, NamedTuple, Optional, Tuple

__all__ = [
    "EVENT_FIELDS",
    "Event",
    "EventType",
    "FAULT_KINDS",
    "FlightRecorder",
    "RECORDER",
    "format_event",
    "load",
    "reconstruct_batches",
]


class EventType(enum.IntEnum):
    """Typed flight-recorder events (stable wire values)."""

    BATCH_BEGIN = 1
    BATCH_END = 2
    ROUND = 3
    DAG_MERGE = 4
    READ_RETRY = 5
    READ_OK = 6
    HEALTH = 7
    CHAOS_FAULT = 8
    RECOVERY = 9
    CHECKPOINT = 10
    STALE_READ = 11
    NOTE = 12


#: Meaning of the integer payload fields, per event type (for rendering).
EVENT_FIELDS: dict = {
    EventType.BATCH_BEGIN: ("batch", "kind", "edges"),  # kind: 0=insert 1=delete
    EventType.BATCH_END: ("batch", "marked", "dags", "moves"),
    EventType.ROUND: ("frontier", "batch_moves", "batch_rounds"),
    EventType.DAG_MERGE: ("root", "merged"),
    EventType.READ_RETRY: ("vertex", "b1", "b2", "retries"),
    EventType.READ_OK: ("vertex", "batch", "from_descriptor", "retries"),
    EventType.HEALTH: ("from_state", "to_state"),  # HealthState ordinals
    EventType.CHAOS_FAULT: ("fault", "arg1", "arg2"),  # fault: FAULT_KINDS
    EventType.RECOVERY: ("ok", "replayed", "checkpoint_seq"),
    EventType.CHECKPOINT: ("seq", "bytes"),
    EventType.STALE_READ: ("vertex", "age_epochs", "snapshot_batch"),
    EventType.NOTE: ("a", "b", "c", "d"),
}

#: CHAOS_FAULT ``fault`` payload values (see :mod:`repro.runtime.chaos`).
FAULT_KINDS = {
    1: "crash_armed",
    2: "poison",
    3: "restart",
    4: "truncate_tail",
    5: "corrupt_checkpoint",
}


class Event(NamedTuple):
    """One recorded event.  ``t`` is ``time.perf_counter()`` at record time
    (monotonic within a process; not comparable across processes)."""

    seq: int
    etype: int
    a: int
    b: int
    c: int
    d: int
    t: float

    def key(self) -> Tuple[int, int, int, int, int, int]:
        """The deterministic identity of the event (timestamp excluded)."""
        return (self.seq, self.etype, self.a, self.b, self.c, self.d)

    @property
    def type_name(self) -> str:
        try:
            return EventType(self.etype).name
        except ValueError:
            return f"UNKNOWN({self.etype})"


_MAGIC = b"FLTREC01"
_RECORD = struct.Struct("<QHqqqqd")
_JSONL_HEADER = {"format": "flightrec", "version": 1}


class FlightRecorder:
    """Bounded, thread-safe ring buffer of :class:`Event` records.

    A fixed-capacity preallocated ring; :meth:`record` is one lock
    acquisition plus a tuple store, so it is safe (and cheap) on the
    update thread's per-round path.  Per-read events are only emitted by
    the telemetry-rich read paths (``read_verbose`` / retry branches) —
    see ``docs/observability.md``.
    """

    __slots__ = ("enabled", "capacity", "_buf", "_idx", "_seq", "_lock")

    def __init__(self, capacity: int = 4096, enabled: bool = False) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self._buf: List[Optional[Event]] = [None] * capacity
        self._idx = 0
        self._seq = 0
        self._lock = threading.Lock()

    # -- switches --------------------------------------------------------
    def enable(self) -> None:
        """Turn event recording on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn event recording off (one-branch cost remains at call sites)."""
        self.enabled = False

    def clear(self) -> None:
        """Drop every event and reset sequence numbers to zero.

        Resetting ``seq`` keeps replays deterministic: two identical runs
        that each start from :meth:`clear` produce identical event keys.
        """
        with self._lock:
            for i in range(self.capacity):
                self._buf[i] = None
            self._idx = 0
            self._seq = 0

    # -- recording -------------------------------------------------------
    def record(self, etype: int, a: int = 0, b: int = 0, c: int = 0, d: int = 0) -> None:
        """Append one event (no-op while disabled)."""
        if not self.enabled:
            return
        t = time.perf_counter()
        with self._lock:
            seq = self._seq
            self._seq = seq + 1
            self._buf[self._idx] = Event(seq, int(etype), a, b, c, d, t)
            self._idx = (self._idx + 1) % self.capacity

    # -- introspection ---------------------------------------------------
    @property
    def total(self) -> int:
        """Events recorded over the recorder's lifetime (cleared by
        :meth:`clear`), including those already overwritten."""
        return self._seq

    def __len__(self) -> int:
        return min(self._seq, self.capacity)

    def events(self) -> List[Event]:
        """Snapshot of the retained events, oldest first."""
        with self._lock:
            if self._seq >= self.capacity:
                ring = self._buf[self._idx:] + self._buf[: self._idx]
            else:
                ring = self._buf[: self._idx]
        return [e for e in ring if e is not None]

    # -- dumps -----------------------------------------------------------
    def dumps_jsonl(self) -> str:
        """Serialise the retained events as JSON lines (header line first)."""
        events = self.events()
        header = dict(_JSONL_HEADER)
        header["count"] = len(events)
        lines = [json.dumps(header, sort_keys=True)]
        for e in events:
            lines.append(
                json.dumps(
                    {
                        "seq": e.seq,
                        "type": e.type_name,
                        "a": e.a,
                        "b": e.b,
                        "c": e.c,
                        "d": e.d,
                        "t": e.t,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    def dumps_binary(self) -> bytes:
        """Serialise the retained events in the fixed binary layout
        (magic, ``<Q`` count, then ``<QHqqqqd`` records)."""
        events = self.events()
        parts = [_MAGIC, struct.pack("<Q", len(events))]
        for e in events:
            parts.append(_RECORD.pack(e.seq, e.etype, e.a, e.b, e.c, e.d, e.t))
        return b"".join(parts)

    def dump(self, path: str, fmt: Optional[str] = None) -> str:
        """Write the retained events to ``path``; returns ``path``.

        ``fmt`` is ``"jsonl"`` or ``"binary"``; by default it is inferred
        from the extension (``.bin`` → binary, anything else → JSONL).
        The write is atomic-ish (temp file + rename) so a crash dump never
        leaves a half-written file behind.
        """
        if fmt is None:
            fmt = "binary" if path.endswith(".bin") else "jsonl"
        if fmt not in ("jsonl", "binary"):
            raise ValueError(f"unknown dump format {fmt!r}")
        tmp = f"{path}.tmp{os.getpid()}"
        if fmt == "binary":
            with open(tmp, "wb") as fh:
                fh.write(self.dumps_binary())
        else:
            with open(tmp, "w") as fh:
                fh.write(self.dumps_jsonl())
        os.replace(tmp, path)
        return path


def _load_jsonl(text: str) -> List[Event]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty flight-recorder dump")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") != "flightrec":
        raise ValueError("not a flight-recorder JSONL dump (bad header)")
    names = {e.name: int(e) for e in EventType}
    out: List[Event] = []
    for ln in lines[1:]:
        rec = json.loads(ln)
        etype = rec["type"]
        out.append(
            Event(
                int(rec["seq"]),
                names.get(etype, int(etype) if str(etype).isdigit() else 0),
                int(rec["a"]),
                int(rec["b"]),
                int(rec["c"]),
                int(rec["d"]),
                float(rec["t"]),
            )
        )
    declared = header.get("count")
    if declared is not None and int(declared) != len(out):
        raise ValueError(
            f"truncated dump: header declares {declared} events, found {len(out)}"
        )
    return out


def _load_binary(blob: bytes) -> List[Event]:
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a flight-recorder binary dump (bad magic)")
    (count,) = struct.unpack_from("<Q", blob, len(_MAGIC))
    offset = len(_MAGIC) + 8
    expected = offset + count * _RECORD.size
    if len(blob) < expected:
        raise ValueError(
            f"truncated dump: declares {count} events, file holds "
            f"{(len(blob) - offset) // _RECORD.size}"
        )
    out: List[Event] = []
    for i in range(count):
        seq, etype, a, b, c, d, t = _RECORD.unpack_from(blob, offset + i * _RECORD.size)
        out.append(Event(seq, etype, a, b, c, d, t))
    return out


def load(path: str) -> List[Event]:
    """Load a dump written by :meth:`FlightRecorder.dump` (auto-detects
    the format from the leading bytes).  Raises ``ValueError`` on a file
    that is not a parseable flight-recorder dump."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_MAGIC)] == _MAGIC:
        return _load_binary(blob)
    return _load_jsonl(blob.decode("utf-8"))


def format_event(e: Event) -> str:
    """One human-readable line per event (used by the CLI and repro-top)."""
    try:
        fields = EVENT_FIELDS[EventType(e.etype)]
    except (ValueError, KeyError):
        fields = EVENT_FIELDS[EventType.NOTE]
    payload = (e.a, e.b, e.c, e.d)
    parts = []
    for name, value in zip(fields, payload):
        if e.etype == EventType.CHAOS_FAULT and name == "fault":
            parts.append(f"fault={FAULT_KINDS.get(value, value)}")
        elif e.etype == EventType.BATCH_BEGIN and name == "kind":
            parts.append(f"kind={'insert' if value == 0 else 'delete'}")
        else:
            parts.append(f"{name}={value}")
    return f"{e.seq:>8}  {e.type_name:<12} {' '.join(parts)}"


def reconstruct_batches(events: Iterable[Event]) -> List[dict]:
    """Rebuild the batch timeline from an event stream.

    Returns one dict per BATCH_BEGIN seen, in order: ``batch`` number,
    ``kind`` (``insert``/``delete``), ``edges``, per-round ``frontiers``
    list, total ``rounds``/``moves``, end-of-batch ``marked``/``dags``,
    and ``complete`` (False for a batch whose BATCH_END never arrived —
    the batch that was in flight when the dump was taken).  Timestamps
    are ignored, so the reconstruction of a deterministic replay is
    itself deterministic.
    """
    timeline: List[dict] = []
    current: Optional[dict] = None
    for e in events:
        if e.etype == EventType.BATCH_BEGIN:
            current = {
                "batch": e.a,
                "kind": "insert" if e.b == 0 else "delete",
                "edges": e.c,
                "frontiers": [],
                "rounds": 0,
                "moves": 0,
                "marked": None,
                "dags": None,
                "complete": False,
            }
            timeline.append(current)
        elif e.etype == EventType.ROUND and current is not None:
            current["frontiers"].append(e.a)
            current["rounds"] = e.c
            current["moves"] = e.b
        elif e.etype == EventType.BATCH_END and current is not None:
            current["marked"] = e.b
            current["dags"] = e.c
            current["moves"] = e.d
            current["complete"] = True
            current = None
    return timeline


#: The process-wide recorder every built-in event site reports to.  Like
#: ``repro.obs.REGISTRY`` it is a singleton mutated in place (never
#: rebound) so hot modules cache the reference at import time; it starts
#: disabled unless ``REPRO_FLIGHTREC=1`` (capacity override:
#: ``REPRO_FLIGHTREC_CAPACITY``).
RECORDER = FlightRecorder(
    capacity=int(os.environ.get("REPRO_FLIGHTREC_CAPACITY") or 4096),
    enabled=os.environ.get("REPRO_FLIGHTREC", "") not in ("", "0", "false", "no"),
)
