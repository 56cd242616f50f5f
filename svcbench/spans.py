"""Span tracer for the traced benchmark run.

The tracer wraps the public calls of each layer from outside the program
(module functions and class methods are swapped for timing wrappers while
a :class:`Tracer` is installed, and restored afterwards), and records one
span per call in memory: ``(id, parent id, name, start, end, extra)``.
Spans nest per thread, so a layer's self time is its duration minus the
durations of its child spans.  Nothing here runs in the untraced runs that
produce the end-to-end metrics.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

#: The root span of one batch on the coordinator's update thread: the
#: writer's busy time for that batch.
WRITER_ROOT = "writer.batch"
#: The root span of one crash-recovery reopening.
RECOVER_ROOT = "recover"


class Tracer:
    """In-memory span recorder with install/uninstall of call wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []
        #: Submit time per live ticket (``id(ticket)``), for queue wait.
        self.submit_t: dict[int, float] = {}
        #: Tickets of the batch the update thread is applying right now.
        self.current_batch: list = []
        #: Per-ticket queue wait: submit -> batch enters the supervisor.
        self.queue_waits: list[float] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, on_exit=None, token=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``on_exit(args, result, token)`` may return extra data stored with
        the span, or ``False`` to drop the span (its time then stays in the
        parent's self time); ``token`` is what the wrapper's ``on_enter``
        returned.
        """
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        extra = on_exit(args, result, token) if on_exit is not None else None
        if extra is not False:
            self.spans.append((sid, parent, name, t0, t1, extra))
        return result

    # -- wrappers --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_exit=None, on_enter=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``."""
        # An inherited method is wrapped on ``owner`` and removed again on
        # uninstall (``None`` marks it), leaving the base class untouched.
        raw = owner.__dict__.get(attr)
        fn_or_cm = raw if raw is not None else getattr(owner, attr)
        is_cm = isinstance(fn_or_cm, classmethod)
        fn = fn_or_cm.__func__ if is_cm else fn_or_cm
        tracer = self

        def wrapper(*args, **kwargs):
            token = on_enter(args) if on_enter is not None else None
            return tracer.call(name, fn, args, kwargs, on_exit, token)

        wrapper.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every layer's public calls (see the README's layer map)."""
        from repro.core import frontier
        from repro.core.cplds import CPLDS
        from repro.graph.dynamic_graph import DynamicGraph
        from repro.lds.store import FrontierLevelStore
        from repro import persist
        from repro.reads.epoch import EpochPin, EpochSnapshotStore
        from repro.runtime import supervisor
        from repro.runtime.coordinator import BatchCoordinator

        def note_submit(args, ticket, _token):
            self.submit_t[id(ticket)] = time.perf_counter()

        def enter_batch(args):
            self.current_batch = args[1]

        def enter_supervisor(args):
            now = time.perf_counter()
            pop = self.submit_t.pop
            for t in self.current_batch:
                t0 = pop(id(t), None)
                if t0 is not None:
                    self.queue_waits.append(now - t0)

        def engine_counts(args, result, _token):
            plds = args[0].plds
            return (plds.last_batch_moves, plds.last_batch_rounds, 0, 0)

        def marking_counts(args, result, _token):
            # Marked vertices and DAGs are per phase (two per mixed batch).
            cp = args[0].cp
            return (0, 0, cp.last_batch_marked, cp.last_batch_dags)

        def csr_rebuilt(args, result, before):
            # sync_csr runs once per round; keep only the calls that rebuilt
            # the CSR arrays, so the span count is the rebuild count.
            return None if args[0]._csr_targets is not before else False

        w = self.wrap
        w(BatchCoordinator, "submit_insert", "coordinator.submit", note_submit)
        w(BatchCoordinator, "submit_delete", "coordinator.submit", note_submit)
        w(BatchCoordinator, "_apply", WRITER_ROOT,
          lambda args, r, t: len(args[1]), enter_batch)
        w(supervisor.SupervisedCPLDS, "apply_batch", "supervisor",
          on_enter=enter_supervisor)
        w(persist.BatchJournal, "append_batch", "persist.journal")
        w(persist.BatchJournal, "commit", "persist.journal")
        w(persist.BatchJournal, "note_checkpoint", "persist.journal")
        w(persist.BatchJournal, "compact", "persist.compact")
        w(persist, "save_cplds", "persist.checkpoint")
        w(persist, "load_cplds", "persist.recover_load")
        w(supervisor, "restore_from_dir", "persist.restore")
        w(frontier.FrontierCPLDS, "check_invariants", "persist.checkpoint_verify")
        w(CPLDS, "apply_batch", "engine", engine_counts)
        w(frontier, "run_insert_rounds", "frontier.insert_rounds")
        w(frontier, "run_delete_rounds", "frontier.delete_rounds")
        w(frontier.FrontierMarkingHooks, "batch_end", "marking.batch_end",
          marking_counts)
        w(FrontierLevelStore, "apply_edges", "store.apply_edges")
        w(FrontierLevelStore, "sync_csr", "store.csr_rebuild", csr_rebuilt,
          lambda args: args[0]._csr_targets)
        w(FrontierLevelStore, "snapshot_levels", "epoch.publish")
        w(EpochSnapshotStore, "publish", "epoch.publish")
        w(DynamicGraph, "filter_new_edges", "graph.filter")
        w(DynamicGraph, "filter_present_edges", "graph.filter")
        w(EpochPin, "coreness_many", "epoch.bulk")
        w(EpochPin, "top_k", "epoch.bulk")
        w(frontier.FrontierCPLDS, "read", "read.call")

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: ``[id, parent, name, t0, t1, extra]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, extra in self.spans:
                fh.write(json.dumps([sid, parent, name, round(t0, 7),
                                     round(t1, 7), extra]) + "\n")


def analyse(spans: list[tuple]) -> dict:
    """Self times per layer, split by root (writer batches, recoveries)."""
    by_id = {s[0]: s for s in spans}
    child_sum: dict[int, float] = defaultdict(float)
    for sid, parent, _name, t0, t1, _extra in spans:
        if parent:
            child_sum[parent] += t1 - t0
    root_of: dict[int, tuple] = {}

    def root(s):
        chain = []
        while True:
            hit = root_of.get(s[0])
            if hit is not None:
                break
            chain.append(s[0])
            parent = by_id.get(s[1])
            if parent is None:
                hit = s
                break
            s = parent
        for sid in chain:
            root_of[sid] = hit
        return hit

    writer: dict[str, list] = defaultdict(lambda: [0.0, 0])
    recover: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0.0]))
    other: dict[str, list] = defaultdict(list)
    engine_counts = np.zeros(4, dtype=np.int64)
    batch_sizes: list[int] = []
    for s in spans:
        sid, parent, name, t0, t1, extra = s
        dur = t1 - t0
        self_t = dur - child_sum.get(sid, 0.0)
        r = root(s)
        if r[2] == WRITER_ROOT:
            acc = writer[name]
            acc[0] += self_t
            acc[1] += 1
            if name in ("engine", "marking.batch_end"):
                engine_counts += extra
            elif name == WRITER_ROOT:
                batch_sizes.append(extra)
        elif r[2] == RECOVER_ROOT:
            acc = recover[r[0]][name]
            acc[0] += self_t
            acc[1] += 1
            acc[2] += dur
        else:
            other[name].append(dur)
    return {
        "writer": dict(writer),
        "recover": [dict(v) for _k, v in sorted(recover.items())],
        "other": dict(other),
        "engine_counts": engine_counts.tolist(),
        "batch_sizes": batch_sizes,
    }


def layer_table(writer: dict) -> tuple[list[tuple], float, float]:
    """Rows ``(layer, self_s, count, share)`` sorted by self time, plus the
    writer's busy time and the unattributed leftover (the writer root's own
    self time: batch pre-processing and ticket completion)."""
    busy = sum(v[0] for v in writer.values())
    leftover = writer[WRITER_ROOT][0]
    rows = sorted(
        ((k, v[0], v[1], v[0] / busy) for k, v in writer.items() if k != WRITER_ROOT),
        key=lambda r: -r[1],
    )
    return rows, busy, leftover
