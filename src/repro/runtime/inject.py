"""Deterministic mid-batch read injection.

Real-thread executions interleave reads and updates nondeterministically; for
reproducible linearizability experiments (and CI-stable tests) this module
injects reads at the PLDS's *round boundaries* — the points between parallel
rounds inside a batch, where the structure is exactly in one of the
intermediate states a concurrent reader could observe.

Because injected reads run on the update thread itself, every interleaving is
a deterministic function of the workload and the injection policy.  Do not
inject into :class:`~repro.core.baselines.SyncReadsKCore` — its reads block
until batch end, which would self-deadlock on the update thread (that is,
after all, the latency problem the paper sets out to fix).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.lds.plds import Phase, UpdateHooks
from repro.types import Edge


class HookChain(UpdateHooks):
    """Fan one PLDS hook stream out to several hook objects, in order.

    When the first hook takes whole-frontier moves
    (``supports_bulk_moves``) and no later hook watches single moves
    (overrides ``before_move``), the chain takes them too and hands them
    to the first hook alone: boundary observers such as probes and the
    stepped-read scheduler then see the bulk path production runs.
    """

    def __init__(self, *hooks: UpdateHooks) -> None:
        self.hooks = list(hooks)
        first = hooks[0]
        if getattr(first, "supports_bulk_moves", False) and all(
            type(h).before_move is UpdateHooks.before_move for h in hooks[1:]
        ):
            self.supports_bulk_moves = True
            self.bulk_insert_moves = first.bulk_insert_moves
            self.bulk_delete_moves = first.bulk_delete_moves

    def batch_begin(self, kind: Phase, edges: Sequence[Edge]) -> None:
        for h in self.hooks:
            h.batch_begin(kind, edges)

    def before_move(self, v: int, old: int, new: int, phase: Phase) -> None:
        for h in self.hooks:
            h.before_move(v, old, new, phase)

    def round_boundary(self) -> None:
        for h in self.hooks:
            h.round_boundary()

    def batch_end(self) -> None:
        for h in self.hooks:
            h.batch_end()


class InjectionProbe(UpdateHooks):
    """Invoke a callback at every round boundary (and optionally at batch
    begin/end), tagged with the current phase."""

    def __init__(
        self,
        on_point: Callable[[str], None],
        *,
        at_begin: bool = False,
        at_end: bool = False,
    ) -> None:
        self.on_point = on_point
        self.at_begin = at_begin
        self.at_end = at_end
        self._phase: Phase = "insert"

    def batch_begin(self, kind: Phase, edges: Sequence[Edge]) -> None:
        self._phase = kind
        if self.at_begin:
            self.on_point(f"{kind}:begin")

    def round_boundary(self) -> None:
        self.on_point(f"{self._phase}:round")

    def batch_end(self) -> None:
        if self.at_end:
            self.on_point(f"{self._phase}:end")


class ProbeExecutor:
    """Executor wrapper that fires a callback around (and optionally inside)
    every parallel round.

    Wrapping the executor (rather than the hooks) reaches the rounds the
    hooks cannot see — in particular the three unmark rounds at batch end,
    whose partially-unmarked intermediate states are exactly where the
    root-first ordering earns its keep.
    """

    def __init__(
        self,
        inner,
        on_point: Callable[[str], None],
        *,
        per_item: bool = False,
    ) -> None:
        self.inner = inner
        self.on_point = on_point
        self.per_item = per_item

    @property
    def stats(self):
        return self.inner.stats

    def run_round(self, fn, items) -> None:
        if not self.per_item:
            self.inner.run_round(fn, items)
            self.on_point("round")
            return

        def probed(item):
            fn(item)
            self.on_point("item")

        self.inner.run_round(probed, items)
        self.on_point("round")


def attach_probe(impl, probe: UpdateHooks) -> None:
    """Chain ``probe`` after ``impl``'s existing PLDS hooks.

    ``impl`` is anything owning a ``plds`` attribute (CPLDS, NonSyncKCore,
    NaiveMarkedKCore).  The probe runs *after* the implementation's own hooks
    so that it observes each round's fully published state.
    """
    plds = impl.plds
    plds.hooks = HookChain(plds.hooks, probe)
