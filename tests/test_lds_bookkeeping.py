"""Unit + property tests for the level-store counter bookkeeping.

Structure-agnostic behaviour (invariants, desire levels, counter
consistency) is parametrized over both :data:`repro.lds.store.BACKENDS`;
tests that poke at the object backend's ``down`` dicts directly stay
object-only.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.errors import InvariantViolation
from repro.graph import DynamicGraph
from repro.lds.bookkeeping import LevelState
from repro.lds.invariants import check_all_invariants
from repro.lds.params import LDSParams
from repro.lds.store import BACKENDS, make_store


def make_state(n=6, edges=(), levels_per_group=8, backend="object"):
    g = DynamicGraph(n)
    params = LDSParams(n, levels_per_group=levels_per_group)
    st_ = make_store(backend, g, params)
    for u, v in edges:
        if g.insert_edge(u, v):
            st_.on_edge_inserted(u, v)
    return g, st_


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestEdgeBookkeeping:
    def test_initial_counts_from_preexisting_graph(self):
        g = DynamicGraph(3, [(0, 1), (1, 2)])
        state = LevelState(g, LDSParams(3))
        assert state.up_deg == [1, 2, 1]

    def test_mismatched_params_rejected(self):
        g = DynamicGraph(3)
        with pytest.raises(ValueError):
            LevelState(g, LDSParams(4))

    def test_insert_same_level_counts_both_up(self):
        _, state = make_state(3, [(0, 1)])
        assert state.up_deg[0] == 1
        assert state.up_deg[1] == 1
        assert state.down[0] == {}

    def test_insert_across_levels(self):
        g, state = make_state(3)
        state.set_level(1, 5)
        g.insert_edge(0, 1)
        state.on_edge_inserted(0, 1)
        assert state.up_deg[0] == 1  # 1 is above 0
        assert state.up_deg[1] == 0
        assert state.down[1] == {0: 1}

    def test_delete_reverses_insert(self):
        g, state = make_state(3, [(0, 1), (1, 2)])
        g.delete_edge(0, 1)
        state.on_edge_deleted(0, 1)
        assert state.up_deg == [0, 1, 1]
        state.assert_counters_consistent()


class TestSetLevel:
    def test_move_up_reclassifies_same_level_neighbors(self):
        _, state = make_state(3, [(0, 1), (0, 2)])
        state.set_level(0, 1)
        # 1 and 2 are now below 0.
        assert state.up_deg[0] == 0
        assert state.down[0] == {0: 2}
        # 0 is still an up-neighbour for 1 and 2.
        assert state.up_deg[1] == 1
        assert state.up_deg[2] == 1
        state.assert_counters_consistent()

    def test_move_down_reclassifies(self):
        _, state = make_state(3, [(0, 1)])
        state.set_level(0, 3)
        state.set_level(0, 0)
        assert state.up_deg[0] == 1
        assert state.up_deg[1] == 1
        assert state.down[1] == {}
        state.assert_counters_consistent()

    def test_noop_move(self):
        _, state = make_state(2, [(0, 1)])
        state.set_level(0, 0)
        state.assert_counters_consistent()

    def test_out_of_range_level_rejected(self):
        _, state = make_state(2)
        with pytest.raises(ValueError):
            state.set_level(0, -1)
        with pytest.raises(ValueError):
            state.set_level(0, state.params.num_levels)

    def test_multilevel_jump(self):
        _, state = make_state(4, [(0, 1), (0, 2), (0, 3)])
        state.set_level(1, 2)
        state.set_level(2, 5)
        state.set_level(0, 4)  # jumps over 1 and 2's levels
        state.assert_counters_consistent()
        assert state.up_deg[0] == 1  # only vertex 2 at level 5
        assert state.down[0] == {2: 1, 0: 1}

    def test_top_level_move_grows_no_array(self):
        # The array store's memory is set by n and m, not by the levels.
        _, state = make_state(
            6, [(0, 1), (1, 2), (2, 3), (3, 4)], backend="columnar-frontier"
        )

        def nbytes():
            return sum(
                getattr(state, name).nbytes
                for name in type(state).__slots__
                if isinstance(getattr(state, name), np.ndarray)
            )

        before = nbytes()
        top = state.params.max_level
        state.set_level(2, top)
        state.set_level(3, top - 1)
        state.assert_counters_consistent()
        assert nbytes() == before
        state.load_levels([top] * 6)
        state.assert_counters_consistent()
        assert nbytes() == before

    def test_get_level_reads_live(self):
        _, state = make_state(2)
        assert state.get_level(0) == 0
        state.set_level(0, 7)
        assert state.get_level(0) == 7


class TestInvariantPredicates:
    def test_invariant1_violated_by_high_up_degree(self, backend):
        # Group 0 upper bound is 2 + 1/3, so 4 same-level neighbours violate.
        _, state = make_state(5, [(0, i) for i in range(1, 5)], backend=backend)
        assert not state.satisfies_invariant1(0)
        assert state.satisfies_invariant1(1)

    def test_invariant1_vacuous_at_top_level(self, backend):
        _, state = make_state(
            5, [(0, i) for i in range(1, 5)], levels_per_group=1,
            backend=backend,
        )
        state.set_level(0, state.params.max_level)
        assert state.satisfies_invariant1(0)

    def test_invariant2_trivial_at_level_zero(self, backend):
        _, state = make_state(2, backend=backend)
        assert state.satisfies_invariant2(0)

    def test_invariant2_violated_by_isolated_high_vertex(self, backend):
        _, state = make_state(2, backend=backend)
        state.set_level(0, 3)
        assert not state.satisfies_invariant2(0)

    def test_invariant2_satisfied_with_support_below(self, backend):
        _, state = make_state(3, [(0, 1), (0, 2)], backend=backend)
        state.set_level(0, 1)
        # Neighbours at level 0 >= level 0 = ℓ−1: count 2 >= (1.2)^0 = 1.
        assert state.satisfies_invariant2(0)


class TestDesireLevel:
    def test_desire_level_zero_vertex(self, backend):
        _, state = make_state(2, backend=backend)
        assert state.desire_level(0) == 0

    def test_satisfied_vertex_desires_current_level(self, backend):
        _, state = make_state(3, [(0, 1), (0, 2)], backend=backend)
        state.set_level(0, 1)
        assert state.desire_level(0) == 1

    def test_unsupported_vertex_desires_zero(self, backend):
        _, state = make_state(2, backend=backend)
        state.set_level(0, 6)
        assert state.desire_level(0) == 0

    def test_desire_level_lands_just_above_support(self, backend):
        # Vertex 0 high up with one neighbour at level 3: the highest level d
        # with >= 1 neighbour at level >= d-1 is d = 4.
        _, state = make_state(3, [(0, 1)], backend=backend)
        state.set_level(1, 3)
        state.set_level(0, 7)
        assert state.desire_level(0) == 4

    def test_desire_level_respects_group_thresholds(self, backend):
        # With levels_per_group=2, Invariant 2 at level 3 needs
        # (1.2)^{group(2)} = 1.2 neighbours, i.e. at least 2.
        _, state = make_state(
            4, [(0, 1), (0, 2)], levels_per_group=2, backend=backend
        )
        state.set_level(1, 2)
        state.set_level(2, 2)
        state.set_level(0, 7)
        # At d=3: neighbours >= 2 is 2 >= 1.2 -> satisfied.
        assert state.desire_level(0) == 3

    def test_desire_is_downward_closed_witness(self, backend):
        # The returned level must satisfy Invariant 2 while level+1 must not.
        _, state = make_state(5, [(0, 1), (0, 2), (0, 3)], backend=backend)
        state.set_level(1, 2)
        state.set_level(2, 4)
        state.set_level(0, 9)
        d = state.desire_level(0)
        state.set_level(0, d)
        assert state.satisfies_invariant2(0)
        if d + 1 < state.params.num_levels:
            state.set_level(0, d + 1)
            assert not state.satisfies_invariant2(0)


def _brute_force_desire(state, v):
    """The definition, spelled out: the highest feasible d <= level(v)."""
    lvl = int(state.level[v])
    best = 0
    for d in range(1, lvl + 1):
        cnt = sum(
            1
            for w in state.graph.neighbors_unsafe(v)
            if int(state.level[w]) >= d - 1
        )
        if cnt >= state.params.lower_threshold(d):
            best = d
    return best


class TestDesireLevelBreakpoints:
    """Edge cases around the suffix-count breakpoints of desire_level."""

    def test_support_exactly_at_group_boundary(self, backend):
        # levels_per_group=2: the lower threshold jumps at every even level.
        # Put the single supporting neighbour exactly at a group boundary
        # (level 2 = start of group 1) and the mover far above it.
        _, state = make_state(3, [(0, 1)], levels_per_group=2, backend=backend)
        state.set_level(1, 2)
        state.set_level(0, 7)
        d = state.desire_level(0)
        assert d == _brute_force_desire(state, 0)
        # threshold(2) = 1 is met by the level-2 neighbour, but the jump to
        # threshold(3) = 1.2 at the group boundary rules out d = 3.
        assert d == 2

    def test_down_entry_at_level_below_only(self, backend):
        # All support sits exactly at ℓ−1 (the only down level that counts
        # for Invariant 2): desire must keep the vertex at ℓ.
        _, state = make_state(4, [(0, 1), (0, 2), (0, 3)], backend=backend)
        for w in (1, 2, 3):
            state.set_level(w, 2)
        state.set_level(0, 3)
        assert state.satisfies_invariant2(0)
        assert state.desire_level(0) == 3
        assert state.desire_level(0) == _brute_force_desire(state, 0)

    def test_vertex_at_top_level(self, backend):
        # A well-supported vertex at max_level: desire is capped at ℓ and
        # the suffix scan must not run past the level array.
        n = 8
        _, state = make_state(
            n, [(0, i) for i in range(1, n)], levels_per_group=1,
            backend=backend,
        )
        top = state.params.max_level
        for w in range(1, n):
            state.set_level(w, top)
        state.set_level(0, top)
        d = state.desire_level(0)
        assert 0 <= d <= top
        assert d == _brute_force_desire(state, 0)

    def test_backends_agree_on_breakpoint_scripts(self):
        # The same script must yield identical desire levels on both
        # backends — the differential check at its sharpest point.
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (0, 4)]
        moves = [(1, 2), (2, 2), (3, 1), (4, 3), (0, 7), (2, 5), (1, 0)]
        states = {}
        for be in BACKENDS:
            _, state = make_state(6, edges, levels_per_group=2, backend=be)
            for v, lvl in moves:
                state.set_level(v, min(lvl, state.params.max_level))
            states[be] = state
        for v in range(6):
            desires = {be: s.desire_level(v) for be, s in states.items()}
            assert len(set(desires.values())) == 1, (v, desires)


@st.composite
def level_scripts(draw):
    """A random small graph plus a random sequence of level moves."""
    n = draw(st.integers(min_value=2, max_value=8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=12))
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=12,
        )
    )
    return n, edges, moves


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(level_scripts())
    def test_counters_consistent_after_arbitrary_moves(self, script):
        n, edges, moves = script
        for be in BACKENDS:
            _, state = make_state(n, edges, levels_per_group=4, backend=be)
            for v, lvl in moves:
                state.set_level(v, min(lvl, state.params.max_level))
            state.assert_counters_consistent()

    @settings(max_examples=50, deadline=None)
    @given(level_scripts())
    def test_desire_level_is_max_feasible(self, script):
        n, edges, moves = script
        for be in BACKENDS:
            _, state = make_state(n, edges, levels_per_group=4, backend=be)
            for v, lvl in moves:
                state.set_level(v, min(lvl, state.params.max_level))
            for v in range(n):
                lvl = int(state.level[v])
                d = state.desire_level(v)
                assert 0 <= d <= lvl
                # Brute-force the definition.
                def feasible(dd):
                    if dd == 0:
                        return True
                    cnt = sum(
                        1
                        for w in state.graph.neighbors_unsafe(v)
                        if int(state.level[w]) >= dd - 1
                    )
                    return cnt >= state.params.lower_threshold(dd)

                assert feasible(d)
                for dd in range(d + 1, lvl + 1):
                    assert not feasible(dd)
            if hasattr(state, "bulk_desire_levels_arr"):
                # The whole-frontier kernel: the same level for every
                # Invariant-2 violator.
                viols, desires = state.bulk_desire_levels_arr(
                    np.arange(n, dtype=np.int64)
                )
                assert dict(zip(viols.tolist(), desires.tolist())) == {
                    v: state.desire_level(v)
                    for v in range(n)
                    if not state.satisfies_invariant2(v)
                }

    @settings(max_examples=50, deadline=None)
    @given(level_scripts())
    def test_backends_agree_on_random_scripts(self, script):
        n, edges, moves = script
        results = {}
        for be in BACKENDS:
            _, state = make_state(n, edges, levels_per_group=4, backend=be)
            for v, lvl in moves:
                state.set_level(v, min(lvl, state.params.max_level))
            results[be] = (
                [int(x) for x in state.levels_snapshot()],
                [state.desire_level(v) for v in range(n)],
                [state.satisfies_invariant1(v) for v in range(n)],
                [state.satisfies_invariant2(v) for v in range(n)],
            )
        assert results["object"] == results["columnar-frontier"]


# ----------------------------------------------------------------------
# Whole-array checkers vs a brute-force scalar scan
# ----------------------------------------------------------------------
def _brute_force_first_fault(state):
    """``(exception type, vertex)`` of the first fault a vertex-by-vertex
    scan finds — counters, then Invariant 1, then 2 — or ``None`` when the
    state is sound."""
    n = state.graph.num_vertices
    levels = [int(x) for x in state.level]
    for v in range(n):
        nbr = [levels[w] for w in state.graph.neighbors_unsafe(v)]
        up = sum(1 for lw in nbr if lw >= levels[v])
        below = {}
        for lw in nbr:
            if lw < levels[v]:
                below[lw] = below.get(lw, 0) + 1
        if up != int(state.up_deg[v]):
            return AssertionError, v
        if hasattr(state, "down1"):
            # The array store counts only the neighbours at ℓ(v) − 1.
            if int(state.down1[v]) != below.get(levels[v] - 1, 0):
                return AssertionError, v
        elif state.down[v] != below:
            return AssertionError, v
    params = state.params
    for v in range(n):
        lvl = levels[v]
        up = sum(1 for w in state.graph.neighbors_unsafe(v) if levels[w] >= lvl)
        if lvl < params.max_level and up > params.upper_threshold(lvl):
            return InvariantViolation, v
    for v in range(n):
        lvl = levels[v]
        cnt = sum(1 for w in state.graph.neighbors_unsafe(v) if levels[w] >= lvl - 1)
        if lvl != 0 and cnt < params.lower_threshold(lvl):
            return InvariantViolation, v
    return None


def _checker_fault(state):
    """``(exception type, vertex)`` raised by :func:`check_all_invariants`."""
    try:
        check_all_invariants(state)
    except InvariantViolation as exc:
        return InvariantViolation, exc.vertex
    except AssertionError as exc:
        m = re.search(r"\[(\d+)\]|vertex (\d+)", str(exc))
        assert m, str(exc)
        return AssertionError, int(m.group(1) or m.group(2))
    return None


# A 12-clique and a 7-clique joined by one edge, plus a sparse tail: the
# cliques settle at different levels >= 9, so the joining edge is counted
# in a below-level cell >= 8.
_GRAPH = (
    [(u, v) for u in range(12) for v in range(u + 1, 12)]
    + [(u, v) for u in range(12, 19) for v in range(u + 1, 19)]
    + [(0, 12)] + [(v, v + 1) for v in range(18, 23)]
)


def _sound_state(backend):
    impl = engines.create(
        "plds", 24, backend=backend, params=LDSParams(24, levels_per_group=2)
    )
    impl.insert_batch(_GRAPH)
    return impl.state


def _high_down_cell(state):
    """The first ``(v, level)`` counter cell at a level >= 8."""
    for v in range(state.graph.num_vertices):
        lw = [int(state.level[w]) for w in state.graph.neighbors_unsafe(v)]
        high = [l for l in lw if 8 <= l < int(state.level[v])]
        if high:
            return v, min(high)
    raise AssertionError("no counter cell at a level >= 8")


def _bump_up_deg(state):
    state.up_deg[6] += 1


def _bump_high_down_cell(state):
    if hasattr(state, "down1"):
        v = next(v for v in range(len(state.level)) if state.level[v] >= 9)
        state.down1[v] += 1
    else:
        v, col = _high_down_cell(state)
        state.down[v][col] += 1


def _move_behind_counters(state):
    state.level[7] = 3
    if hasattr(state, "_level_arr"):
        state._level_arr[7] = 3


def _write_array_view_only(state):
    # The kernels' numpy view shares the level buffer: a write through it
    # alone is a level moved behind the counters.
    state._level_arr[11] = 2


def _unsupported_levels(state):
    # Legal moves (counters stay consistent) that break Invariant 2 at two
    # vertices: the lower-numbered one must be named.
    state.set_level(22, 12)
    state.set_level(20, 12)


def _overfull_levels(state):
    # Two clique vertices dropped to level 0 break Invariant 1.
    state.set_level(5, 0)
    state.set_level(3, 0)


class TestWholeArrayCheckers:
    @pytest.mark.parametrize(
        "corrupt",
        [_bump_up_deg, _bump_high_down_cell, _move_behind_counters,
         _write_array_view_only, _unsupported_levels, _overfull_levels],
    )
    def test_checker_names_the_brute_force_vertex(self, backend, corrupt):
        state = _sound_state(backend)
        assert _brute_force_first_fault(state) is None
        check_all_invariants(state)
        if corrupt is _write_array_view_only and backend == "object":
            pytest.skip("the object store keeps no array view of its levels")
        corrupt(state)
        expected = _brute_force_first_fault(state)
        assert expected is not None
        assert _checker_fault(state) == expected

    def test_far_level_behind_the_store_is_a_mismatch(self):
        # A level written behind the store's back, far above every other
        # level: the counters no longer match the graph.
        state = _sound_state("columnar-frontier")
        far = max(state.level) + 10
        state.level[20] = far
        state._level_arr[20] = far
        with pytest.raises(AssertionError):
            state.assert_counters_consistent()
        assert _checker_fault(state) == _brute_force_first_fault(state)

    @settings(max_examples=60, deadline=None)
    @given(
        level_scripts(),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=15),
        st.sampled_from([-1, 1]),
    )
    def test_random_corruption_matches_brute_force(self, script, v, col, delta):
        n, edges, moves = script
        v %= n
        for be in BACKENDS:
            _, state = make_state(n, edges, levels_per_group=4, backend=be)
            for u, lvl in moves:
                state.set_level(u, min(lvl, state.params.max_level))
            if hasattr(state, "down1"):
                state.down1[v] += delta
            else:
                state.down[v][col] = state.down[v].get(col, 0) + delta
                if state.down[v][col] == 0:
                    del state.down[v][col]
            assert _checker_fault(state) == _brute_force_first_fault(state), be


# ----------------------------------------------------------------------
# The frontier store: one level buffer, fused round kernels
# ----------------------------------------------------------------------
def _assert_one_level_buffer(state):
    assert np.shares_memory(state.level, state._level_arr)
    for v in range(state.graph.num_vertices):
        lvl = state.level[v]
        assert type(lvl) is int
        assert lvl == state._level_arr[v]


class TestSharedLevelBuffer:
    def test_every_write_path_lands_in_the_reader_word(self):
        # Vertex 0 has 20 neighbours (the vectorised set_level path),
        # vertex 21 has two (the scalar path).
        edges = [(0, v) for v in range(1, 21)] + [(21, 1), (21, 2), (1, 2)]
        _, state = make_state(22, edges, levels_per_group=4, backend="columnar-frontier")
        level = state.level
        _assert_one_level_buffer(state)
        state.set_level(0, 5)
        assert level[0] == 5
        _assert_one_level_buffer(state)
        state.set_level(21, 3)
        assert level[21] == 3
        _assert_one_level_buffer(state)
        movers = np.array([1, 2], dtype=np.int64)
        src, flat, _, co, lw = state.gather_round(movers)
        state.bulk_raise_level_rows(movers, 0, src, flat, co, lw)
        assert level[1] == level[2] == 1
        _assert_one_level_buffer(state)
        snap = state.snapshot()
        movers = np.array([0, 21], dtype=np.int64)
        src, flat, _, co, lw = state.gather_round(movers)
        state.bulk_move_to_level_rows(movers, 2, src, flat, co, lw)
        assert level[0] == level[21] == 2
        _assert_one_level_buffer(state)
        state.assert_counters_consistent()
        state.load_levels([4] * 22)
        assert state.levels_snapshot() == [4] * 22
        _assert_one_level_buffer(state)
        state.restore(snap)
        assert (level[0], level[1], level[21]) == (5, 1, 3)
        _assert_one_level_buffer(state)
        state.assert_counters_consistent()
        state.reset()
        assert state.levels_snapshot() == [0] * 22
        _assert_one_level_buffer(state)
        # Readers keep the object they were handed: it is never rebound.
        assert state.level is level


def _random_store_pair(rng, n, p, top):
    """Two frontier stores over equal random graphs at one random level
    assignment (levels in ``[0, top]``)."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    levels = rng.integers(0, top + 1, size=n)
    stores = []
    for _ in range(2):
        _, state = make_state(n, edges, levels_per_group=4, backend="columnar-frontier")
        state.load_levels(levels)
        stores.append(state)
    return stores


def _assert_same_state(fused, ref):
    assert fused.levels_snapshot() == ref.levels_snapshot()
    assert np.array_equal(fused.up_deg, ref.up_deg)
    assert np.array_equal(fused.down1, ref.down1)
    fused.assert_counters_consistent()


class TestFusedRoundKernels:
    """One round through ``gather_round`` and a bulk kernel equals moving
    the same movers one ``set_level`` at a time."""

    def test_gather_positions_index_the_csr_targets(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            state, _ = _random_store_pair(rng, 14, 0.3, 4)
            movers = np.flatnonzero(rng.random(14) < 0.4).astype(np.int64)
            src, flat, pos = state.gather_rows(movers)
            assert np.array_equal(state._csr_targets[pos], flat)
            offsets = state._csr_offsets
            assert np.all((offsets[src] <= pos) & (pos < offsets[src + 1]))
            assert sorted(zip(src.tolist(), flat.tolist())) == sorted(
                (v, w) for v in movers.tolist()
                for w in state.graph.neighbors_unsafe(v)
            )

    def test_raise_round_matches_per_mover_set_level(self):
        rng = np.random.default_rng(5)
        co_rounds = 0
        for _ in range(150):
            fused, ref = _random_store_pair(rng, 12, 0.4, 3)
            old = int(rng.integers(0, 4))
            at_old = np.flatnonzero(fused._level_arr == old)
            movers = at_old[rng.random(at_old.size) < 0.6].astype(np.int64)
            src, flat, _, co, lw = fused.gather_round(movers)
            co_rounds += bool(co.any())
            requeue = fused.bulk_raise_level_rows(movers, old, src, flat, co, lw)
            for v in movers.tolist():
                ref.set_level(v, old + 1)
            _assert_same_state(fused, ref)
            moved = set(movers.tolist())
            assert requeue.tolist() == sorted(
                {w for v in moved for w in ref.graph.neighbors_unsafe(v)
                 if w not in moved and ref.level[w] == old + 1}
            )
        assert co_rounds >= 30  # adjacent co-movers are well covered

    def test_down_round_matches_per_mover_set_level(self):
        rng = np.random.default_rng(7)
        co_rounds = 0
        for _ in range(150):
            fused, ref = _random_store_pair(rng, 12, 0.4, 5)
            lstar = int(rng.integers(0, 4))
            above = np.flatnonzero(fused._level_arr > lstar)
            movers = above[rng.random(above.size) < 0.6].astype(np.int64)
            src, flat, _, co, lw = fused.gather_round(movers)
            co_rounds += bool(co.any())
            fused.bulk_move_to_level_rows(movers, lstar, src, flat, co, lw)
            for v in movers.tolist():
                ref.set_level(v, lstar)
            _assert_same_state(fused, ref)
            # The delete driver's requeue: non-mover neighbours left above
            # the landing level, read off the shared pre-round masks.
            moved = set(movers.tolist())
            assert sorted(set(flat[(lw > lstar) & ~co].tolist())) == sorted(
                {w for v in moved for w in ref.graph.neighbors_unsafe(v)
                 if w not in moved and ref.level[w] > lstar}
            )
        assert co_rounds >= 30
