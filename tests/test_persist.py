"""Tests for CPLDS checkpointing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import engines
from repro.core import CPLDS
from repro.errors import (
    BatchInProgressError,
    CheckpointCorruptError,
    PersistError,
    ReproError,
)
from repro.graph import generators as gen
from repro.lds import LDSParams
from repro.lds.store import BACKENDS
from repro.persist import (
    FORMAT_VERSION,
    _checkpoint_checksum,
    load_cplds,
    save_cplds,
)


def build(n=40, m=160, seed=3, levels_per_group=20):
    cp = CPLDS(n, params=LDSParams(n, levels_per_group=levels_per_group))
    edges = gen.chung_lu(n, m, seed=seed)
    cp.insert_batch(edges[: m // 2])
    cp.insert_batch(edges[m // 2 :])
    cp.delete_batch(edges[::5])
    return cp


class TestRoundTrip:
    def test_reads_identical_after_restore(self, tmp_path):
        cp = build()
        path = tmp_path / "kcore.npz"
        save_cplds(cp, path)
        restored = load_cplds(path)
        assert restored.levels() == cp.levels()
        for v in range(cp.graph.num_vertices):
            assert restored.read(v) == cp.read(v)

    def test_graph_restored(self, tmp_path):
        cp = build()
        path = tmp_path / "kcore.npz"
        save_cplds(cp, path)
        restored = load_cplds(path)
        assert sorted(restored.graph.edges()) == sorted(cp.graph.edges())

    def test_batch_number_preserved(self, tmp_path):
        cp = build()
        path = tmp_path / "kcore.npz"
        save_cplds(cp, path)
        assert load_cplds(path).batch_number == cp.batch_number

    def test_restored_structure_accepts_updates(self, tmp_path):
        cp = build()
        path = tmp_path / "kcore.npz"
        save_cplds(cp, path)
        restored = load_cplds(path)
        restored.insert_batch([(0, 1), (1, 2)])
        restored.delete_batch([(0, 1)])
        restored.check_invariants()

    def test_params_preserved(self, tmp_path):
        cp = build(levels_per_group=12)
        path = tmp_path / "kcore.npz"
        save_cplds(cp, path)
        restored = load_cplds(path)
        assert restored.params.group_height == 12
        assert restored.params.delta == cp.params.delta

    def test_empty_structure(self, tmp_path):
        cp = CPLDS(5)
        path = tmp_path / "empty.npz"
        save_cplds(cp, path)
        restored = load_cplds(path)
        assert restored.graph.num_edges == 0
        assert restored.levels() == [0] * 5


class TestGuards:
    def test_mid_batch_checkpoint_rejected(self, tmp_path):
        cp = CPLDS(6)
        # Forge an in-flight descriptor.
        cp.descriptors.mark(2, old_level=0, related=[], batch=1)
        with pytest.raises(BatchInProgressError):
            save_cplds(cp, tmp_path / "bad.npz")

    def test_version_mismatch_rejected(self, tmp_path):
        cp = build()
        path = tmp_path / "kcore.npz"
        save_cplds(cp, path)
        with np.load(path) as data:
            payload = dict(data)
        payload["format_version"] = np.int64(999)
        np.savez_compressed(path, **payload)
        with pytest.raises(ReproError):
            load_cplds(path)


class TestCorruption:
    """Damaged archives must raise the typed CheckpointCorruptError."""

    def _saved(self, tmp_path):
        cp = build()
        path = tmp_path / "kcore.npz"
        save_cplds(cp, path)
        return path

    def test_truncated_archive_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_cplds(path)

    def test_bit_flip_rejected(self, tmp_path):
        import zipfile

        path = self._saved(tmp_path)
        # Flip bytes inside the levels member's compressed stream (a flip in
        # zip-format slack would go unnoticed by any checksum).
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("levels.npy")
        offset = info.header_offset + 60  # past the local header, into data
        data = bytearray(path.read_bytes())
        for i in range(offset, offset + 8):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            load_cplds(path)

    def test_tampered_field_fails_checksum(self, tmp_path):
        path = self._saved(tmp_path)
        with np.load(path) as data:
            payload = dict(data)
        payload["batch_number"] = np.int64(int(payload["batch_number"]) + 7)
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointCorruptError):
            load_cplds(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            load_cplds(tmp_path / "nope.npz")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with pytest.raises(CheckpointCorruptError):
            load_cplds(path)

    def test_error_is_typed_persist_error(self, tmp_path):
        path = tmp_path / "nope.npz"
        try:
            load_cplds(path)
        except CheckpointCorruptError as exc:
            assert isinstance(exc, PersistError)
            assert isinstance(exc, ReproError)
        else:  # pragma: no cover - the load must fail
            raise AssertionError("expected CheckpointCorruptError")


# ----------------------------------------------------------------------
# Format 4: sorted per-row gaps and narrow words
# ----------------------------------------------------------------------
#: One vertex count past the uint16 range, so a gap can need uint32.
WIDE_N = 70_000


@st.composite
def v4_states(draw):
    """A structure on either backend: empty (n = 0 or no edges), with
    isolated vertices, or wider than 65,535 vertices."""
    n = draw(st.sampled_from([0, 1, 2, 9, 30, WIDE_N]))
    backend = draw(st.sampled_from(BACKENDS))
    impl = engines.create("cplds", n, backend=backend)
    if n >= 2:
        # A few vertices spread over the whole id range: long gaps, and
        # every vertex not drawn is isolated.  The wide graph keeps vertex
        # 0 for one edge, (0, n - 1), whose one gap only uint32 holds.
        lo = 1 if n == WIDE_N else 0
        pool = sorted(set(draw(
            st.lists(st.integers(lo, n - 1), min_size=2, max_size=10)
        )) | {lo, n - 1})
        pairs = [(u, v) for i, u in enumerate(pool) for v in pool[i + 1:]]
        batch = draw(st.lists(st.sampled_from(pairs), max_size=20))
        if n == WIDE_N:
            batch.append((0, n - 1))
        impl.insert_batch(batch)
    return impl


class TestFormatV4:
    @settings(max_examples=30, deadline=None)
    @given(v4_states())
    @example(engines.create("cplds", 0))
    @example(engines.create("cplds", 5, backend="columnar-frontier"))
    def test_round_trip(self, impl):
        import os
        import tempfile

        fd, path = tempfile.mkstemp(suffix=".npz")
        os.close(fd)
        try:
            save_cplds(impl, path)
            with np.load(path) as data:
                stored = {k: data[k] for k in data.files}
            restored = load_cplds(path)
        finally:
            os.unlink(path)
        assert int(stored["format_version"]) == FORMAT_VERSION == 4
        assert "edges" not in stored
        assert restored.backend == impl.backend
        assert list(restored.levels()) == list(impl.levels())
        assert sorted(restored.graph.edges()) == sorted(impl.graph.edges())
        assert restored.batch_number == impl.batch_number
        n = impl.graph.num_vertices
        degrees, gaps = stored["forward_degrees"], stored["gaps"]
        assert degrees.shape == (n,) and gaps.shape == (impl.graph.num_edges,)
        for arr in (degrees, gaps):
            top = int(arr.max()) if arr.size else 0
            assert arr.dtype == np.min_scalar_type(top)
            assert arr.dtype.kind == "u"
        assert stored["levels"].dtype == np.min_scalar_type(
            impl.params.num_levels - 1
        )
        if n == WIDE_N:
            assert gaps.dtype == np.uint32

    def test_gaps_follow_sorted_rows(self, tmp_path):
        impl = engines.create("cplds", 8)
        impl.insert_batch([(2, 7), (0, 3), (2, 4), (0, 1), (5, 6)])
        save_cplds(impl, tmp_path / "c.npz")
        with np.load(tmp_path / "c.npz") as data:
            assert data["forward_degrees"].tolist() == [2, 0, 2, 0, 0, 1, 0, 0]
            # Rows (0,1) (0,3) (2,4) (2,7) (5,6).
            assert data["gaps"].tolist() == [1, 2, 2, 3, 1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edges_are_canonicalized_once(self, backend, tmp_path, monkeypatch):
        """A batch is canonicalized by its filter alone, and a v4 archive's
        decoded rows (already canonical) not at all."""
        from repro.graph.dynamic_graph import DynamicGraph

        calls = []
        canonical = DynamicGraph._canonical_batch

        def spy(graph, edges):
            edges = list(edges)
            if edges:  # a new graph inserts its (empty) initial edges
                calls.append(len(edges))
            return canonical(graph, edges)

        monkeypatch.setattr(DynamicGraph, "_canonical_batch", spy)
        impl = engines.create("cplds", 30, backend=backend)
        impl.insert_batch(gen.grid_road(5, 6, seed=3))
        impl.delete_batch([(1, 0), (0, 1), (6, 7)])
        assert calls == [49, 3]
        save_cplds(impl, tmp_path / "c.npz")
        restored = load_cplds(tmp_path / "c.npz")
        assert calls == [49, 3]
        assert sorted(restored.graph.edges()) == sorted(impl.graph.edges())
        assert restored.graph.num_edges == impl.graph.num_edges


def _write_v4(path, impl, degrees, gaps, levels=None):
    """A version-4 archive of ``impl``'s scalars with a hand-made edge
    layout, checksummed over the rows a plain reading of that layout
    gives (so only the layout checks can reject it)."""
    n = impl.graph.num_vertices
    levels = np.asarray(
        impl.levels() if levels is None else levels, dtype=np.int64
    )
    rows, start = [], 0
    for u, d in enumerate(degrees[:n]):
        v = u
        for g in gaps[start:start + d]:
            v += g
            rows.append((u, v))
        start += d
    edges = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    p = impl.params
    checksum = _checkpoint_checksum(
        n, edges, levels, impl.batch_number, p.delta, p.lam, p.group_height,
        impl.backend,
    )
    np.savez_compressed(
        path,
        format_version=np.int64(4),
        num_vertices=np.int64(n),
        forward_degrees=np.asarray(degrees, dtype=np.uint32),
        gaps=np.asarray(gaps, dtype=np.uint32),
        levels=levels.astype(np.uint16),
        batch_number=np.int64(impl.batch_number),
        delta=np.float64(p.delta),
        lam=np.float64(p.lam),
        group_height=np.int64(p.group_height),
        backend=np.str_(impl.backend),
        checksum=np.uint32(checksum),
    )


class TestFormatV4Corruption:
    """Each malformed version-4 layout raises CheckpointCorruptError, even
    when its checksum matches."""

    N = 6

    def _impl(self):
        impl = engines.create("cplds", self.N)
        impl.insert_batch([(0, 1), (0, 3), (2, 5)])
        return impl

    def test_well_formed_control_loads(self, tmp_path):
        impl = self._impl()
        _write_v4(tmp_path / "ok.npz", impl, [2, 0, 1, 0, 0, 0], [1, 2, 3])
        restored = load_cplds(tmp_path / "ok.npz")
        assert list(restored.levels()) == list(impl.levels())

    @pytest.mark.parametrize(
        "degrees, gaps, levels, match",
        [
            ([2, 0, 1, 0, 0, 0], [1, 2], None, "do not sum"),
            ([2, 0, 2, 0, 0, 0], [1, 2, 3], None, "do not sum"),
            ([2, 0, 1, 0, 0, 0], [1, 0, 3], None, "zero gap"),
            ([2, 0, 1, 0, 0, 0], [1, 2, 4], None, "endpoint"),
            ([2, 0, 1, 0, 0, 0], [1, 2, 9], None, "endpoint"),
            ([2, 0, 1, 0, 0, 0, 0], [1, 2, 3], None, "forward degrees"),
            ([2, 0, 1, 0, 0], [1, 2, 3], None, "forward degrees"),
            ([2, 0, 1, 0, 0, 0], [1, 2, 3], [0] * 5, "levels for"),
        ],
        ids=[
            "too-few-gaps", "too-many-gaps", "zero-gap", "endpoint-is-n",
            "endpoint-past-n", "degrees-too-long", "degrees-too-short",
            "levels-too-short",
        ],
    )
    def test_malformed_layout_is_typed(self, tmp_path, degrees, gaps, levels, match):
        path = tmp_path / "bad.npz"
        _write_v4(path, self._impl(), degrees, gaps, levels)
        with pytest.raises(CheckpointCorruptError, match=match):
            load_cplds(path)

    def test_missing_member_is_typed(self, tmp_path):
        path = tmp_path / "c.npz"
        save_cplds(self._impl(), path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files if k != "gaps"}
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            load_cplds(path)

    def test_tampered_gap_fails_checksum(self, tmp_path):
        path = tmp_path / "c.npz"
        save_cplds(self._impl(), path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["gaps"] = payload["gaps"].copy()
        payload["gaps"][0] += 1  # (0, 1) -> (0, 2): still a valid layout
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_cplds(path)
