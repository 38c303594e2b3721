"""Tests for the mesh interconnect and the resource observer."""

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.memory.interconnect import Mesh, slice_node, slice_of_line
from repro.memory.observer import ResourceEvent, ResourceObserver


class TestMesh:
    def test_table1_geometry(self):
        mesh = Mesh((4, 2), hop_latency=1)
        assert mesh.num_nodes == 8

    def test_manhattan_distance(self):
        mesh = Mesh((4, 2))
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3
        assert mesh.hops(0, 7) == 4  # (0,0) -> (3,1)
        assert mesh.hops(5, 2) == 2  # (1,1) -> (2,0)

    def test_latency_scales_with_hops(self):
        mesh = Mesh((4, 2), hop_latency=3)
        assert mesh.latency(0, 3) == 9
        assert mesh.round_trip(0, 3) == 18

    def test_max_round_trip_is_the_broadcast_bound(self):
        mesh = Mesh((4, 2))
        worst = mesh.max_round_trip(0)
        assert worst == 2 * 4
        assert all(mesh.round_trip(0, n) <= worst for n in range(8))

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            Mesh((0, 2))

    def test_node_bounds(self):
        with pytest.raises(ValueError):
            Mesh((2, 2)).coords(4)

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_hops_symmetric(self, a, b):
        mesh = Mesh((4, 2))
        assert mesh.hops(a, b) == mesh.hops(b, a)


def reference_slice_of_line(line: int, num_slices: int) -> int:
    """The slice hash as first written: one XOR-folding loop for every
    slice count, re-testing for a power of two on each step."""
    value = line
    folded = 0
    while value:
        folded ^= (
            value & (num_slices - 1)
            if num_slices & (num_slices - 1) == 0
            else value % num_slices
        )
        value //= max(2, num_slices)
    return folded % num_slices


class TestSliceHash:
    @seed(20)
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(0, 4096), st.integers(0, 1 << 48)),
        st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 32, 64]),
    )
    def test_matches_reference_loop(self, line, num_slices):
        assert slice_of_line(line, num_slices) == reference_slice_of_line(
            line, num_slices
        )

    @given(st.integers(0, 1 << 40))
    def test_slice_in_range(self, line):
        assert 0 <= slice_of_line(line, 8) < 8

    def test_consecutive_lines_spread(self):
        slices = {slice_of_line(line, 8) for line in range(64)}
        assert len(slices) > 1

    def test_deterministic(self):
        assert slice_of_line(12345, 8) == slice_of_line(12345, 8)

    def test_slice_node_wraps(self):
        mesh = Mesh((2, 2))
        assert slice_node(5, mesh) == 1


class TestResourceObserver:
    def test_disabled_by_default(self):
        observer = ResourceObserver()
        observer.emit(0, "L1D", "respond")
        assert observer.events == []

    def test_enabled_records(self):
        observer = ResourceObserver(enabled=True)
        observer.emit(5, "L1D.bank", "reserve", 3)
        assert observer.events == [ResourceEvent(5, "L1D.bank", "reserve", 3)]

    def test_trace_filtering(self):
        observer = ResourceObserver(enabled=True)
        observer.emit(0, "L1D.bank", "reserve", 1)
        observer.emit(1, "L2.bank", "reserve", 2)
        observer.emit(2, "L1D", "respond", 0)
        trace = observer.trace(structures=["L1D"])
        assert len(trace) == 2

    def test_normalized_rebases_cycles(self):
        observer = ResourceObserver(enabled=True)
        observer.emit(100, "X", "a")
        observer.emit(105, "X", "b")
        normalized = observer.normalized()
        assert normalized[0][0] == 0
        assert normalized[1][0] == 5

    def test_clear(self):
        observer = ResourceObserver(enabled=True)
        observer.emit(0, "X", "a")
        observer.clear()
        assert observer.events == []

    def test_event_str(self):
        event = ResourceEvent(3, "L3.slice", "reserve_all", 7)
        assert "L3.slice" in str(event)
        assert "reserve_all" in str(event)
