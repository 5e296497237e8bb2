"""Telemetry banks of the shared-memory segment: geometry, encoding,
bank reuse, and segment lifecycle (including cleanup after a worker
crash).
"""

import math

import pytest
from multiprocessing import shared_memory

from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import SimulationError
from repro.sim.shm import EPOCH_TICKS, ShmPlane


def make_plane(servers=10, observers=4):
    return ShmPlane.create(servers, observers)


class TestGeometry:
    def test_segment_sizing(self):
        plane = make_plane(servers=10, observers=4)
        try:
            # the banks are the whole segment
            assert plane.banks == EPOCH_TICKS + 1
            assert plane.segment_bytes == plane.banks * (10 + 4) * 8
            assert plane.row_bytes == 10 * 8
            # the OS may round the mapping up, never down
            assert plane._shm.size >= plane.segment_bytes
        finally:
            plane.unlink()

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(SimulationError, match="server slot"):
            ShmPlane.create(0, 4)
        with pytest.raises(SimulationError, match="observer capacity"):
            ShmPlane.create(4, -1)

    def test_slot_range_checks(self):
        plane = make_plane(servers=3, observers=2)
        try:
            with pytest.raises(SimulationError, match="bank"):
                plane.write_wall(plane.banks, 0, 1.0)
            with pytest.raises(SimulationError, match="server index"):
                plane.read_wall(0, 3)
            with pytest.raises(SimulationError, match="observer slot"):
                plane.write_observer(1, 2, 1.0)
        finally:
            plane.unlink()


class TestEncoding:
    def test_starts_nan_everywhere(self):
        plane = make_plane(servers=4, observers=2)
        try:
            for bank in range(plane.banks):
                assert all(plane.read_wall(bank, i) is None for i in range(4))
                assert all(
                    plane.read_observer(bank, s) is None for s in range(2)
                )
        finally:
            plane.unlink()

    def test_none_and_float_roundtrip(self):
        plane = make_plane(servers=4, observers=2)
        try:
            plane.write_wall(0, 1, 123.456)
            plane.write_wall(0, 2, 0.0)  # dark server, NOT a gap
            plane.write_wall(0, 3, None)  # crashed: trace gap
            assert plane.read_wall(0, 1) == 123.456
            assert plane.read_wall(0, 2) == 0.0
            assert plane.read_wall(0, 3) is None
            plane.write_observer(1, 0, math.pi)
            plane.write_observer(1, 1, None)
            assert plane.read_observer(1, 0) == math.pi
            assert plane.read_observer(1, 1) is None
        finally:
            plane.unlink()

    def test_banks_are_independent(self):
        plane = make_plane(servers=2, observers=1)
        try:
            plane.write_wall(0, 0, 1.0)
            plane.write_wall(1, 0, 2.0)
            assert plane.read_wall(0, 0) == 1.0
            assert plane.read_wall(1, 0) == 2.0
        finally:
            plane.unlink()

    def test_attach_sees_creator_writes(self):
        plane = make_plane(servers=3, observers=1)
        try:
            plane.write_wall(1, 2, 77.0)
            other = ShmPlane.attach(plane.name, 3, 1)
            try:
                assert other.read_wall(1, 2) == 77.0
                other.write_observer(0, 0, 5.5)
                assert plane.read_observer(0, 0) == 5.5
            finally:
                other.close()
        finally:
            plane.unlink()


class TestLifecycle:
    def test_close_is_idempotent_and_unlink_destroys(self):
        plane = make_plane()
        name = plane.name
        plane.close()
        plane.close()  # idempotent
        plane.unlink()
        plane.unlink()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_attached_unlink_does_not_destroy(self):
        plane = make_plane(servers=2, observers=1)
        try:
            other = ShmPlane.attach(plane.name, 2, 1)
            other.unlink()  # non-owner: close only
            assert plane.read_wall(0, 0) is None  # still mapped and alive
        finally:
            plane.unlink()


def _segment_name(sim):
    return sim._parallel.plane.name


class TestEngineIntegration:
    def test_double_buffer_reuse_across_coalesced_steps(self):
        # a long coalesced run recycles the banks far more times than
        # there are banks; the trace must still be bit-identical to serial
        serial = DatacenterSimulation(
            servers=8, rack_size=4, seed=7, sample_interval_s=30.0
        )
        serial.run(3600.0, coalesce=True)
        par = DatacenterSimulation(
            servers=8, rack_size=4, seed=7, sample_interval_s=30.0
        )
        par.run(3600.0, coalesce=True, parallel=2)
        try:
            assert par.metrics.samples > ShmPlane.banks
            assert tuple(serial.aggregate_trace.watts) == tuple(
                par.aggregate_trace.watts
            )
            assert tuple(serial.aggregate_trace.times) == tuple(
                par.aggregate_trace.times
            )
        finally:
            par.close()

    def test_segment_unlinked_on_normal_close(self):
        sim = DatacenterSimulation(servers=6, rack_size=3, seed=7)
        sim.run(5.0, parallel=2)
        name = _segment_name(sim)
        sim.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_segment_unlinked_after_worker_crash(self):
        sim = DatacenterSimulation(servers=6, rack_size=3, seed=7)
        sim.run(5.0, parallel=2)
        name = _segment_name(sim)
        sim._parallel.debug_crash_worker(0)
        with pytest.raises(SimulationError, match="died"):
            sim.run(60.0, parallel=2)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        sim.close()  # idempotent after the crash teardown

    def test_non_uniform_rack_sizes_map_slots_correctly(self):
        # 10 servers in racks of 4 → racks of 4, 4, and 2: global slot
        # indices are not shard-aligned, yet every server's trace matches
        serial = DatacenterSimulation(
            servers=10, rack_size=4, seed=7, sample_interval_s=1.0
        )
        serial.run(30.0)
        par = DatacenterSimulation(
            servers=10, rack_size=4, seed=7, sample_interval_s=1.0
        )
        par.run(30.0, parallel=3)
        try:
            for i in range(10):
                assert tuple(serial.server_traces[i].watts) == tuple(
                    par.server_traces[i].watts
                ), f"server {i} diverged"
        finally:
            par.close()
