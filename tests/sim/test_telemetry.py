"""Sharded telemetry on the pipe replies: sampled rows and their
placement in global host order, and worker teardown (including after a
worker crash) with nothing left under ``/dev/shm``.
"""

import pytest

from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import SimulationError
from repro.sim.parallel import EPOCH_TICKS


class TestEngineIntegration:
    def test_double_buffer_reuse_across_coalesced_steps(self):
        # a long coalesced run returns many more sampled rows than an
        # epoch has ticks; the trace must still be bit-identical to serial
        serial = DatacenterSimulation(
            servers=8, rack_size=4, seed=7, sample_interval_s=30.0
        )
        serial.run(3600.0, coalesce=True)
        par = DatacenterSimulation(
            servers=8, rack_size=4, seed=7, sample_interval_s=30.0
        )
        par.run(3600.0, coalesce=True, parallel=2)
        try:
            assert par.metrics.samples > EPOCH_TICKS
            assert tuple(serial.aggregate_trace.watts) == tuple(
                par.aggregate_trace.watts
            )
            assert tuple(serial.aggregate_trace.times) == tuple(
                par.aggregate_trace.times
            )
        finally:
            par.close()

    def test_segment_unlinked_on_normal_close(self, dev_shm):
        before = dev_shm()
        sim = DatacenterSimulation(servers=6, rack_size=3, seed=7)
        sim.run(5.0, parallel=2)
        procs = list(sim._parallel.procs)
        assert dev_shm() == before
        sim.close()
        assert procs and not any(proc.is_alive() for proc in procs)
        assert dev_shm() == before

    def test_segment_unlinked_after_worker_crash(self, dev_shm):
        before = dev_shm()
        sim = DatacenterSimulation(servers=6, rack_size=3, seed=7)
        sim.run(5.0, parallel=2)
        procs = list(sim._parallel.procs)
        sim._parallel.debug_crash_worker(0)
        with pytest.raises(SimulationError, match="died"):
            sim.run(60.0, parallel=2)
        # the crash teardown stopped every worker and left nothing behind
        assert procs and not any(proc.is_alive() for proc in procs)
        assert dev_shm() == before
        sim.close()  # idempotent after the crash teardown

    def test_non_uniform_rack_sizes_map_slots_correctly(self):
        # 10 servers in racks of 4 → racks of 4, 4, and 2: each shard's
        # row lands at global host indices that are not shard-aligned,
        # yet every server's trace matches
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
