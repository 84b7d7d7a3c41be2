"""Tests for the simulated device: memory, transfers, lifecycle."""

import numpy as np
import pytest

from repro.errors import CapacityError, DeviceError
from repro.gpu.device import Device
from repro.gpu.memory import MemoryLedger
from repro.gpu.timing import CostModel


@pytest.fixture
def device():
    dev = Device(device_id=0, memory_capacity=1 << 20)
    yield dev
    dev.close()


class TestMemoryLedger:
    def test_tracks_allocations(self):
        ledger = MemoryLedger(100)
        ledger.allocate(60)
        assert ledger.allocated_bytes == 60
        ledger.free(10)
        assert ledger.allocated_bytes == 50

    def test_capacity_enforced(self):
        ledger = MemoryLedger(100)
        ledger.allocate(80)
        with pytest.raises(CapacityError):
            ledger.allocate(30)

    def test_peak_tracked(self):
        ledger = MemoryLedger(100)
        ledger.allocate(70)
        ledger.free(50)
        ledger.allocate(10)
        assert ledger.peak_bytes == 70

    def test_over_free_rejected(self):
        ledger = MemoryLedger(100)
        ledger.allocate(10)
        with pytest.raises(DeviceError):
            ledger.free(20)

    def test_zero_capacity_rejected(self):
        with pytest.raises(DeviceError):
            MemoryLedger(0)


class TestBuffers:
    def test_htod_copies_and_charges(self, device):
        host = np.arange(16, dtype=np.uint64)
        buf = device.htod(host)
        np.testing.assert_array_equal(buf.array(), host)
        assert device.ledger.allocated_bytes == host.nbytes
        assert device.transfers.htod_bytes == host.nbytes
        assert device.clock.transfer_s > 0

    def test_htod_is_a_copy(self, device):
        host = np.zeros(4, dtype=np.uint64)
        buf = device.htod(host)
        host[0] = 99
        assert buf.array()[0] == 0

    def test_dtoh_roundtrip(self, device):
        host = np.arange(8, dtype=np.uint32)
        buf = device.htod(host)
        back = device.dtoh(buf)
        np.testing.assert_array_equal(back, host)
        assert device.transfers.dtoh_bytes == host.nbytes

    def test_dtoh_partial_accounting(self, device):
        buf = device.htod(np.zeros(100, dtype=np.uint8))
        device.dtoh(buf, nbytes=10)
        assert device.transfers.dtoh_bytes == 10

    def test_free_returns_memory(self, device):
        buf = device.htod(np.zeros(100, dtype=np.uint8))
        buf.free()
        assert device.ledger.allocated_bytes == 0

    def test_use_after_free(self, device):
        buf = device.htod(np.zeros(4, dtype=np.uint8))
        buf.free()
        with pytest.raises(DeviceError):
            buf.array()
        with pytest.raises(DeviceError):
            buf.free()

    def test_capacity_error_on_oversized(self, device):
        with pytest.raises(CapacityError):
            device.allocate((1 << 21,), np.uint8)

    def test_foreign_buffer_rejected(self, device):
        with Device(device_id=1) as other:
            buf = other.htod(np.zeros(4, dtype=np.uint8))
            with pytest.raises(DeviceError):
                device.dtoh(buf)


class TestStreamPool:
    def test_closed_device_rejects_work(self):
        dev = Device()
        dev.close()
        with pytest.raises(DeviceError):
            dev.htod(np.zeros(1, dtype=np.uint8))


class TestCostModel:
    def test_transfer_time_is_latency_plus_bandwidth(self):
        cost = CostModel(pcie_latency_s=1e-5, pcie_bandwidth_bytes_per_s=1e9)
        assert cost.transfer_time(1_000_000) == pytest.approx(1e-5 + 1e-3)

    def test_kernel_time_folds_threads_onto_lanes(self):
        cost = CostModel(parallel_lanes=100, subset_check_s=1e-9, kernel_launch_overhead_s=0)
        one_wave = cost.kernel_time(threads=100, checks_per_thread=10)
        two_waves = cost.kernel_time(threads=101, checks_per_thread=10)
        assert two_waves == pytest.approx(2 * one_wave)

    def test_launch_overhead_floor(self):
        cost = CostModel()
        assert cost.kernel_time(1, 0) >= cost.kernel_launch_overhead_s

    def test_clock_accumulates(self, device):
        device.clock.add_kernel(0.5)
        device.clock.add_atomic(0.25)
        assert device.clock.total_s == pytest.approx(0.75 + device.clock.transfer_s)

    def test_clock_reset(self, device):
        device.clock.add_kernel(1.0)
        device.clock.reset()
        assert device.clock.total_s == 0.0

    def test_clock_snapshot(self, device):
        device.clock.add_random_access(0.125)
        snap = device.clock.snapshot()
        assert snap["random_access_s"] == 0.125

    def test_clock_snapshot_launches_stay_integral(self, device):
        # Regression (PR 5): snapshot() used to coerce the launch count
        # to float, so JSON consumers saw "launches": 3.0 and the bench
        # schema check could not distinguish counters from durations.
        device.clock.add_kernel(1e-6)
        device.clock.add_kernel(1e-6)
        snap = device.clock.snapshot()
        assert snap["launches"] == 2
        assert isinstance(snap["launches"], int)
        assert not isinstance(snap["launches"], bool)
