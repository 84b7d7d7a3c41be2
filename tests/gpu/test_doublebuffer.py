"""Tests for the §3.3.2 even/odd double-buffered transfer protocol."""

import numpy as np
import pytest

from repro.errors import CapacityError, DeviceError
from repro.gpu.device import Device
from repro.gpu.doublebuffer import LENGTH_SLOT_BYTES, DoubleBufferedResults
from repro.gpu.packing import pack_results, packed_size, unpack_results


@pytest.fixture
def device():
    dev = Device()
    yield dev
    dev.close()


def make_payload(n, offset=0):
    q = np.arange(n, dtype=np.uint8)
    s = (np.arange(n, dtype=np.uint32) + offset) * 10
    return pack_results(q, s), q, s


class TestProtocol:
    def test_first_push_delivers_nothing(self, device):
        db = DoubleBufferedResults(device, capacity_pairs=16)
        packed, _, _ = make_payload(3)
        assert db.push(packed, 3, meta="batch-0") is None
        assert db.pending_cycles == 1

    def test_second_push_delivers_first(self, device):
        db = DoubleBufferedResults(device, capacity_pairs=16)
        p0, q0, s0 = make_payload(3)
        p1, _, _ = make_payload(5, offset=100)
        db.push(p0, 3, meta="batch-0")
        delivered = db.push(p1, 5, meta="batch-1")
        assert delivered is not None
        assert delivered.meta == "batch-0"
        q, s = unpack_results(delivered.packed, delivered.num_pairs)
        np.testing.assert_array_equal(q, q0)
        np.testing.assert_array_equal(s, s0)

    def test_flush_delivers_trailing_cycle(self, device):
        db = DoubleBufferedResults(device, capacity_pairs=16)
        p0, _, _ = make_payload(2)
        p1, q1, s1 = make_payload(4, offset=7)
        db.push(p0, 2, meta=0)
        db.push(p1, 4, meta=1)
        last = db.flush()
        assert last.meta == 1
        q, s = unpack_results(last.packed, last.num_pairs)
        np.testing.assert_array_equal(q, q1)
        np.testing.assert_array_equal(s, s1)
        assert db.flush() is None

    def test_long_alternation_preserves_all_cycles(self, device):
        db = DoubleBufferedResults(device, capacity_pairs=64)
        delivered = []
        for cycle in range(20):
            packed, _, _ = make_payload(cycle % 7, offset=cycle)
            out = db.push(packed, cycle % 7, meta=cycle)
            if out is not None:
                delivered.append(out)
        tail = db.flush()
        delivered.append(tail)
        assert [d.meta for d in delivered] == list(range(20))
        for d in delivered:
            q, s = unpack_results(d.packed, d.num_pairs)
            _, eq, es = make_payload(d.meta % 7, offset=d.meta)
            np.testing.assert_array_equal(q, eq)
            np.testing.assert_array_equal(s, es)

    def test_empty_cycles_flow_through(self, device):
        db = DoubleBufferedResults(device, capacity_pairs=8)
        empty, _, _ = make_payload(0)
        db.push(empty, 0, meta="a")
        out = db.push(empty, 0, meta="b")
        assert out.meta == "a"
        assert out.num_pairs == 0


class TestTransferAccounting:
    def test_transfer_size_is_minimal(self, device):
        """Each copy-out moves header + exactly the known result size."""
        db = DoubleBufferedResults(device, capacity_pairs=1024)
        before = device.transfers.dtoh_bytes
        p0, _, _ = make_payload(3)
        p1, _, _ = make_payload(10)
        db.push(p0, 3, meta=0)
        db.push(p1, 10, meta=1)  # delivers cycle 0
        moved = device.transfers.dtoh_bytes - before
        assert moved == LENGTH_SLOT_BYTES + packed_size(3)

    def test_one_copy_op_per_delivered_cycle(self, device):
        db = DoubleBufferedResults(device, capacity_pairs=16)
        p, _, _ = make_payload(1)
        db.push(p, 1, meta=0)
        db.push(p, 1, meta=1)
        db.flush()
        assert device.transfers.dtoh_ops == 2


class TestCapacity:
    def test_grows_on_demand(self, device):
        db = DoubleBufferedResults(device, capacity_pairs=2)
        packed, q, s = make_payload(50)
        db.push(packed, 50, meta=0)
        out = db.flush()
        uq, us = unpack_results(out.packed, 50)
        np.testing.assert_array_equal(uq, q)
        np.testing.assert_array_equal(us, s)
        assert db.capacity_pairs >= 50

    def test_mismatched_payload_rejected(self, device):
        db = DoubleBufferedResults(device, capacity_pairs=8)
        packed, _, _ = make_payload(3)
        with pytest.raises(DeviceError):
            db.push(packed, 4, meta=0)

    def test_zero_capacity_rejected(self, device):
        with pytest.raises(DeviceError):
            DoubleBufferedResults(device, capacity_pairs=0)

    def test_free_releases_device_memory(self, device):
        db = DoubleBufferedResults(device, capacity_pairs=8)
        assert device.ledger.allocated_bytes > 0
        db.free()
        assert device.ledger.allocated_bytes == 0

    def test_failed_allocation_frees_the_even_buffer(self):
        # Room for the even buffer but not the odd one: the constructor
        # raises and leaves no device memory behind.
        one_buffer = LENGTH_SLOT_BYTES + packed_size(8)
        with Device(memory_capacity=one_buffer + 1) as dev:
            with pytest.raises(CapacityError):
                DoubleBufferedResults(dev, capacity_pairs=8)
            assert dev.ledger.allocated_bytes == 0
