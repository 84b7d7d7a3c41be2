"""Tests for FIFO streams: synchronous ops run in the caller's thread."""

import pytest

from repro.errors import StreamError
from repro.gpu.device import Device


@pytest.fixture
def device():
    dev = Device(num_streams=3)
    yield dev
    dev.close()


class TestFifoSemantics:
    def test_ops_run_in_order(self, device):
        """§3.3.2: operations within one stream execute in FIFO order."""
        stream = device.streams[0]
        order = []
        for i in range(50):
            stream.enqueue(lambda i=i: order.append(i))
        assert order == list(range(50))

    def test_wait_returns_result(self, device):
        assert device.streams[0].enqueue(lambda: 41 + 1) == 42

    def test_wait_reraises_device_error(self, device):
        def boom():
            raise RuntimeError("kernel fault")

        with pytest.raises(RuntimeError, match="kernel fault"):
            device.streams[0].enqueue(boom)

    def test_error_does_not_kill_stream(self, device):
        stream = device.streams[0]
        with pytest.raises(ZeroDivisionError):
            stream.enqueue(lambda: 1 / 0)
        assert stream.enqueue(lambda: "alive") == "alive"


class TestLifecycle:
    def test_enqueue_after_close(self, device):
        stream = device.streams[0]
        stream.close()
        with pytest.raises(StreamError):
            stream.enqueue(lambda: None)

    def test_double_close_is_noop(self, device):
        stream = device.streams[0]
        stream.close()
        stream.close()
        assert stream.closed
