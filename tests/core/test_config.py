"""Tests for TagMatchConfig validation."""

import pytest

from repro.core.config import TagMatchConfig
from repro.errors import ValidationError


class TestDefaults:
    def test_paper_bloom_geometry(self):
        cfg = TagMatchConfig()
        assert cfg.width == 192
        assert cfg.num_hashes == 7

    def test_paper_stream_count(self):
        assert TagMatchConfig().streams_per_gpu == 10

    def test_frozen(self):
        cfg = TagMatchConfig()
        with pytest.raises(AttributeError):
            cfg.batch_size = 64


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("width", 100),
        ("width", 0),
        ("num_hashes", 0),
        ("max_partition_size", 0),
        ("batch_size", 0),
        ("batch_size", 257),
        ("batch_timeout_s", -1.0),
        ("num_gpus", 0),
        ("streams_per_gpu", 0),
        ("thread_block_size", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValidationError):
            TagMatchConfig(**{field: value})

    def test_none_timeout_allowed(self):
        assert TagMatchConfig(batch_timeout_s=None).batch_timeout_s is None

    def test_max_batch_size_allowed(self):
        assert TagMatchConfig(batch_size=256).batch_size == 256
