"""Index persistence: save and restore a consolidated engine.

Consolidation is the expensive offline step (Figure 8); a deployment
restarting a matcher should not pay it again.  A snapshot stores the
association table, the unique signatures, and the partition layout
(masks + row indices), so loading rebuilds the partition/tagset/key
tables directly — no re-partitioning, and bit-identical results.

The format is a single ``.npz`` archive of NumPy arrays; the engine
configuration travels alongside as a small JSON blob inside the archive.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.config import TagMatchConfig
from repro.errors import ValidationError

__all__ = ["save_snapshot", "load_snapshot", "SNAPSHOT_VERSION"]

SNAPSHOT_VERSION = 1

_CONFIG_FIELDS = (
    "width",
    "num_hashes",
    "seed",
    "max_partition_size",
    "batch_size",
    "batch_timeout_s",
    "num_gpus",
    "streams_per_gpu",
    "device_memory",
    "thread_block_size",
    "prefilter",
    "replication_factor",
    "exact_check",
    "pivot_strategy",
)


def _config_json(config: TagMatchConfig) -> str:
    payload = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    return json.dumps(payload)


def _config_from_json(raw: str) -> TagMatchConfig:
    """Rebuild the stored config, accepting snapshots of older releases.

    Those stored two kernel-plan options that are now fixed, the size
    of the deleted duplicate-query memo and the deleted pipeline thread
    count (all dropped here), and ``replicate_tagset_table``, whose
    ``False`` is a replication factor of one.  Any other unknown key is
    an error.
    """
    stored = json.loads(raw)
    for retired in (
        "fuse_partitions_below",
        "coarse_prefilter",
        "query_memo_size",
        "num_threads",
    ):
        stored.pop(retired, None)
    replicate = stored.pop("replicate_tagset_table", True)
    if replicate is False and stored.get("replication_factor") is None:
        stored["replication_factor"] = 1
    unknown = sorted(set(stored) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValidationError(f"unknown snapshot config keys: {unknown}")
    return TagMatchConfig(**stored)


def save_snapshot(engine, path: str) -> None:
    """Write a consolidated engine's index to ``path`` (.npz).

    Raises if the engine has not been consolidated or has staged,
    unconsolidated changes (a snapshot must capture a coherent index).
    """
    if engine.partition_table is None or engine._database is None:
        raise ValidationError("cannot snapshot an unconsolidated engine")
    if engine._staging.dirty:
        raise ValidationError(
            "staged changes present: consolidate() before saving a snapshot"
        )
    if engine.config.exact_check:
        raise ValidationError(
            "snapshots do not store original tag sets (exact_check engines "
            "cannot be snapshotted)"
        )
    partitioning = engine.last_consolidate.partitioning
    masks = (
        np.stack([p.mask for p in partitioning.partitions])
        if partitioning.partitions
        else np.empty((0, engine.hasher.num_blocks), dtype=np.uint64)
    )
    index_flat = (
        np.concatenate([p.indices for p in partitioning.partitions])
        if partitioning.partitions
        else np.empty(0, dtype=np.int64)
    )
    sizes = np.array([len(p) for p in partitioning.partitions], dtype=np.int64)
    np.savez_compressed(
        path,
        version=np.array([SNAPSHOT_VERSION]),
        config=np.frombuffer(_config_json(engine.config).encode(), dtype=np.uint8),
        db_blocks=engine._database.blocks,
        db_keys=engine._database.keys,
        partition_masks=masks,
        partition_indices=index_flat,
        partition_sizes=sizes,
    )


def load_snapshot(path: str, config: TagMatchConfig | None = None):
    """Rebuild an engine from a snapshot.

    ``config`` overrides the stored configuration (e.g. to load the same
    index on a different GPU topology); the Bloom geometry must match the
    stored one, because signatures are not re-encodable without tags.
    """
    from repro.core.engine import TagMatch  # local import: cycle guard

    with np.load(path) as archive:
        version = int(archive["version"][0])
        if version != SNAPSHOT_VERSION:
            raise ValidationError(f"unsupported snapshot version {version}")
        stored_config = _config_from_json(bytes(archive["config"]).decode())
        if config is None:
            config = stored_config
        elif (
            config.width != stored_config.width
            or config.num_hashes != stored_config.num_hashes
            or config.seed != stored_config.seed
        ):
            raise ValidationError(
                "Bloom geometry of the override config does not match the snapshot"
            )
        db_blocks = archive["db_blocks"]
        db_keys = archive["db_keys"]
        masks = archive["partition_masks"]
        index_flat = archive["partition_indices"]
        sizes = archive["partition_sizes"]

    bounds = np.concatenate(([0], np.cumsum(sizes)))
    layout = [
        (masks[i], index_flat[bounds[i] : bounds[i + 1]])
        for i in range(masks.shape[0])
    ]

    engine = TagMatch(config)
    engine._restore(db_blocks, db_keys, layout)
    return engine
