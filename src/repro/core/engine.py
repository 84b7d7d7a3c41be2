"""The TagMatch engine: the public interface of Table 2.

``add-set``/``remove-set`` stage changes, ``consolidate`` rebuilds the
partitioned index (Algorithm 1) and uploads the tagset table to the
simulated GPUs, and ``match``/``match-unique`` answer subset queries
through the four-stage pipeline of :mod:`repro.core.pipeline`: a single
query is a one-row run, a stream of encoded queries is
:meth:`TagMatch.match_stream`.  The engine launches no kernel itself;
every path runs in the calling thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bloom.hashing import TagHasher
from repro.core.config import TagMatchConfig
from repro.core.key_table import KeyTable
from repro.core.partition_table import PartitionTable
from repro.core.partitioning import Partition, PartitioningResult, balanced_partition
from repro.core.pipeline import MatchPipeline, PipelineRun
from repro.core.runner import UnitRunner
from repro.core.staging import ConsolidatedDatabase, StagingArea
from repro.core.tagset_table import TagsetTable
from repro.errors import ConsolidationError, DeviceError, ValidationError
from repro.gpu.device import Device

__all__ = ["TagMatch", "ConsolidateReport", "MemoryUsage"]


@dataclass
class ConsolidateReport:
    """What one ``consolidate()`` call did (Figure 8 reports these)."""

    num_associations: int
    num_unique_sets: int
    partitioning: PartitioningResult
    elapsed_s: float


@dataclass
class MemoryUsage:
    """Host vs GPU memory breakdown (Figure 9)."""

    key_table_bytes: int
    partition_table_bytes: int
    database_bytes: int
    gpu_tagset_bytes: int
    gpu_total_bytes: int

    @property
    def host_bytes(self) -> int:
        return self.key_table_bytes + self.partition_table_bytes + self.database_bytes


class TagMatch:
    """Subset-matching engine over a hybrid CPU/(simulated) GPU system."""

    def __init__(self, config: TagMatchConfig | None = None) -> None:
        self.config = config if config is not None else TagMatchConfig()
        self.hasher = TagHasher(
            width=self.config.width,
            num_hashes=self.config.num_hashes,
            seed=self.config.seed,
        )
        self.devices = [
            Device(
                device_id=i,
                memory_capacity=self.config.device_memory,
                cost_model=self.config.cost_model,
            )
            for i in range(self.config.num_gpus)
        ]
        self._store_tags = self.config.exact_check
        self._staging = StagingArea(self.hasher, store_tags=self._store_tags)
        self._database: ConsolidatedDatabase | None = None
        #: ``exact_check`` engines: each association's original tag set,
        #: in key-table order (parallel to ``key_table.keys``).
        self._key_tags: list[frozenset[str]] | None = None
        self.key_table: KeyTable | None = None
        self.partition_table: PartitionTable | None = None
        self.tagset_table: TagsetTable | None = None
        #: The unit runner every kernel launch goes through (named
        #: ``backend`` for the serial replay in ``perfbench/replay.py``).
        self.backend: UnitRunner | None = None
        self.pipeline: MatchPipeline | None = None
        self.last_consolidate: ConsolidateReport | None = None
        #: Index generation: bumped on every consolidate()/snapshot
        #: restore.  The serving layer stamps results with the epoch that
        #: produced them, which is how reconsolidation swaps are observed
        #: without ever blocking readers.
        self.epoch = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Table 2: add-set / remove-set / consolidate
    # ------------------------------------------------------------------
    def add_set(self, tags, key: int) -> None:
        """Stage the addition of a tag set with an associated key."""
        self._staging.stage_add(tags, key)

    def add_signatures(self, blocks: np.ndarray, keys: np.ndarray) -> None:
        """Bulk fast path: stage pre-encoded signatures (benchmark loads)."""
        if self._store_tags:
            raise ValidationError(
                "bulk signature staging is incompatible with exact_check "
                "(original tag sets are required for the exact subset check)"
            )
        self._staging.stage_add_bulk(blocks, keys)

    def remove_set(self, tags, key: int) -> None:
        """Stage the removal of one (tag set, key) association."""
        self._staging.stage_remove(tags, key)

    def remove_signature(self, blocks, key: int) -> None:
        """Stage a removal by pre-encoded signature (delta tombstones)."""
        self._staging.stage_remove_signature(blocks, key)

    @classmethod
    def from_signatures(
        cls,
        blocks: np.ndarray,
        keys: np.ndarray,
        config: TagMatchConfig | None = None,
    ) -> "TagMatch":
        """Build and consolidate an engine from association arrays.

        This is the rebuild primitive of the serving layer: background
        reconsolidation folds (frozen database ∪ delta adds − tombstones)
        into a fresh engine off the hot path, then swaps it in.
        """
        engine = cls(config)
        if len(blocks):
            engine.add_signatures(blocks, keys)
        engine.consolidate()
        return engine

    def consolidate(self) -> ConsolidateReport:
        """Apply staged changes and rebuild the partitioned index."""
        start = time.perf_counter()
        self._database = self._staging.apply(self._database)
        blocks = self._database.blocks
        keys = self._database.keys

        unique_blocks, inverse = (
            np.unique(blocks, axis=0, return_inverse=True)
            if len(blocks)
            else (np.empty((0, self.hasher.num_blocks), dtype=np.uint64), np.empty(0, np.int64))
        )
        inverse = inverse.reshape(-1)
        self.key_table = KeyTable.from_grouped(inverse, keys, unique_blocks.shape[0])

        if self._store_tags:
            # The key table groups associations by a stable sort on their
            # set id; the same sort puts the tag sets in its order.
            tag_sets = self._database.tag_sets
            self._key_tags = [tag_sets[i] for i in np.argsort(inverse, kind="stable")]

        partitioning = balanced_partition(
            unique_blocks,
            self.config.max_partition_size,
            self.config.width,
            pivot_strategy=self.config.pivot_strategy,
        )
        self._build_tables(unique_blocks, partitioning.partitions)
        self.epoch += 1
        self._install_pipeline()
        self.last_consolidate = ConsolidateReport(
            num_associations=len(self._database),
            num_unique_sets=unique_blocks.shape[0],
            partitioning=partitioning,
            elapsed_s=time.perf_counter() - start,
        )
        return self.last_consolidate

    def _build_tables(self, unique_blocks: np.ndarray, partitions) -> None:
        """(Re)build the partition + tagset tables for a fresh index."""
        self.partition_table = PartitionTable(partitions, self.config.width)
        if self.tagset_table is not None:
            self.tagset_table.free()
        self.tagset_table = TagsetTable(
            unique_blocks,
            partitions,
            self.devices,
            self.config.width,
            thread_block_size=self.config.thread_block_size,
            replication_factor=self.config.replication_factor,
        )

    def _install_pipeline(self) -> None:
        """(Re)build the pipeline and its unit runner after an index rebuild."""
        self.pipeline = MatchPipeline(
            self.partition_table,
            self.tagset_table,
            self.key_table,
            self.config,
            epoch=self.epoch,
            key_tags=self._key_tags,
        )
        self.backend = self.pipeline.runner

    # ------------------------------------------------------------------
    # Snapshots (see repro.core.snapshot)
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the consolidated index to a ``.npz`` snapshot."""
        from repro.core.snapshot import save_snapshot

        save_snapshot(self, path)

    @classmethod
    def load(cls, path: str, config: TagMatchConfig | None = None) -> "TagMatch":
        """Rebuild an engine from a snapshot without re-partitioning."""
        from repro.core.snapshot import load_snapshot

        return load_snapshot(path, config=config)

    def _restore(self, db_blocks, db_keys, layout) -> None:
        """Install a snapshot: database + precomputed partition layout.

        ``layout`` lists each partition's ``(mask, row indices)``; the
        AND-of-rows summaries are recomputed from the restored rows.
        """
        start = time.perf_counter()
        self._database = ConsolidatedDatabase(db_blocks, db_keys)
        unique_blocks, inverse = (
            np.unique(db_blocks, axis=0, return_inverse=True)
            if len(db_blocks)
            else (
                np.empty((0, self.hasher.num_blocks), dtype=np.uint64),
                np.empty(0, np.int64),
            )
        )
        inverse = inverse.reshape(-1)
        self.key_table = KeyTable.from_grouped(
            inverse, db_keys, unique_blocks.shape[0]
        )
        partitions = [
            Partition.of_rows(mask, indices, unique_blocks) for mask, indices in layout
        ]
        partitioning = PartitioningResult(
            partitions=partitions, elapsed_s=0.0, num_sets=unique_blocks.shape[0]
        )
        self._build_tables(unique_blocks, partitions)
        self.epoch += 1
        self._install_pipeline()
        self.last_consolidate = ConsolidateReport(
            num_associations=len(self._database),
            num_unique_sets=unique_blocks.shape[0],
            partitioning=partitioning,
            elapsed_s=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    # Table 2: match / match-unique
    # ------------------------------------------------------------------
    def encode(self, tags) -> np.ndarray:
        """Encode a tag set into its query block vector."""
        return np.array(self.hasher.encode_set(tags), dtype=np.uint64)

    def encode_queries(self, tag_sets) -> np.ndarray:
        """Encode many query tag sets into an ``(n, blocks)`` array."""
        return self.hasher.encode_sets(list(tag_sets))

    def match(self, tags) -> np.ndarray:
        """All keys whose tag set is a subset of ``tags`` (multiset)."""
        return self._match_one(tags, unique=False)

    def match_unique(self, tags) -> np.ndarray:
        """Distinct keys with at least one indexed subset of ``tags``."""
        return self._match_one(tags, unique=True)

    def _match_one(self, tags, unique: bool) -> np.ndarray:
        """Match one query as a one-row pipeline run.

        ``exact_check`` engines pass the query's tags along, so the run's
        lookup drops the keys of Bloom false positives.
        """
        self._check_consolidated()
        tags = frozenset(tags)
        run = self.pipeline.run(
            self.encode(tags).reshape(1, -1),
            unique=unique,
            query_tags=[tags] if self._store_tags else None,
        )
        return run.results[0]

    def match_stream(
        self,
        query_blocks: np.ndarray,
        unique: bool = False,
        **pipeline_kwargs,
    ) -> PipelineRun:
        """High-throughput matching through the four-stage pipeline.

        Accepts the :meth:`MatchPipeline.run` keyword arguments
        (``batch_timeout_s``, ``arrival_rate_qps``).
        """
        self._check_encoded_ok("match_stream")
        assert self.pipeline is not None
        return self.pipeline.run(query_blocks, unique=unique, **pipeline_kwargs)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def database(self) -> ConsolidatedDatabase:
        """The consolidated association table (blocks/keys, read-only).

        The serving layer reads this to seed delta bookkeeping and to
        rebuild the index in the background; treat the arrays as frozen.
        """
        self._check_consolidated()
        assert self._database is not None
        return self._database

    def memory_usage(self) -> MemoryUsage:
        """Host/GPU memory breakdown of the consolidated index."""
        self._check_consolidated()
        db = self._database
        database_bytes = (db.blocks.nbytes + db.keys.nbytes) if db is not None else 0
        return MemoryUsage(
            key_table_bytes=self.key_table.nbytes,
            partition_table_bytes=self.partition_table.nbytes,
            database_bytes=database_bytes,
            gpu_tagset_bytes=self.tagset_table.gpu_bytes,
            gpu_total_bytes=sum(d.ledger.allocated_bytes for d in self.devices),
        )

    @property
    def num_unique_sets(self) -> int:
        self._check_consolidated()
        return self.tagset_table.num_sets

    @property
    def num_partitions(self) -> int:
        self._check_consolidated()
        return self.partition_table.num_partitions

    def _check_consolidated(self) -> None:
        if self._closed:
            # The coarse pre-filter can reject a query before any device
            # buffer is touched, so freed-buffer access alone cannot be
            # relied on to flag use-after-close.
            raise DeviceError("engine is closed")
        if self.partition_table is None:
            raise ConsolidationError(
                "index not built: call consolidate() after add_set/remove_set"
            )

    def _check_encoded_ok(self, api: str) -> None:
        """Refuse encoded-block matching on an ``exact_check`` engine.

        The exact check needs each query's original tags; encoded blocks
        have lost them, so answering would return the Bloom false
        positives that :meth:`match` filters out.
        """
        self._check_consolidated()
        if self._store_tags:
            raise ValidationError(
                f"{api} receives encoded blocks and cannot run exact_check; "
                "use match()/match_unique() on exact_check engines"
            )

    def close(self) -> None:
        """Free device memory and close the devices."""
        if self._closed:
            return
        self._closed = True
        if self.tagset_table is not None:
            self.tagset_table.free()
        for device in self.devices:
            device.close()

    def __enter__(self) -> "TagMatch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
