"""TagMatch core: the paper's primary contribution (§3).

The engine (:class:`TagMatch`) implements the Table 2 interface on top of
balanced partitioning (Algorithm 1), the partition-table pre-process
index (Algorithm 2), the GPU-resident tagset table, the host-side key
table, and the four-stage batched matching pipeline.
"""

from repro.core.batch import Batch, BatcherSet, PartitionBatcher
from repro.core.config import TagMatchConfig
from repro.core.engine import ConsolidateReport, MemoryUsage, TagMatch
from repro.core.key_table import KeyTable
from repro.core.partition_table import PartitionTable
from repro.core.partitioning import (
    Partition,
    PartitioningResult,
    balanced_partition,
)
from repro.core.pipeline import MatchPipeline, PipelineRun, PipelineStats
from repro.core.results import merge_keys
from repro.core.staging import ConsolidatedDatabase, StagingArea
from repro.core.tagset_table import PartitionResidency, TagsetTable

__all__ = [
    "Batch",
    "BatcherSet",
    "ConsolidateReport",
    "ConsolidatedDatabase",
    "KeyTable",
    "MatchPipeline",
    "MemoryUsage",
    "Partition",
    "PartitionBatcher",
    "PartitionResidency",
    "PartitionTable",
    "PartitioningResult",
    "PipelineRun",
    "PipelineStats",
    "StagingArea",
    "TagMatch",
    "TagMatchConfig",
    "TagsetTable",
    "balanced_partition",
    "merge_keys",
]
