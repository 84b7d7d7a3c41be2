"""Online pub/sub serving layer over the TagMatch engine (§6 outlook).

The batch engine answers queries in-process; this package turns it into
a long-running matching *service*: a framed TCP protocol with
subscribe/unsubscribe/publish/stats verbs, admission control with
explicit ``OVERLOAD`` rejections, a work-conserving matcher whose
pipeline runs grow with load (no ingress timer), and a live-update path
(delta store + background reconsolidation with atomic epoch swaps) so
the index evolves while matching never stops.  See DESIGN.md §9.
"""

from repro.core.config import ServiceConfig
from repro.service.delta import DeltaStore, DeltaView, apply_delta
from repro.service.loadgen import LoadgenReport, run_loadgen
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import OverloadedError, ProtocolError, ServiceClient
from repro.service.server import MatchServer, serve_until_interrupted

__all__ = [
    "ServiceConfig",
    "DeltaStore",
    "DeltaView",
    "apply_delta",
    "LoadgenReport",
    "run_loadgen",
    "ServiceMetrics",
    "OverloadedError",
    "ProtocolError",
    "ServiceClient",
    "MatchServer",
    "serve_until_interrupted",
]
