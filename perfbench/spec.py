"""What each benchmark workload pins, and what each metric means.

Only traffic-defining parameters live here: database size, query shape,
offered rates and churn mix.  Engine and service knobs stay at their
shipped defaults (``TagMatchConfig()`` / ``ServiceConfig()``), so a change
to a default is measured.  The only service settings overridden are
deployment ones: an ephemeral port and ``trace=False``.

``SHOULD_MOVE`` records, for every per-layer metric, the end-to-end metric
and workload it should move.  Names, units and directions of all metrics
are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

#: §4.2 Twitter workload size shared by all three workloads.
NUM_USERS = 20_000

#: Seed of the association table and the query pool.  They are the same
#: for every ``--seed``, so runs with different seeds measure the same
#: work; ``--seed`` draws the query order, the arrival times and the churn
#: subscriptions.
POOL_SEED = 0

#: §4.2.2 queries: one database set plus 2-4 popularity-skewed extras.
EXTRA_TAGS = (2, 4)

#: Size of the query pool every workload draws from.
QUERY_POOL = 4096

#: Keys of churn subscriptions start here, far above every user key, so a
#: reply's base part and churn part separate by value.
CHURN_KEY_BASE = 1 << 40

#: Set-ups per timed service run, index build up to the server listening;
#: ``setup_s`` is their median.  ``twitter_bulk`` times one index build
#: before its passes and one after each.
SETUPS = 11

#: A reply that has not arrived this long after the last scheduled send
#: is unanswered, and counts as failed.
GRACE_S = 10.0

#: Generator lateness (send time minus scheduled time, p99) above which a
#: service run is invalid: it would measure the generator, not the server.
GEN_LAG_BOUND_MS = 250.0

#: Timed service runs publish closed loop with this many publishes
#: outstanding, so the server sets the rate (``throughput_qps``).  It is
#: eight default ingress batches, so full batches queue behind the one
#: running, and within the default admission caps (``max_inflight`` 1024,
#: ``conn_inflight`` 256 on each of the ``CONNECTIONS``), so none is
#: refused.
SATURATION_WINDOW = 512

#: Connections of the service workloads' load generator.
CONNECTIONS = 2

#: The timed ``churn_swap`` run draws its operation mix for at most this
#: many operations per second of the run; later operations are publishes.
#: The server answered about 2000 operations per CPU second when this
#: was written.
MIX_MAX_OPS_PER_S = 10_000

#: Traced service runs publish open loop at the workload's ``rate_qps``.
#: Publishes due in the first ``WARMUP_S`` seconds warm the server up:
#: they are oracle-checked but not timed.
WARMUP_S = 1.0

#: Each process of the benchmark runs on one CPU, and throughput is work
#: per CPU second of the process doing it (``time.process_time``).  Time
#: the host gives other tenants (steal) and thread hand-offs between cores
#: then stay out of the figures, which wall time on a shared host does
#: not allow.  The engine (``twitter_bulk``'s, in the benchmark process,
#: or the server process) takes the last CPU the benchmark may use, the
#: load generator the first, so each has a core of its own when there are
#: two.  On a 2-core VM, over ten runs, the server's set-up seconds spread
#: 0.09-0.13 of their median on the first core and 0.04 on the second.
ENGINE_CPU = max(os.sched_getaffinity(0))
GENERATOR_CPU = min(os.sched_getaffinity(0))

WORKLOADS = {
    "twitter_bulk": {
        "loop": "closed: the whole query pool through match_stream, pass after pass",
        "warmup_queries": 512,
    },
    "firehose": {
        "loop": "publishes only; timed: closed, SATURATION_WINDOW outstanding; "
        "traced: open at rate_qps, then the rate ladder",
        #: Half the sustainable rate measured below (200/s), so the
        #: fixed-rate latency is that of a loaded, stable server.
        "rate_qps": 100.0,
        #: Doubling ladder of the traced run, from ``ladder_start_qps``
        #: until a rung fails (at most ``ladder_max_rungs``, 6400/s);
        #: ``sustainable_qps`` is the highest rung meeting ``p99_limit_ms``
        #: with no backlog growth (last reply within the limit of the last
        #: send).  Two traced runs of the engine as this benchmark was
        #: written, on a 2-core VM with the server on both cores, measured
        #: per rung p50 / p99 / drain in ms:
        #:   50/s   13 / 34 / 12       (other run: p99 40, drain 15)
        #:   100/s  19 / 76 / 13       (p99 46, drain 7)
        #:   200/s  146 / 230 / 134    (p99 136, drain 114)
        #:   400/s  1093 / 1787 / 1777 (p99 1698, drain 1699: backlog)
        #: so ``sustainable_qps`` was 200/s in both.  With the server on one
        #: core (``ENGINE_CPU``) a traced run measured 18 / 86 / 14,
        #: 22 / 218 / 20, 41 / 233 / 203 and 276 / 611 / 589: 200/s again.
        #: A one-publish ``match_stream`` (``pipeline.call_ms``) took 3-6 ms;
        #: the 50/s p50 adds the ingress deadline and thread wake-ups.  The
        #: 500 ms limit sits at least twice above every p99 below the knee
        #: and below the first backlogged rung, so a backlog fails the rung.
        "ladder_start_qps": 50.0,
        "ladder_max_rungs": 8,
        "ladder_rung_s": 2.5,
        "p99_limit_ms": 500.0,
    },
    "churn_swap": {
        "loop": "timed: closed, SATURATION_WINDOW outstanding, each operation "
        "drawn from mix; traced: as firehose's, plus open-loop subscribes and "
        "unsubscribes at sub_qps and unsub_qps for the whole run",
        #: Shares of the timed run's operations that subscribe and
        #: unsubscribe; the rest publish.  Net +0.24 subscriptions per
        #: operation crosses the default ``reconsolidate_threshold`` (512)
        #: every ~2100 operations, so there are several rebuilds in a run
        #: (a 20 s timed run of 30 000 operations made 5; the delta grows
        #: on during each rebuild) and the update and rebuild work per
        #: publish is fixed.
        "mix": {"sub": 0.3, "unsub": 0.06},
        "rate_qps": 100.0,
        #: Enough updates that the delta crosses the default
        #: ``reconsolidate_threshold`` (512) many times per run: net +320
        #: subscriptions/s is a crossing every 1.6 s, a dozen in a 20 s run,
        #: so the rebuilds in one run average over their phase.
        "sub_qps": 400.0,
        "unsub_qps": 80.0,
        "final_publishes": 256,
    },
}

END_TO_END = {
    "setup_s": "CPU seconds of the index build from the generated associations "
    "up to ready (service workloads: up to the server listening); median of the run's "
    "set-ups (SETUPS; twitter_bulk: one per pass); input generation excluded",
    "throughput_qps": "twitter_bulk: queries of closed-loop match_stream "
    "passes per CPU second of the pass (median pass); service workloads: "
    "publishes answered per CPU second of the server with SATURATION_WINDOW "
    "operations outstanding; one CPU per process (ENGINE_CPU, GENERATOR_CPU)",
    "output_keys_per_s": "keys returned per CPU second (Figure 3), in the same "
    "passes or publishes as throughput_qps",
    "index_mb": "memory_usage() host bytes + device bytes after setup, in MB",
}

#: per-layer metric -> the end-to-end metric and workload it should move.
SHOULD_MOVE = {
    "bloom.encode_us": "throughput_qps on firehose; pub_p99_ms",
    "pre_process.cpu_s": "throughput_qps on twitter_bulk",
    "pre_process.units_per_query": "throughput_qps on twitter_bulk",
    "pre_process.useful_ratio": "throughput_qps on twitter_bulk",
    "kernel.cpu_s": "throughput_qps on twitter_bulk; nothing on firehose",
    "kernel.launches": "throughput_qps on twitter_bulk; nothing on firehose",
    "kernel.pairs": "throughput_qps on twitter_bulk; nothing on firehose",
    "kernel.useful_ratio": "throughput_qps on twitter_bulk; nothing on firehose",
    "kernel.sim_s": "none in wall time (simulated; reported apart)",
    "transfer.bytes": "none in wall time (simulated; reported apart)",
    "transfer.sim_s": "none in wall time (simulated; reported apart)",
    "unpack.cpu_s": "output_keys_per_s on twitter_bulk",
    "lookup.cpu_s": "output_keys_per_s on twitter_bulk",
    "lookup.keys": "output_keys_per_s on twitter_bulk",
    "merge.cpu_s": "output_keys_per_s on twitter_bulk",
    "pipeline.call_ms": "pub_p99_ms and sustainable_qps on firehose",
    "pipeline.batch_ms": "throughput_qps on firehose",
    "pipeline.overhead_s": "throughput_qps on twitter_bulk",
    "replay.wall_s": "none (the serial replay's own wall time)",
    "replay.unattributed_s": "none (validity: under 10% of replay.wall_s)",
    "trace.overhead_ratio": "none (cost of the replay's own spans)",
    "ingress.occupancy": "pub_p99_ms on firehose",
    "ingress.timeout_share": "pub_p99_ms on firehose",
    "ingress.deadline_ms": "pub_p99_ms on firehose",
    "protocol.frame_us": "throughput_qps on firehose",
    "delta.overlay_ms": "throughput_qps on churn_swap; nothing on firehose",
    "delta.size_max": "throughput_qps and update_p99_ms on churn_swap",
    "delta.update_us": "update_p99_ms on churn_swap",
    "rebuild.s": "throughput_qps and pub_p99_ms on churn_swap",
    "rebuild.count": "throughput_qps and pub_p99_ms on churn_swap",
    "pub_p99_ms": "service end-to-end, traced run: p99 publish latency from its "
    "scheduled send time at rate_qps",
    "sustainable_qps": "service end-to-end, firehose only: the rate ladder",
    "update_p99_ms": "service end-to-end, churn_swap only: update ack latency",
    "error_rate": "end-to-end validity: 0 on every workload",
    "gen.lag_p99_ms": "none: a run past GEN_LAG_BOUND_MS is invalid",
    "gen.unanswered": "none: operations unanswered at run end count as failed",
}
