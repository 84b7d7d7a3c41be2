"""The paper's headline application: a Twitter-scale tweet dispatcher.

Users follow topics (tag sets) and publishers; every incoming tweet must
be delivered to exactly the users whose interests are a subset of its
hashtags — the `Users.prefs ⊆ Tweets.keywords` join of §2.  The paper's
claim: a single commodity machine with two GPUs sustains several times
Twitter's average 2015 traffic of 6,000 tweets/s with this filtering.

This example generates the §4.2 workload at a configurable scale, loads
it into TagMatch, and replays a tweet stream at the (scaled) Twitter
rate, reporting throughput headroom and delivery latency.

Run with::

    python examples/twitter_firehose.py [num_users]
"""

import sys

import numpy as np

from repro import TagMatch, TagMatchConfig
from repro.harness.runner import latency_percentiles
from repro.workloads import (
    PAPER_TWITTER_RATE_QPS,
    PAPER_USERS,
    generate_twitter_workload,
)


def main(num_users: int = 50_000) -> None:
    print(f"generating workload for {num_users} users ...")
    workload = generate_twitter_workload(num_users=num_users, seed=7)
    print(f"  {workload.num_associations} interests, "
          f"{workload.num_unique_sets} unique sets, "
          f"{workload.interests.mean_tags():.1f} tags/interest")

    config = TagMatchConfig(
        max_partition_size=max(200, workload.num_unique_sets // 256),
        batch_size=256,
        num_gpus=2,
        batch_timeout_s=0.02,
    )
    with TagMatch(config) as engine:
        engine.add_signatures(workload.blocks, workload.keys)
        report = engine.consolidate()
        print(f"consolidated in {report.elapsed_s:.1f}s "
              f"({report.partitioning.num_partitions} partitions)")

        # Saturation probe: how fast can this box go?
        tweets = workload.queries(4096, seed=8)
        probe = engine.match_stream(tweets.blocks, unique=True)
        print(f"max throughput: {probe.throughput_qps:.0f} tweets/s, "
              f"avg fan-out {probe.output_keys / probe.num_queries:.1f} users/tweet")

        # Replay at Twitter's average rate, scaled like the database.
        twitter_rate = PAPER_TWITTER_RATE_QPS * num_users / PAPER_USERS
        rate = max(100.0, twitter_rate)
        n = min(4096, int(rate * 4))
        run = engine.match_stream(
            tweets.blocks[:n], unique=True, arrival_rate_qps=rate
        )
        pct = latency_percentiles(run.latencies_s)
        print(f"replay at {rate:.0f} tweets/s (scaled Twitter firehose):")
        print(f"  delivered {run.num_queries} tweets to "
              f"{run.output_keys} user inboxes")
        print(f"  latency p50={pct['p50_ms']:.1f}ms p99={pct['p99_ms']:.1f}ms "
              f"max={pct['max_ms']:.1f}ms")
        headroom = probe.throughput_qps / rate
        print(f"  headroom over the firehose: {headroom:.1f}x"
              + (" — comfortably above Twitter traffic" if headroom > 1 else ""))

        # Spot-check one delivery end to end.
        tweet = tweets.tag_sets[0]
        inbox = engine.match_unique(tweet)
        sample_tags = sorted(tweet)[:4]
        print(f"sample tweet {sample_tags}... reaches {inbox.size} users")
        assert np.array_equal(np.sort(run.results[0]), inbox)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 50_000)
