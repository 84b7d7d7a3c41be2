"""Seeded benchmark inputs.

Everything the program under test receives is made here: the §4.2
association table and §4.2.2 query pool (fixed, ``spec.POOL_SEED``) and,
from ``--seed``, the query order, the open-loop schedules, the order of
the closed-loop publishes and the churn subscriptions.  The same
seed gives the same inputs bit for bit (see :func:`fingerprint`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import spec
from repro.workloads.workload import generate_twitter_workload

#: Operation kinds of a ``churn_swap`` schedule or mix.
PUB, SUB, UNSUB = 0, 1, 2


@dataclass
class Inputs:
    blocks: np.ndarray
    keys: np.ndarray
    #: Sorted tag lists of the query pool, as a publish sends them.
    query_tags: list[list[str]]
    query_blocks: np.ndarray
    #: Open-loop publishes of the traced run: send offset in seconds and
    #: query, each distinct.
    pub_times: np.ndarray
    pub_queries: np.ndarray
    #: Queries of the timed run's closed-loop publishes, sent in this
    #: order and round again.
    saturation_queries: np.ndarray
    #: Open-loop updates: send offset, kind, and the subscription of a
    #: subscribe.  An unsubscribe picks its target when it is sent.
    update_times: np.ndarray
    update_kinds: np.ndarray
    update_args: np.ndarray
    #: Kinds of the timed ``churn_swap`` run's closed-loop operations, in
    #: the order sent; the ``k``-th subscribe of the mix takes subscription
    #: ``k``, and an unsubscribe picks its target when it is sent.
    mix_kinds: np.ndarray
    sub_tags: list[list[str]]
    sub_blocks: np.ndarray
    #: Queries published after churn stops, for the exact check.
    final_queries: np.ndarray


def poisson_times(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrivals on ``[0, seconds)`` conditioned on their expected
    count: ``rate * seconds`` uniform offsets, sorted."""
    return np.sort(rng.uniform(0.0, seconds, int(round(rate * seconds))))


def make_inputs(
    workload: str, seed: int, seconds: float, num_users: int = spec.NUM_USERS
) -> Inputs:
    params = spec.WORKLOADS[workload]
    wl = generate_twitter_workload(num_users, seed=spec.POOL_SEED)
    queries = wl.queries(spec.QUERY_POOL, seed=spec.POOL_SEED + 1, extra_tags=spec.EXTRA_TAGS)
    rng = np.random.default_rng([seed, 1])
    # The seed orders the fixed query pool.
    order = rng.permutation(spec.QUERY_POOL)
    queries.tag_sets = [queries.tag_sets[i] for i in order]
    queries.blocks = queries.blocks[order]

    pub_times = poisson_times(rng, params.get("rate_qps", 0.0), seconds)
    if pub_times.size > spec.QUERY_POOL:
        raise ValueError(f"{pub_times.size} open-loop publishes, but {spec.QUERY_POOL} queries")
    sub_times = poisson_times(rng, params.get("sub_qps", 0.0), seconds)
    unsub_times = poisson_times(rng, params.get("unsub_qps", 0.0), seconds)
    update_times = np.concatenate([sub_times, unsub_times])
    update_kinds = np.concatenate(
        [np.full(sub_times.size, SUB, np.int8), np.full(unsub_times.size, UNSUB, np.int8)]
    )
    order = np.argsort(update_times, kind="stable")
    update_times, update_kinds = update_times[order], update_kinds[order]
    update_args = np.zeros(update_times.size, dtype=np.int64)
    update_args[update_kinds == SUB] = np.arange(sub_times.size)
    shares = params.get("mix", {})
    mix_kinds = rng.choice(
        np.array([PUB, SUB, UNSUB], dtype=np.int8),
        size=int(spec.MIX_MAX_OPS_PER_S * seconds) if shares else 0,
        p=[1.0 - shares.get("sub", 0.0) - shares.get("unsub", 0.0),
           shares.get("sub", 0.0), shares.get("unsub", 0.0)],
    )
    picks = rng.integers(
        0, wl.num_associations, max(sub_times.size, int(np.sum(mix_kinds == SUB)))
    )
    return Inputs(
        blocks=wl.blocks,
        keys=wl.keys.astype(np.int64),
        query_tags=[sorted(tags) for tags in queries.tag_sets],
        query_blocks=queries.blocks,
        pub_times=pub_times,
        pub_queries=rng.permutation(spec.QUERY_POOL)[: pub_times.size],
        saturation_queries=rng.permutation(spec.QUERY_POOL),
        update_times=update_times,
        update_kinds=update_kinds,
        update_args=update_args,
        mix_kinds=mix_kinds,
        sub_tags=[list(wl.interests.tag_sets[i]) for i in picks],
        sub_blocks=wl.blocks[picks],
        final_queries=rng.integers(0, spec.QUERY_POOL, params.get("final_publishes", 0)),
    )


def ladder_schedule(
    seed: int, rung: int, rate: float, seconds: float, num_queries: int
) -> tuple[np.ndarray, np.ndarray]:
    """Send offsets and queries of one rung of the ``firehose`` rate ladder."""
    rng = np.random.default_rng([seed, 2, rung])
    times = poisson_times(rng, rate, seconds)
    return times, rng.integers(0, num_queries, times.size)


def fingerprint(inp: Inputs) -> str:
    """SHA-256 over every input the program receives."""
    digest = hashlib.sha256()
    for array in (
        inp.blocks, inp.keys, inp.query_blocks, inp.pub_times, inp.pub_queries,
        inp.saturation_queries, inp.update_times, inp.update_kinds, inp.update_args,
        inp.mix_kinds, inp.sub_blocks, inp.final_queries,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    for tags in inp.query_tags + inp.sub_tags:
        digest.update("\x1f".join(tags).encode() + b"\x1e")
    return digest.hexdigest()
