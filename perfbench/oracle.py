"""Reference answers and reply checks.

Every reply is compared, as a multiset of keys, against
``LinearScanMatcher``: the brute-force scan over the association table.
:class:`ChurnOracle` follows the live subscriptions of ``churn_swap``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import spec
from repro.baselines.linear_scan import LinearScanMatcher
from repro.bloom.ops import containment_matrix


def reference_answers(blocks, keys, queries) -> list[np.ndarray]:
    """The sorted brute-force answer of every query row."""
    matcher = LinearScanMatcher()
    matcher.build(blocks, keys)
    return [np.sort(matcher.match_blocks(q)) for q in queries]


def multiset_error(got, want_sorted: np.ndarray) -> str | None:
    """``None`` when ``got`` is the multiset ``want_sorted``; else what differs."""
    got = np.sort(np.asarray(got, dtype=np.int64))
    if np.array_equal(got, want_sorted):
        return None
    diff = Counter(got.tolist())
    diff.subtract(want_sorted.tolist())
    extra = sorted(k for k, n in diff.items() if n > 0)
    missing = sorted(k for k, n in diff.items() if n < 0)
    return f"extra or duplicated keys {extra[:5]}, missing keys {missing[:5]}"


class ChurnOracle:
    """Follows ``churn_swap``'s acknowledged subscriptions and removals.

    Base keys (below ``CHURN_KEY_BASE``) never change, so they must be
    exact.  A churn key must belong to an acknowledged subscription whose
    signature is a subset of the query, and appear at most once.
    Unsubscribes target the oldest acknowledged subscription not yet
    targeted, and the oracle follows each reply's ``removed`` flag.
    """

    def __init__(self, base_answers, query_blocks, sub_blocks) -> None:
        self.base = base_answers
        self.query_blocks = query_blocks
        self.sub_blocks = sub_blocks
        self.acked: list[int] = []
        self._acked_set: set[int] = set()
        self._next_target = 0
        self.removed: set[int] = set()
        self.errors: list[str] = []

    def on_subscribed(self, sub: int) -> None:
        self.acked.append(sub)
        self._acked_set.add(sub)

    def unsubscribe_target(self) -> int | None:
        if self._next_target == len(self.acked):
            return None
        self._next_target += 1
        return self.acked[self._next_target - 1]

    def on_unsubscribed(self, sub: int, removed: bool) -> None:
        if removed:
            self.removed.add(sub)
        else:
            self.errors.append(f"unsubscribe of acknowledged subscription {sub} removed nothing")

    def check_publish(self, query: int, keys) -> str | None:
        keys = np.asarray(keys, dtype=np.int64)
        churn = keys >= spec.CHURN_KEY_BASE
        error = multiset_error(keys[~churn], self.base[query])
        if error:
            return f"base keys: {error}"
        subs = (keys[churn] - spec.CHURN_KEY_BASE).tolist()
        if len(set(subs)) != len(subs):
            return "duplicated churn key"
        for sub in subs:
            if sub not in self._acked_set:
                return f"key of unacknowledged subscription {sub}"
            if np.any(self.sub_blocks[sub] & ~self.query_blocks[query]):
                return f"key of subscription {sub}, not a subset of the query"
        return None

    def live(self) -> list[int]:
        return [sub for sub in self.acked if sub not in self.removed]

    def expected(self, queries) -> list[np.ndarray]:
        """Exact sorted answers once churn has stopped: base plus live subscriptions."""
        live = np.array(self.live(), dtype=np.int64)
        rows = self.query_blocks[queries]
        hits = (
            containment_matrix(self.sub_blocks[live], rows)
            if live.size
            else np.zeros((0, len(rows)), dtype=bool)
        )
        return [
            np.sort(np.concatenate([self.base[q], spec.CHURN_KEY_BASE + live[hits[:, i]]]))
            for i, q in enumerate(queries)
        ]
