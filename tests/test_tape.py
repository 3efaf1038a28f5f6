"""Unit tests for what the serving plane's forward plans are compiled from
(repro.autograd.tape): thread-local tracing and the bounded plan cache.

The op table itself is covered where its two interpreters are — eager in
``test_autograd_*`` / ``test_fused_ops``, the forward-only plan in
``test_fused_ops`` / ``test_serving``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.autograd.tape import PlanCache, Tape, tracing


class TestTracing:
    def test_nested_tracing_rejected(self):
        with tracing(Tape()):
            with pytest.raises(RuntimeError):
                with tracing(Tape()):
                    pass  # pragma: no cover


class TestPlanCacheLRU:
    def test_eviction_order_and_counters(self):
        cache = PlanCache(max_plans=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: `b` becomes LRU
        cache.put("c", 3)  # evicts `b`
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert (cache.hits, cache.misses) == (3, 1)

    def test_put_refreshes_recency(self):
        cache = PlanCache(max_plans=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes `a`
        cache.put("c", 3)  # evicts `b`, not `a`
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            PlanCache(max_plans=0)

    def test_get_survives_a_concurrent_evicting_put(self):
        # Serving threads over one snapshot whose cache is smaller than the
        # number of batch shapes: one thread's put may evict the key another's
        # get has just found.  Unlocked, that get's recency bump raised
        # KeyError out of ModelSnapshot.predict.
        cache = PlanCache(max_plans=1)
        rounds, errors = 100_000, []

        def alternate(mine):
            try:
                for _ in range(rounds):
                    if cache.get(mine) is None:
                        cache.put(mine, mine)
            except BaseException as error:  # the regression; reported below
                errors.append(error)

        threads = [threading.Thread(target=alternate, args=(key,)) for key in "abc"]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Counters move under the same lock, so no update is lost: every miss
        # is followed by that thread's put, which evicts the one other entry.
        assert cache.hits + cache.misses == len(threads) * rounds
        assert cache.evictions == cache.misses - 1
        assert len(cache) == 1
