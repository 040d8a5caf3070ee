"""The shared obs primitives: the callback fan-out and the cursor ring."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs.primitives import CursorRing, Fanout


def _ring(capacity: int, appended: int) -> CursorRing[str]:
    ring: CursorRing[str] = CursorRing(capacity)
    for _ in range(appended):
        ring.append(lambda seq: f"e{seq}")
    return ring


def _even(item: str) -> bool:
    return int(item[1:]) % 2 == 0


# (case, capacity, appended, cursor, limit, keep, items, next_cursor, gap)
READ_CASES = [
    ("empty ring", 4, 0, 0, 10, None, [], 0, 0),
    ("empty ring keeps a later cursor", 4, 0, 7, 10, None, [], 7, 0),
    ("first poll reads everything", 8, 5, 0, 10, None,
     ["e1", "e2", "e3", "e4", "e5"], 5, 0),
    ("caught-up cursor", 8, 5, 5, 10, None, [], 5, 0),
    ("cursor ahead of the ring", 8, 5, 9, 10, None, [], 9, 0),
    ("cursor in the middle", 8, 5, 3, 10, None, ["e4", "e5"], 5, 0),
    ("cursor older than the oldest item reports a gap", 3, 6, 1, 10, None,
     ["e4", "e5", "e6"], 6, 2),
    ("first poll after eviction", 3, 6, 0, 10, None,
     ["e4", "e5", "e6"], 6, 3),
    ("filter rejecting every item still advances the cursor", 8, 5, 0, 10,
     lambda item: False, [], 5, 0),
    ("filter keeps some items", 8, 5, 0, 10, _even, ["e2", "e4"], 5, 0),
    ("limit cuts a page", 8, 5, 0, 2, None, ["e1", "e2"], 2, 0),
    ("limit counts kept items, cursor stops at the last one", 8, 5, 0, 1,
     _even, ["e2"], 2, 0),
    ("limit of zero", 8, 5, 1, 0, None, [], 1, 0),
    ("negative limit", 8, 5, 1, -3, None, [], 1, 0),
]


class TestCursorRing:
    @pytest.mark.parametrize(
        "capacity, appended, cursor, limit, keep, items, next_cursor, gap",
        [case[1:] for case in READ_CASES],
        ids=[case[0] for case in READ_CASES],
    )
    def test_read(
        self, capacity, appended, cursor, limit, keep, items, next_cursor, gap
    ):
        ring = _ring(capacity, appended)
        assert ring.read(cursor, limit, keep) == (items, next_cursor, gap)

    def test_append_numbers_items_and_returns_them(self):
        ring: CursorRing[tuple[int, str]] = CursorRing(2)
        assert ring.append(lambda seq: (seq, "a")) == (1, "a")
        assert ring.append(lambda seq: (seq, "b")) == (2, "b")
        assert ring.seq == 2

    def test_paging_reaches_every_item_once(self):
        ring = _ring(16, 7)
        seen, cursor = [], 0
        while True:
            items, cursor, gap = ring.read(cursor, 3)
            assert gap == 0
            if not items:
                break
            seen += items
        assert seen == [f"e{i}" for i in range(1, 8)]


class TestFanout:
    def test_calls_in_order_and_skips_a_raising_callback(self):
        fanout, calls = Fanout(), []

        def broken(*args):
            raise RuntimeError("observer bug")

        fanout.add(lambda *args: calls.append(("first", args)))
        fanout.add(broken)
        fanout.add(lambda *args: calls.append(("last", args)))
        fanout(1, "x")
        assert calls == [("first", (1, "x")), ("last", (1, "x"))]

    def test_remove_takes_out_only_its_own_callback_and_is_idempotent(self):
        fanout, calls = Fanout(), []
        fanout.add(lambda: calls.append("kept"))
        remove = fanout.add(lambda: calls.append("removed"))
        remove()
        remove()
        fanout()
        assert calls == ["kept"]

    def test_callback_may_remove_itself_while_running(self):
        fanout, calls = Fanout(), []

        def once():
            calls.append("once")
            remove()

        remove = fanout.add(once)
        fanout()
        fanout()
        assert calls == ["once"]

    def test_concurrent_add_remove_and_calls_lose_nothing(self):
        """More threads than cores add, call and remove at once: every
        call reaches the stable callback, and no add or remove is lost."""
        fanout, stable_calls = Fanout(), []
        stable = stable_calls.append
        fanout.add(stable)
        rounds, n_threads = 300, 8

        def worker(idx: int) -> None:
            for i in range(rounds):
                remove = fanout.add(lambda *args: None)
                fanout((idx, i))
                remove()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive(), "worker deadlocked"
        finally:
            sys.setswitchinterval(old_interval)
        assert fanout.fns == (stable,)
        assert len(stable_calls) == rounds * n_threads
