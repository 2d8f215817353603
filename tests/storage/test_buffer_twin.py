"""The pool's one-call-deep miss path against the path it replaced.

``ReferencePool`` keeps the former ``fetch → _admit → _evict_if_needed →
_pick_victim`` chain as the reference the collapsed path is held to: on a
seeded trace of fetches, allocations, pins, batch windows, frees and
flushes, both pools must evict the same victims in the same order and
count the same I/O, field for field — over the in-memory page map and
over a file that decodes every read alike.
"""

import random

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.disk import FileDiskManager, InMemoryDiskManager
from repro.storage.serialization import RecordCodec, register_codec

KIND = "twin-raw"
register_codec(KIND, RecordCodec(fmt="<q", to_tuple=lambda r: (r,),
                                 from_tuple=lambda t: t[0]))


class ReferencePool(BufferPool):
    """The miss path as it was before it was collapsed."""

    def fetch(self, page_id):
        self.stats.logical_reads += 1
        page = self._frames.get(page_id)
        if page is not None:
            self._frames.move_to_end(page_id)
            return page
        page = self.disk.read(page_id)
        self.stats.reads += 1
        self._maybe_clean[page_id] = None
        self._admit(page, keep=True)
        return page

    def allocate(self, capacity, kind="raw"):
        page = self.disk.allocate(capacity, kind)
        self.stats.allocations += 1
        page.dirty = True
        self._maybe_clean[page.page_id] = None
        self._admit(page)
        return page

    def flush_batch(self):
        written = 0
        for page in self._frames.values():
            if page.dirty:
                self.disk.write(page)
                self.stats.writes += 1
                page.dirty = False
                written += 1
        self._batch_deferred.clear()
        self._maybe_clean = dict.fromkeys(self._frames)
        self._evict_if_needed()
        return written

    def _admit(self, page, keep=False):
        self._frames[page.page_id] = page
        self._frames.move_to_end(page.page_id)
        self._evict_if_needed(keep=page.page_id if keep else None)

    def _evict_if_needed(self, keep=None):
        while len(self._frames) > self.capacity:
            victim_id = self._pick_victim(keep)
            if victim_id is None:
                self.stats.overcommit += 1
                return
            victim = self._frames.pop(victim_id)
            self._maybe_clean.pop(victim_id, None)
            if victim.dirty:
                self.disk.write(victim)
                self.stats.writes += 1
                victim.dirty = False

    def _pick_victim(self, keep=None):
        if not self._batch_depth:
            for pid in self._frames:
                if pid != keep and self._pins.get(pid, 0) == 0:
                    return pid
            return None
        kept_candidate = False
        try:
            while self._maybe_clean:
                pid = next(iter(self._maybe_clean))
                del self._maybe_clean[pid]
                if pid == keep:
                    kept_candidate = True
                    continue
                page = self._frames.get(pid)
                if page is None:
                    continue
                if self._pins.get(pid, 0) > 0:
                    continue
                if page.dirty:
                    if pid not in self._batch_deferred:
                        self._batch_deferred.add(pid)
                        self.stats.coalesced_writes += 1
                    continue
                return pid
            return None
        finally:
            if kept_candidate:
                self._maybe_clean[keep] = None


def trace(seed, steps=4000):
    """A seeded op stream; page choices are indexes into the live list so
    both pools resolve them to the same page ids."""
    rng = random.Random(seed)
    ops = []
    for _ in range(steps):
        ops.append((rng.choices(
            ["fetch", "dirty", "allocate", "pin", "unpin", "free", "flush",
             "begin", "end", "flush_batch"],
            [50, 14, 8, 7, 7, 3, 3, 3, 3, 2])[0], rng.random()))
    return ops


def replay(pool, ops):
    """Apply ``ops``; yields the pool's observable state after each."""
    live = [pool.allocate(4, KIND).page_id for _ in range(3)]
    pinned = []
    depth = 0
    for op, draw in ops:
        pick = live[int(draw * len(live))] if live else None
        if op == "fetch" and live:
            pool.fetch(pick)
        elif op == "dirty" and live:
            page = pool.fetch(pick)
            page.records.append(int(draw * 1000))
            del page.records[4:]
            page.mark_dirty()
        elif op == "allocate":
            live.append(pool.allocate(4, KIND).page_id)
        elif op == "pin" and live and pool.is_resident(pick):
            pool.pin(pick)
            pinned.append(pick)
        elif op == "unpin" and pinned:
            pool.unpin(pinned.pop(int(draw * len(pinned))))
        elif op == "free" and len(live) > 3 and pick not in pinned:
            pool.free(pick)
            live.remove(pick)
        elif op == "flush" and live:
            pool.flush(pick)
        elif op == "begin" and depth < 2:
            pool.begin_batch()
            depth += 1
        elif op == "end" and depth:
            pool.end_batch()
            depth -= 1
        elif op == "flush_batch" and depth:
            pool.flush_batch()
        yield pool.resident_page_ids, pool.stats.as_dict()
    while depth:
        pool.end_batch()
        depth -= 1
    for pid in pinned:
        pool.unpin(pid)
    pool.flush_all()
    yield pool.resident_page_ids, pool.stats.as_dict()


@pytest.mark.parametrize("locking", [False, True], ids=["bare", "locked"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_same_victims_and_same_iostats(seed, locking):
    ops = trace(seed)
    pools = [cls(InMemoryDiskManager(), capacity=5)
             for cls in (ReferencePool, BufferPool)]
    if locking:
        for pool in pools:
            pool.enable_locking()
    steps = zip(replay(pools[0], ops), replay(pools[1], ops))
    for step, (reference, collapsed) in enumerate(steps):
        assert collapsed == reference, (step, ops[min(step, len(ops) - 1)])
    stats = pools[1].stats
    assert stats.reads and stats.writes and stats.frees
    assert stats.coalesced_writes and stats.overcommit


def test_same_victims_on_a_file_disk(tmp_path):
    """Over a file every miss is a fresh decode, so a page re-read after
    its eviction is a new object: the twins still agree step for step."""
    ops = trace(4, steps=1500)
    pools = [cls(FileDiskManager(str(tmp_path / name), page_bytes=128,
                                 default_capacity=4), capacity=5)
             for name, cls in (("ref", ReferencePool), ("new", BufferPool))]
    for reference, collapsed in zip(replay(pools[0], ops),
                                    replay(pools[1], ops)):
        assert collapsed == reference
    stats = pools[1].stats
    assert stats.reads and stats.writes and stats.frees
