"""Metamorphic tests for the MVSBT buffer-tree ingest path.

The contract under test: a buffered-ingest window (``begin_buffered`` /
``end_buffered``) is *observationally identical* to direct descent — the
same answers at every point inside the window (queries cross the drain
barrier), the same answers after it, and byte-identical on-disk page
images once the window closes.  Buffering may only change CPU cost and
write scheduling; logical I/O is deliberately lower (sealed-page
routing), so I/O counters are exactly what these tests do *not* compare.
"""

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConcurrentAccessError
from repro.mvsbt.tree import MVSBT, MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import FileDiskManager, InMemoryDiskManager
from repro.storage.serialization import encode_page_image

from tests.oracles import DominanceSumOracle, close_window, open_window

KEY_SPACE = (1, 200)
PAGE_BYTES = 4096


def build(capacity=6, pool_pages=4096, disk=None):
    pool = BufferPool(disk or InMemoryDiskManager(), capacity=pool_pages)
    return MVSBT(pool, MVSBTConfig(capacity=capacity, strong_factor=0.8),
                 key_space=KEY_SPACE)


def random_stream(seed, count=600):
    """Chronological (key, t, delta) updates over the shared key space."""
    rng = random.Random(seed)
    t, out = 1, []
    for _ in range(count):
        if rng.random() < 0.4:
            t += 1
        out.append((rng.randrange(*KEY_SPACE), t,
                    float(rng.choice([-3, -2, -1, 1, 2, 3]))))
    return out


def page_images(tree):
    """{page_id: on-disk bytes} — the strongest observable equality."""
    tree.pool.flush_all()
    return {pid: encode_page_image(tree.pool.fetch(pid), PAGE_BYTES)
            for pid in sorted(tree.page_ids())}


def probe_points(stream, rng_seed=4242, extra=24):
    """Probe grid: every touched (key, t) corner plus random points."""
    rng = random.Random(rng_seed)
    horizon = max(t for _, t, _ in stream) + 2
    points = {(key, t) for key, t, _ in stream[:: max(1, len(stream) // 40)]}
    points.update((rng.randrange(*KEY_SPACE), rng.randrange(1, horizon))
                  for _ in range(extra))
    return sorted(points)


class TestBufferedTwins:
    """Buffered vs direct twins fed the identical stream."""

    @pytest.mark.parametrize("capacity", [4, 6, 24])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_page_images_byte_identical(self, seed, capacity):
        stream = random_stream(seed)
        direct, buffered = build(capacity), build(capacity)
        for key, t, value in stream:
            direct.insert(key, t, value)
        open_window(buffered)
        for key, t, value in stream:
            buffered.insert(key, t, value)
        close_window(buffered)
        assert page_images(buffered) == page_images(direct)
        buffered.check_invariants()
        direct.check_invariants()

    def test_mid_window_queries_match_direct(self):
        stream = random_stream(11)
        direct, buffered = build(), build()
        open_window(buffered)
        probes = probe_points(stream)
        step = max(1, len(stream) // 8)
        for lo in range(0, len(stream), step):
            for key, t, value in stream[lo:lo + step]:
                direct.insert(key, t, value)
                buffered.insert(key, t, value)
            # The buffered tree answers through the drain barrier while
            # its window is still open; answers must already agree.
            for key, t in probes:
                assert buffered.query(key, t) == direct.query(key, t)
        close_window(buffered)
        for key, t in probes:
            assert buffered.query(key, t) == direct.query(key, t)

    def test_counters_and_structure_match(self):
        stream = random_stream(3, count=900)
        direct, buffered = build(capacity=5), build(capacity=5)
        for key, t, value in stream:
            direct.insert(key, t, value)
        open_window(buffered)
        for key, t, value in stream:
            buffered.insert(key, t, value)
        close_window(buffered)
        assert buffered.counters == direct.counters
        assert buffered.page_ids() == direct.page_ids()


class TestWindowLifecycle:
    def test_windows_do_not_nest(self):
        tree = build()
        open_window(tree)
        with pytest.raises(ValueError):
            tree.begin_buffered()
        close_window(tree)

    def test_window_needs_the_pools_batch_window(self):
        tree = build()
        with pytest.raises(ValueError, match="batch window"):
            tree.begin_buffered()
        tree.insert(5, 1, 1.0)  # no window was left half-open
        assert tree.query(5, 1) == 1.0

    def test_a_reader_thread_cannot_drain_the_writers_window(self):
        """The drain barrier mutates the tree; only the thread that
        opened the window may cross it.  A reader that overlapped the
        window is refused before it touches anything."""
        tree = build()
        window = open_window(tree)
        for key, t, value in random_stream(2, count=50):
            tree.insert(key, t, value)
        raised = []

        def reader():
            for ask in (lambda: tree.query(10, 3),
                        lambda: tree.query_pair(20, 10, 5)):
                try:
                    ask()
                except ConcurrentAccessError as exc:
                    raised.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(raised) == 2
        assert (window.drains, window.leaf_flushes) == (0, 0)
        tree.query(10, 3)  # the owner still reads through the barrier
        assert window.drains == 1
        close_window(tree)

    def test_end_without_begin_raises(self):
        with pytest.raises(ValueError):
            build().end_buffered()

    def test_window_reopens_after_close(self):
        tree = build()
        stream = random_stream(5, count=200)
        half = len(stream) // 2
        open_window(tree)
        for key, t, value in stream[:half]:
            tree.insert(key, t, value)
        close_window(tree)
        open_window(tree)
        for key, t, value in stream[half:]:
            tree.insert(key, t, value)
        close_window(tree)
        direct = build()
        for key, t, value in stream:
            direct.insert(key, t, value)
        assert page_images(tree) == page_images(direct)


class TestDurability:
    def test_save_mid_window_then_load(self, tmp_path):
        """A checkpoint taken inside an open window captures every update
        absorbed so far — pending leaf buffers land in the page images."""
        stream = random_stream(13, count=400)
        half = len(stream) // 2
        tree = build()
        open_window(tree)
        for key, t, value in stream[:half]:
            tree.insert(key, t, value)
        tree.save(str(tmp_path / "ck"))

        reopened = MVSBT.load(str(tmp_path / "ck"))
        direct_prefix = build()
        for key, t, value in stream[:half]:
            direct_prefix.insert(key, t, value)
        for key, t in probe_points(stream[:half]):
            assert reopened.query(key, t) == direct_prefix.query(key, t)
        reopened.check_invariants()

        # The original window is still open and keeps absorbing.
        for key, t, value in stream[half:]:
            tree.insert(key, t, value)
        close_window(tree)
        direct = build()
        for key, t, value in stream:
            direct.insert(key, t, value)
        assert page_images(tree) == page_images(direct)

    def test_file_disk_columnar_round_trip(self, tmp_path):
        """Historical pages stay columnar after the window; their disk
        images must decode back into plain record pages on a cold read."""
        stream = random_stream(17, count=500)
        disk = FileDiskManager(str(tmp_path / "pages.db"),
                               page_bytes=512, default_capacity=6)
        buffered = build(capacity=6, pool_pages=16, disk=disk)
        open_window(buffered)
        for key, t, value in stream:
            buffered.insert(key, t, value)
        close_window(buffered)
        buffered.pool.flush_all()
        buffered.pool.clear()  # every later read decodes from the file

        direct = build(capacity=6)
        for key, t, value in stream:
            direct.insert(key, t, value)
        for key, t in probe_points(stream):
            assert buffered.query(key, t) == direct.query(key, t)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0),
    ),
    min_size=1, max_size=120,
), st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1),
    st.integers(min_value=1, max_value=600))
def test_buffered_matches_oracle(stream, key, t):
    """Property: buffered ingest agrees with the dominance-sum oracle at
    arbitrary probe points, both mid-window and after the close."""
    pool = BufferPool(InMemoryDiskManager(), capacity=2048)
    tree = MVSBT(pool, MVSBTConfig(capacity=5, strong_factor=0.8),
                 key_space=(1, 120))
    oracle = DominanceSumOracle()
    open_window(tree)
    now = 1
    for k, dt, value in stream:
        now += dt
        tree.insert(k, now, float(value))
        oracle.insert(k, now, float(value))
    key = min(key, 119)
    assert tree.query(key, t) == pytest.approx(oracle.query(key, t))
    close_window(tree)
    assert tree.query(key, t) == pytest.approx(oracle.query(key, t))
    tree.check_invariants()
