"""Float accuracy of Equation (1) against an exact oracle.

Both forms of Equation (1) — six point queries over (LKST, LKLT) or four
over (LKS, LKLT) — difference prefix sums of the whole history: a point
query adds up every tuple with ``key < k`` the tree has seen by ``t``,
so the rounding error of an answer scales with that history, not with
the answer.  The bound checked here is stated on that scale: the error
against the exact (``Fraction``) answer stays within ``8 * eps`` times
the sum of ``|v|`` over every tuple with ``key < k2``.  The stream's
values span nine decades (1e-3 to 1e6), so small answers sit beside
large prefixes.  COUNT is a sum of ones and must be exact.
"""

import random
import sys
from fractions import Fraction

from repro.core.model import Interval, KeyRange
from repro.core.rta import RTAIndex
from repro.mvsbt.tree import MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager

EPS = sys.float_info.epsilon
KEY_SPACE = (1, 301)
BOUND = 8


def float_stream(seed, events=1500):
    """``(op, key, value, t)`` events; values log-uniform on [1e-3, 1e6]."""
    rng = random.Random(seed)
    alive = {}
    t = 1
    stream = []
    for _ in range(events):
        t += rng.randint(0, 2)
        key = rng.randrange(*KEY_SPACE)
        if key in alive:
            stream.append(("delete", key, alive.pop(key), t))
        else:
            alive[key] = 10 ** rng.uniform(-3, 6)
            stream.append(("insert", key, alive[key], t))
    return stream, t


def rectangles(seed, clock, count=150):
    rng = random.Random(seed)
    out = [(KEY_SPACE[0], KEY_SPACE[1], 1, clock + 1)]
    while len(out) < count:
        k1, k2 = sorted(rng.sample(range(KEY_SPACE[0], KEY_SPACE[1] + 1), 2))
        t1, t2 = sorted(rng.sample(range(1, clock + 2), 2))
        out.append((k1, k2, t1, t2))
    return out


def tuples_of(stream):
    """``(key, start, end, Fraction(value), |value|)`` per tuple."""
    open_at, done = {}, []
    for op, key, value, t in stream:
        if op == "insert":
            open_at[key] = (t, value)
        else:
            start, _ = open_at.pop(key)
            done.append((key, start, t, value))
    done += [(key, start, float("inf"), value)
             for key, (start, value) in open_at.items()]
    return [(key, start, end, Fraction(value), abs(value))
            for key, start, end, value in done]


def error_ratios(seed):
    """Per rectangle, ``|error| / (eps * sum |v| over key < k2)``, and the
    absolute errors, for one seeded stream (``EXPERIMENTS.md`` A21
    tabulates both over seeds 1-10)."""
    stream, clock = float_stream(seed)
    index = RTAIndex(BufferPool(InMemoryDiskManager(), capacity=4096),
                     MVSBTConfig(capacity=8), key_space=KEY_SPACE)
    for op, key, value, t in stream:
        if op == "insert":
            index.insert(key, value, t)
        else:
            index.delete(key, t)
    tuples = tuples_of(stream)
    ratios, errors = [], []
    for k1, k2, t1, t2 in rectangles(seed, clock):
        got = index.aggregate_all(KeyRange(k1, k2), Interval(t1, t2))
        hit = [(value, size) for key, start, end, value, size in tuples
               if k1 <= key < k2 and start < t2 and end > t1]
        assert got.count == len(hit)
        error = abs(Fraction(got.sum) - sum(v for v, _ in hit))
        scale = sum(size for key, *_, size in tuples if key < k2)
        errors.append(float(error))
        ratios.append(float(error / Fraction(EPS * scale)))
    return ratios, errors


def test_error_stays_within_eight_eps_of_the_history_below_k2():
    for seed in (1, 2, 3):
        ratios, _ = error_ratios(seed)
        assert max(ratios) <= BOUND, (seed, max(ratios))
