"""A5 — empirical check of Theorem 2 / Corollary 1.

Query ``O(log_b n)`` I/Os, update ``O(log_b K)`` I/Os, space
``O((n/b) log_b K)`` pages: the measured-over-bound ratios must stay
bounded as the dataset grows.
"""

from repro.bench.experiments import theorem2_bounds

#: Measured query I/O over ``3 * (log_b n + 1)``: at most one full
#: root-to-leaf path per pair descent on average.
RATIO_CEILING = 1.0


def test_measured_costs_track_the_bounds(benchmark, settings, record_table):
    table = benchmark.pedantic(
        lambda: theorem2_bounds(settings), rounds=1, iterations=1,
    )
    record_table("theorem2_bounds", table)

    for row in table.rows:
        # An RTA query is ~6 point queries; each O(log_b n) page touches.
        assert row["query_ios_per_q"] <= 6 * (row["log_b_n"] + 2) * 2, row
        # An update touches O(log_b K) pages (x2 trees, x constant for
        # splits and write-backs).
        assert row["update_ios_per_op"] <= 8 * (row["log_b_K"] + 2), row
        # Space stays within a constant factor of (n/b) log_b K.
        assert row["pages"] <= 16 * max(row["space_bound_pages"], 1), row

    # Per-query I/O grows (at most) logarithmically: measured over the
    # bound of three pair descents, 3 * (log_b n + 1) pages, stays under
    # RATIO_CEILING on every row.  A ratio of first and last row cannot
    # say this — the smallest tree answers in the three-read minimum.
    # Ratios at commit da49eae (b = 20, n = 1,993 / 3,984 / 9,964):
    # 0.283 / 0.557 / 0.565.
    for row in table.rows:
        ratio = row["query_ios_per_q"] / (3 * (row["log_b_n"] + 1))
        assert 0 < ratio <= RATIO_CEILING, (ratio, row)
