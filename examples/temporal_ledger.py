"""A temporal ledger on the full warehouse stack.

Uses :class:`~repro.core.warehouse.TemporalWarehouse` — the MVBT tuple
store plus the two-MVSBT aggregate index behind one facade — to run a bank
ledger: accounts open, change balance, and close over time.  Shows the
cost-based planner (explain), MIN/MAX via the retrieval path (the paper's
open problem (ii)), per-key history, and checkpoint/reopen.

Run:  python examples/temporal_ledger.py
"""

import tempfile

from repro.core.aggregates import MAX, MIN, SUM
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse


def main() -> None:
    ledger = TemporalWarehouse(key_space=(1, 100_000), page_capacity=16)

    # Day 1-5: accounts open.  Account numbers encode the branch
    # (thousands digit), so branch 3 is the key range [3000, 4000).
    ledger.insert(3001, 1_000.0, t=1)
    ledger.insert(3002, 2_500.0, t=1)
    ledger.insert(4001, 9_000.0, t=2)
    ledger.insert(3003, 400.0, t=3)
    ledger.insert(5001, 7_700.0, t=5)

    # Day 10: account 3001 changes balance; day 15: 3002 closes.
    ledger.update(3001, 1_800.0, t=10)
    ledger.delete(3002, t=15)

    branch3 = KeyRange(3000, 4000)
    month = Interval(1, 31)

    print("branch 3, days 1-30:")
    print(f"  accounts seen:   {ledger.count(branch3, month):.0f}")
    print(f"  balance-sum:     {ledger.sum(branch3, month):,.0f}")
    print(f"  largest balance: {ledger.max(branch3, month):,.0f}")
    print(f"  smallest:        {ledger.min(branch3, month):,.0f}")

    # EXPLAIN, inspected: additive aggregates always run Equation (1)
    # on the MVSBTs, whatever the rectangle's size; MIN/MAX retrieve.
    print("\nplans:")
    print("  SUM, branch 3, full month ->",
          ledger.explain(branch3, month, SUM))
    print("  SUM, one account, one day ->",
          ledger.explain(KeyRange(3001, 3002), Interval(4, 5), SUM))
    print("  MIN, branch 3, full month ->",
          ledger.explain(branch3, month, MIN))

    # Per-key history: the two versions of account 3001.
    print("\nhistory of account 3001:")
    for version in ledger.history(3001):
        print(f"  {version.interval}  balance={version.value:,.0f}")

    # Time travel: the branch as of day 12 versus day 20.
    print("\nsnapshot of branch 3 at day 12:",
          ledger.snapshot(branch3, 12))
    print("snapshot of branch 3 at day 20:",
          ledger.snapshot(branch3, 20))

    # Durability: checkpoint, reopen, keep going.
    with tempfile.TemporaryDirectory() as directory:
        ledger.save(directory)
        reopened = TemporalWarehouse.load(directory)
        assert reopened.sum(branch3, month) == ledger.sum(branch3, month)
        reopened.insert(3004, 50.0, t=40)
        print("\nreopened from checkpoint; branch 3 sum over [1, 50):",
              f"{reopened.sum(branch3, Interval(1, 50)):,.0f}")


if __name__ == "__main__":
    main()
