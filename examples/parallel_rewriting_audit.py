#!/usr/bin/env python3
"""A live optimizer session: auditing a warehouse catalog incrementally.

A rewriting optimizer holding a catalog of analyst queries does not see the
catalog once — queries keep arriving, and each arrival asks one question:
which existing formulations is the newcomer equivalent to?  The session API
(:class:`repro.Workspace`) is built for exactly that shape of traffic: the
Γ / signature caches and the worker pool persist across calls, and each
``equivalences()`` re-query decides only the *delta* cells (new query ×
catalog).  Verdicts stay deterministic: they never depend on worker
scheduling, and every cell is searched over its own pair BASE, so they never
depend on how the catalog was grown either.

Run with::

    python examples/parallel_rewriting_audit.py
"""

from repro import Workspace
from repro.workloads import build_warehouse, format_equivalence_matrix


def main() -> None:
    warehouse = build_warehouse(stores=3, products=4, sales_per_store=6, seed=11)

    with Workspace(workers=2, seed=7) as session:
        # --------------------------------------------------------------
        # 1. Seed the session with the standing catalog.
        # --------------------------------------------------------------
        for name in ("revenue_per_store", "revenue_per_store_alt", "largest_sale"):
            session.add(warehouse.queries[name], name=name)
        results = session.equivalences()
        print("standing catalog (workers=2, seeded):")
        print(format_equivalence_matrix(results))
        print()

        # --------------------------------------------------------------
        # 2. Two queries arrive mid-session — the ROADMAP's pinned-sum
        #    pair: sum over a variable pinned to 1 IS count.  Only the
        #    new cells are decided; the three old ones are served from
        #    the session.
        # --------------------------------------------------------------
        session.add("units(s, sum(u)) :- sales(s, p, a), u = 1", name="unit_sales")
        session.add("units(s, count()) :- sales(s, p, a)", name="sales_count")
        results = session.equivalences()
        print("after two arrivals (only the delta cells were decided):")
        print(format_equivalence_matrix(results))
        pinned = results[("sales_count", "unit_sales")]
        print()
        print(f"pinned-sum cell: {pinned.verdict.value} [{pinned.method}]")
        print()

        # --------------------------------------------------------------
        # 3. Session accounting: decided vs served, and the pool that
        #    was forked (at most) once for the whole session.
        # --------------------------------------------------------------
        stats = session.stats()
        total_cells = len(results)
        print(
            f"session stats: {stats.decided_cells} of {total_cells} cells decided "
            f"across 2 calls, {stats.pool_forks} pool fork(s), "
            f"{stats.workers} workers"
        )


if __name__ == "__main__":
    main()
