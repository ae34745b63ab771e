"""Workload generators, the data-warehouse scenario, and batched evaluation
APIs used by examples, property-based tests, and the benchmark harness."""

from .batch import (
    SweepGroup,
    SweepPlan,
    decide_pairs,
    equivalence_matrix,
    evaluate_many,
    format_equivalence_matrix,
    plan_catalog_sweep,
)
from .generators import (
    QueryGenerator,
    QueryProfile,
    linear_chain_query,
    random_warehouse_database,
    renamed_copy,
)
from .scenarios import (
    WAREHOUSE_SCHEMA,
    WarehouseScenario,
    WarehouseViewScenario,
    build_view_scenario,
    build_warehouse,
    warehouse_views,
)

__all__ = [
    "QueryGenerator",
    "QueryProfile",
    "SweepGroup",
    "SweepPlan",
    "WAREHOUSE_SCHEMA",
    "WarehouseScenario",
    "WarehouseViewScenario",
    "build_view_scenario",
    "build_warehouse",
    "decide_pairs",
    "equivalence_matrix",
    "evaluate_many",
    "format_equivalence_matrix",
    "linear_chain_query",
    "plan_catalog_sweep",
    "random_warehouse_database",
    "renamed_copy",
    "warehouse_views",
]
