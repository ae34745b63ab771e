"""Experiment E1 — cost of the bounded-equivalence procedure (Theorem 4.8).

The paper's complexity discussion after Theorem 4.8 gives a double-exponential
upper bound in the term size: the procedure enumerates all subsets of BASE and
all complete orderings of T.  The benchmark measures the running time for
N = 0, 1, 2 on a fixed query pair, reports the sizes of the enumerated spaces,
and reports the work the symmetry reduction called out in DESIGN.md saves.
"""

from __future__ import annotations

import pytest

from repro import parse_query
from repro.core import bounded_equivalence, build_base
from repro.orderings import count_complete_orderings

FIRST = parse_query("q(count()) :- p(y), not r(y)")
SECOND = parse_query("q(count()) :- p(y)")


@pytest.mark.paper_artifact("Theorem 4.8 complexity discussion")
@pytest.mark.parametrize("bound", [0, 1, 2])
def test_bounded_equivalence_scaling_in_n(benchmark, bound, report_lines):
    report = benchmark.pedantic(
        bounded_equivalence, args=(FIRST, SECOND, bound), rounds=1, iterations=1
    )
    _, base, _ = build_base(FIRST, SECOND, bound)
    report_lines.append(
        f"[E1] N={bound}: |BASE|={len(base):2d}, subsets examined={report.subsets_examined:4d}, "
        f"orderings examined={report.orderings_examined:5d}, "
        f"equivalent={report.equivalent} (expected: non-equivalent for N>=1)"
    )
    if bound >= 1:
        assert not report.equivalent
    else:
        assert report.equivalent


@pytest.mark.paper_artifact("Theorem 4.8 complexity discussion")
@pytest.mark.parametrize("variables", [2, 3, 4])
def test_ordering_enumeration_grows_superexponentially(benchmark, variables, report_lines):
    """The number of complete orderings (ordered Bell numbers) is one of the
    two exponential factors of the procedure."""
    from repro.datalog import Variable
    from repro.orderings import enumerate_complete_orderings
    from repro.domains import Domain

    terms = [Variable(f"u{i}") for i in range(variables)]

    def enumerate_all():
        return sum(1 for _ in enumerate_complete_orderings(terms, Domain.RATIONALS))

    count = benchmark(enumerate_all)
    assert count == count_complete_orderings(variables)
    report_lines.append(f"[E1] complete orderings of {variables} variables: {count}")


@pytest.mark.paper_artifact("Symmetry reduction (DESIGN.md)")
def test_symmetry_reduction_work(benchmark, report_lines):
    """Orbit-canonical enumeration examines one subset per orbit; the rest of
    the ``2**|BASE|`` subsets are skipped as symmetry duplicates without
    being generated."""
    equivalent_first = parse_query("q(max(y)) :- p(y), not r(y)")
    equivalent_second = parse_query("q(max(y)) :- p(y), not r(y) ; p(y), not r(y)")

    def run():
        return bounded_equivalence(equivalent_first, equivalent_second, 2)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.equivalent
    _, base, _ = build_base(equivalent_first, equivalent_second, 2)
    examined, skipped = report.subsets_examined, report.subsets_skipped_by_symmetry
    assert examined + skipped == 2 ** len(base)
    assert skipped > 0
    report_lines.append(
        f"[E1 symmetry] |BASE|={len(base)}: subsets examined={examined}, "
        f"skipped={skipped} (of {2 ** len(base)})"
    )
