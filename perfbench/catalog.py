"""Seeded inputs of the benchmark: the rewriting-audit catalog and its
renamed duplicates.

The catalog is the optimizer case the decision procedures exist for: 24
candidate rewritings of one returns-audit view (literal orders, disjunct
orders and variable names permuted, so every pair among them is
equivalent and must sweep the whole search space), two deliberate
non-rewritings (a duplicated disjunct, which changes counts under bag
semantics, and a weaker filter) and a pinned ``sum``/``count`` pair that
only the dispatcher's normalization settles.  That is 28 queries and 378
matrix cells.

The recipe lives here, not in the repository's older benchmark scripts, so
editing those scripts cannot change this benchmark's inputs.  The workload
seed picks the variable names and the literal and disjunct orders; the
equivalence classes, and so the expected verdict of every cell, do not
depend on it.
"""

from __future__ import annotations

import random
from itertools import combinations

#: Variable names the renamings draw from.  All start with a lowercase
#: letter, which the Datalog parser reads as a variable.
_NAME_POOL = (
    "a b c d e f g h k m n p r s t u w x y z "
    "aa bb cc dd ee ff gg hh kk mm nn pp rr ss tt uu ww xx yy zz"
).split()


def _shuffled(rng: random.Random, items: list[str]) -> list[str]:
    rng.shuffle(items)
    return items


def audit_catalog(seed: int, suffix: str = "") -> dict[str, tuple[str, str]]:
    """``{name: (datalog text, equivalence class)}`` for the 28 members.
    Two members are equivalent exactly when they share a class.

    ``suffix`` is appended to every variable name, so one seed with
    different suffixes gives structurally fresh but canonically identical
    catalogs (the renamed duplicates a verdict store exists to serve).
    """
    rng = random.Random(seed)
    names = [name + suffix for name in rng.sample(_NAME_POOL, 15)]
    renamings = [(names[2 * i], names[2 * i + 1]) for i in range(6)]
    w, v, t = names[12:15]
    catalog: dict[str, tuple[str, str]] = {}
    index = 0
    for s, p in renamings:
        for premium_first in (True, False):
            for discontinued_first in (True, False):
                index += 1
                premium = [f"returns({s}, {p})", f"premium_store({s})"]
                discontinued = [f"returns({s}, {p})", f"discontinued({p})"]
                if not premium_first:
                    premium.reverse()
                if not discontinued_first:
                    discontinued.reverse()
                disjuncts = _shuffled(rng, [", ".join(premium), ", ".join(discontinued)])
                catalog[f"audit_{index:02d}"] = (
                    f"audit({s}, count()) :- {' ; '.join(disjuncts)}",
                    "audit",
                )
    s, p = renamings[0]
    premium = ", ".join(_shuffled(rng, [f"returns({s}, {p})", f"premium_store({s})"]))
    discontinued = ", ".join(_shuffled(rng, [f"returns({s}, {p})", f"discontinued({p})"]))
    catalog["audit_dup"] = (
        "audit({s}, count()) :- {d}".format(
            s=s, d=" ; ".join(_shuffled(rng, [premium, premium, discontinued]))
        ),
        "dup",
    )
    catalog["audit_keep"] = (
        "audit({s}, count()) :- {d}".format(
            s=s, d=" ; ".join(_shuffled(rng, [premium, f"returns({s}, {p})"]))
        ),
        "keep",
    )
    body = ", ".join(_shuffled(rng, [f"premium_store({t})", f"{w} = {v}", f"{v} = 1"]))
    catalog["unit_sum"] = (f"units(sum({w})) :- {body}", "units")
    catalog["unit_count"] = (f"units(count()) :- premium_store({t})", "units")
    return catalog


def expected_equivalent(catalog: dict[str, tuple[str, str]]) -> dict[tuple[str, str], bool]:
    """For every unordered cell ``(a, b)`` with ``a < b``: whether the two
    members are equivalent by construction."""
    return {
        (a, b): catalog[a][1] == catalog[b][1]
        for a, b in combinations(sorted(catalog), 2)
    }
