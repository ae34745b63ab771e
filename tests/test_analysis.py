"""The static-analysis framework and the five repo invariant checkers.

Each rule is exercised on a minimal violating fixture (asserting the
finding's file *and* line) and a clean counterpart; suppressions are
round-tripped (honoured with a reason, reported without one, reported for
unknown rules); and the analyzer is run over the installed ``repro``
package itself, which must be clean — the same gate CI enforces via
``python -m repro.analysis``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    ALL_CHECKERS,
    Program,
    analyze_paths,
    default_root,
    main,
    run_checkers,
)
from repro.analysis.checkers import (
    CacheDisciplineChecker,
    EngineBoundaryChecker,
    ForkSafetyChecker,
    SeededRandomnessChecker,
    VerdictSoundnessChecker,
)


def findings_for(sources: dict[str, str], checker) -> list:
    return run_checkers(Program.from_sources(sources), [checker])


def locations(findings) -> list[tuple[str, int, str]]:
    return [(f.path, f.line, f.rule) for f in findings]


# ----------------------------------------------------------------------
# cache-discipline
# ----------------------------------------------------------------------
class TestCacheDiscipline:
    checker = CacheDisciplineChecker()

    def test_unregistered_cache_is_flagged_at_definition_line(self):
        findings = findings_for({"mod.py": "X = 1\n_CACHE = {}\n"}, self.checker)
        assert locations(findings) == [("mod.py", 2, "cache-discipline")]
        assert "_CACHE" in findings[0].message

    def test_registered_cache_is_clean(self):
        source = (
            "_CACHE = {}\n"
            'register_cache("mod.py:_CACHE", "clear_evaluation_caches", _CACHE.clear)\n'
        )
        assert findings_for({"mod.py": source}, self.checker) == []

    def test_exempted_cache_with_reason_is_clean(self):
        source = (
            "_TABLE = {}\n"
            "EXEMPT_CACHES = {\n"
            '    "mod.py:_TABLE": "frozen after import",\n'
            '    "mod.py:EXEMPT_CACHES": "the manifest itself",\n'
            "}\n"
        )
        assert findings_for({"mod.py": source}, self.checker) == []

    def test_annotated_exemption_manifest_is_recognised(self):
        source = (
            "_TABLE = {}\n"
            "EXEMPT_CACHES: dict[str, str] = {\n"
            '    "mod.py:_TABLE": "frozen after import",\n'
            '    "mod.py:EXEMPT_CACHES": "the manifest itself",\n'
            "}\n"
        )
        assert findings_for({"mod.py": source}, self.checker) == []

    def test_exemption_without_reason_is_flagged(self):
        source = (
            "_TABLE = {}\n"
            "EXEMPT_CACHES = {\n"
            '    "mod.py:_TABLE": "",\n'
            '    "mod.py:EXEMPT_CACHES": "the manifest itself",\n'
            "}\n"
        )
        findings = findings_for({"mod.py": source}, self.checker)
        assert locations(findings) == [("mod.py", 3, "cache-discipline")]
        assert "no reason" in findings[0].message

    def test_registered_and_exempted_conflict_is_flagged(self):
        source = (
            "_CACHE = {}\n"
            'register_cache("mod.py:_CACHE", "clear_evaluation_caches", _CACHE.clear)\n'
            "EXEMPT_CACHES = {\n"
            '    "mod.py:_CACHE": "also exempt",\n'
            '    "mod.py:EXEMPT_CACHES": "the manifest itself",\n'
            "}\n"
        )
        findings = findings_for({"mod.py": source}, self.checker)
        assert any("both registered and exempted" in f.message for f in findings)

    def test_stale_registration_is_flagged(self):
        source = 'register_cache("mod.py:_GONE", "clear_evaluation_caches", None)\n'
        findings = findings_for({"mod.py": source}, self.checker)
        assert locations(findings) == [("mod.py", 1, "cache-discipline")]
        assert "stale registration" in findings[0].message

    def test_store_layer_cache_idioms_are_clean(self):
        """The two idioms the verdict store introduced: an ``OrderedDict``
        LRU memo registered with its own ``.clear``, and a dict-shaped
        singleton slot whose clearer is a module function that also closes
        the held resource.  Both register under ``clear_service_caches``."""
        canon = (
            "_CANON_LRU = OrderedDict()\n"
            'register_cache("canon.py:_CANON_LRU", "clear_service_caches", _CANON_LRU.clear)\n'
        )
        disk = (
            "_SHARED_STORE = {}\n"
            "def reset_shared_store():\n"
            '    store = _SHARED_STORE.pop("store", None)\n'
            "    if store is not None:\n"
            "        store.close()\n"
            'register_cache("disk.py:_SHARED_STORE", "clear_service_caches", reset_shared_store)\n'
        )
        assert findings_for({"canon.py": canon, "disk.py": disk}, self.checker) == []

    def test_unregistered_store_layer_lru_is_flagged(self):
        findings = findings_for({"canon.py": "_CANON_LRU = OrderedDict()\n"}, self.checker)
        assert locations(findings) == [("canon.py", 1, "cache-discipline")]
        assert "_CANON_LRU" in findings[0].message

    def test_unregistered_weak_value_table_is_flagged(self):
        """A constructor reached through its module (``weakref.X()``) is a
        mutable container too — an intern table included."""
        source = "import weakref\n_TABLE = weakref.WeakValueDictionary()\n"
        findings = findings_for({"mod.py": source}, self.checker)
        assert locations(findings) == [("mod.py", 2, "cache-discipline")]
        assert "_TABLE" in findings[0].message

    def test_unregistered_module_qualified_ordered_dict_is_flagged(self):
        source = "import collections\n\n_LRU = collections.OrderedDict()\n"
        findings = findings_for({"mod.py": source}, self.checker)
        assert locations(findings) == [("mod.py", 3, "cache-discipline")]
        assert "_LRU" in findings[0].message

    def test_registered_weak_value_table_is_clean(self):
        source = (
            "import weakref\n"
            "_TABLE = weakref.WeakValueDictionary()\n"
            'register_cache("mod.py:_TABLE", "clear_evaluation_caches", _TABLE.clear)\n'
        )
        assert findings_for({"mod.py": source}, self.checker) == []

    def test_singleton_slot_registered_under_wrong_module_is_flagged(self):
        sources = {
            "disk.py": "_SHARED_STORE = {}\n",
            "other.py": (
                'register_cache("disk.py:_SHARED_STORE", "clear_service_caches", None)\n'
            ),
        }
        findings = findings_for(sources, self.checker)
        assert ("other.py", 1, "cache-discipline") in locations(findings)

    def test_registration_must_sit_in_the_defining_module(self):
        sources = {
            "a.py": "_CACHE = {}\n",
            "b.py": 'register_cache("a.py:_CACHE", "clear_evaluation_caches", None)\n',
        }
        findings = findings_for(sources, self.checker)
        assert ("b.py", 1, "cache-discipline") in locations(findings)
        assert any("module that defines it" in f.message for f in findings)

    def test_non_literal_key_is_flagged(self):
        source = (
            "_CACHE = {}\n"
            "KEY = 'mod.py:_CACHE'\n"
            'register_cache(KEY, "clear_evaluation_caches", _CACHE.clear)\n'
        )
        findings = findings_for({"mod.py": source}, self.checker)
        assert any("string literal" in f.message for f in findings)

    def test_dunder_all_is_auto_exempt(self):
        assert findings_for({"mod.py": '__all__ = ["x"]\n'}, self.checker) == []


# ----------------------------------------------------------------------
# seeded-randomness
# ----------------------------------------------------------------------
class TestSeededRandomness:
    checker = SeededRandomnessChecker()

    def test_global_draw_is_flagged(self):
        source = "import random\n\nx = random.random()\n"
        findings = findings_for({"mod.py": source}, self.checker)
        assert locations(findings) == [("mod.py", 3, "seeded-randomness")]

    def test_global_choice_and_shuffle_are_flagged(self):
        source = "import random\na = random.choice([1])\nrandom.shuffle([])\n"
        findings = findings_for({"mod.py": source}, self.checker)
        assert [f.line for f in findings] == [2, 3]

    def test_argless_random_constructor_is_flagged(self):
        source = "import random\nrng = random.Random()\n"
        findings = findings_for({"mod.py": source}, self.checker)
        assert locations(findings) == [("mod.py", 2, "seeded-randomness")]

    def test_from_import_of_a_draw_is_flagged(self):
        source = "from random import choice\n"
        findings = findings_for({"mod.py": source}, self.checker)
        assert locations(findings) == [("mod.py", 1, "seeded-randomness")]

    def test_seeded_rng_is_clean(self):
        source = (
            "import random\n"
            "rng = random.Random(7)\n"
            "x = rng.random()\n"
            "y = rng.choice([1, 2])\n"
            "klass = random.Random\n"
        )
        assert findings_for({"mod.py": source}, self.checker) == []


# ----------------------------------------------------------------------
# verdict-soundness
# ----------------------------------------------------------------------
class TestVerdictSoundness:
    checker = VerdictSoundnessChecker()

    def test_witnessless_refutation_is_flagged(self):
        source = "result = EquivalenceResult(Verdict.NOT_EQUIVALENT)\n"
        findings = findings_for({"mod.py": source}, self.checker)
        assert locations(findings) == [("mod.py", 1, "verdict-soundness")]

    def test_none_witness_is_still_flagged(self):
        source = "r = EquivalenceResult(Verdict.NOT_EQUIVALENT, counterexample=None)\n"
        findings = findings_for({"mod.py": source}, self.checker)
        assert len(findings) == 1

    def test_counterexample_witness_is_clean(self):
        source = "r = EquivalenceResult(Verdict.NOT_EQUIVALENT, counterexample=ce)\n"
        assert findings_for({"mod.py": source}, self.checker) == []

    def test_report_witness_is_clean(self):
        source = "r = EquivalenceResult(verdict=Verdict.NOT_EQUIVALENT, report=rep)\n"
        assert findings_for({"mod.py": source}, self.checker) == []

    def test_other_verdicts_are_clean(self):
        source = "r = EquivalenceResult(Verdict.EQUIVALENT)\n"
        assert findings_for({"mod.py": source}, self.checker) == []


# ----------------------------------------------------------------------
# fork-safety
# ----------------------------------------------------------------------
class TestForkSafety:
    checker = ForkSafetyChecker()

    def test_callable_field_is_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "\n"
            "@dataclass\n"
            "class EvilTask:\n"
            "    fn: Callable\n"
        )
        findings = findings_for({"tasks.py": source}, self.checker)
        assert locations(findings) == [("tasks.py", 6, "fork-safety")]
        assert "EvilTask.fn" in findings[0].message

    def test_lambda_default_is_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class LazyTask:\n"
            "    thunk: object = lambda: 1\n"
        )
        findings = findings_for({"tasks.py": source}, self.checker)
        assert locations(findings) == [("tasks.py", 5, "fork-safety")]

    def test_cache_default_is_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "\n"
            "_MEMO = {}\n"
            'register_cache("tasks.py:_MEMO", "clear_evaluation_caches", _MEMO.clear)\n'
            "\n"
            "@dataclass\n"
            "class ShippingTask:\n"
            "    payload: object = _MEMO\n"
        )
        findings = findings_for({"tasks.py": source}, self.checker)
        assert locations(findings) == [("tasks.py", 8, "fork-safety")]
        assert "_MEMO" in findings[0].message

    def test_plain_data_task_is_clean(self):
        source = (
            "from dataclasses import dataclass\n"
            "from typing import Optional\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class GoodTask:\n"
            "    index: int\n"
            "    names: tuple\n"
            "    engine: Optional[str] = None\n"
        )
        assert findings_for({"tasks.py": source}, self.checker) == []

    def test_non_task_dataclass_is_ignored(self):
        source = (
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "\n"
            "@dataclass\n"
            "class NotATaskHolder:\n"
            "    fn: Callable\n"
        )
        assert findings_for({"mod.py": source}, self.checker) == []


# ----------------------------------------------------------------------
# engine-boundary
# ----------------------------------------------------------------------
class TestEngineBoundary:
    checker = EngineBoundaryChecker()

    def test_driver_import_outside_engine_is_flagged(self):
        source = "from .engine.compile import compiled_evaluate_set\n"
        findings = findings_for({"core/decide.py": source}, self.checker)
        assert locations(findings) == [("core/decide.py", 1, "engine-boundary")]

    def test_driver_call_outside_engine_is_flagged(self):
        source = "import repro.engine.compile as c\nrows = c.compiled_evaluate_set(q, db)\n"
        findings = findings_for({"core/decide.py": source}, self.checker)
        assert ("core/decide.py", 2, "engine-boundary") in locations(findings)

    def test_driver_use_inside_engine_is_clean(self):
        source = "from .compile import compiled_evaluate_set\nrows = compiled_evaluate_set(q, db)\n"
        assert findings_for({"engine/dispatch.py": source}, self.checker) == []

    def test_naive_reference_outside_engine_is_flagged(self):
        # The oracle is for tests and benchmarks: production code that
        # evaluated through it would silently drop the compiled engine.
        source = "from ..engine import naive_evaluate\nrows = naive_evaluate(q, db)\n"
        findings = findings_for({"store/witness.py": source}, self.checker)
        assert locations(findings) == [
            ("store/witness.py", 1, "engine-boundary"),
            ("store/witness.py", 2, "engine-boundary"),
        ]

    def test_naive_reference_inside_engine_is_clean(self):
        # engine/ defines the reference and may fold over it.
        source = (
            "def naive_evaluate(query, database):\n"
            "    return naive_satisfying_assignments(query, database)\n"
        )
        assert findings_for({"engine/evaluator.py": source}, self.checker) == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    checker = SeededRandomnessChecker()

    def test_same_line_suppression_with_reason_is_honoured(self):
        source = (
            "import random\n"
            "x = random.random()  # repro: allow[seeded-randomness] -- fixture noise\n"
        )
        assert findings_for({"mod.py": source}, self.checker) == []

    def test_standalone_suppression_covers_the_next_line(self):
        source = (
            "import random\n"
            "# repro: allow[seeded-randomness] -- fixture noise\n"
            "x = random.random()\n"
        )
        assert findings_for({"mod.py": source}, self.checker) == []

    def test_suppression_without_reason_silences_nothing_and_is_reported(self):
        source = (
            "import random\n"
            "x = random.random()  # repro: allow[seeded-randomness]\n"
        )
        findings = findings_for({"mod.py": source}, self.checker)
        rules = sorted(f.rule for f in findings)
        assert rules == ["seeded-randomness", "suppression-hygiene"]

    def test_unknown_rule_suppression_is_reported(self):
        source = "x = 1  # repro: allow[no-such-rule] -- because\n"
        findings = findings_for({"mod.py": source}, self.checker)
        assert [f.rule for f in findings] == ["suppression-hygiene"]
        assert "no-such-rule" in findings[0].message

    def test_suppression_only_covers_its_own_rule(self):
        source = (
            "import random\n"
            "x = random.random()  # repro: allow[cache-discipline] -- wrong rule\n"
        )
        findings = run_checkers(
            Program.from_sources({"mod.py": source}),
            [SeededRandomnessChecker(), CacheDisciplineChecker()],
        )
        assert [f.rule for f in findings] == ["seeded-randomness"]

    def test_docstring_mentioning_the_syntax_is_not_a_suppression(self):
        source = '"""Suppress with ``# repro: allow[rule] -- reason``."""\nx = 1\n'
        assert findings_for({"mod.py": source}, self.checker) == []


# ----------------------------------------------------------------------
# the gate itself
# ----------------------------------------------------------------------
class TestSelfRun:
    def test_repro_package_is_clean(self):
        findings = analyze_paths([default_root()], ALL_CHECKERS)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_suppression_in_the_tree_carries_a_reason(self):
        program = Program.from_root(default_root())
        for module in program.modules:
            for suppression in module.suppressions:
                assert suppression.reason, (
                    f"{module.relpath}:{suppression.line} suppresses "
                    f"{suppression.rule} without a reason"
                )

    def test_cli_exits_zero_on_the_package(self, capsys):
        assert main([]) == 0

    def test_cli_exits_nonzero_on_a_violation(self, tmp_path: Path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "mod.py:2" in out and "[seeded-randomness]" in out

    def test_cli_single_file_and_rule_selection(self, tmp_path: Path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("_CACHE = {}\nimport random\nx = random.random()\n")
        assert main([str(bad), "--rule", "seeded-randomness"]) == 1
        out = capsys.readouterr().out
        assert "[seeded-randomness]" in out and "[cache-discipline]" not in out

    def test_cli_rejects_unknown_rule(self, tmp_path: Path):
        with pytest.raises(SystemExit):
            main([str(tmp_path), "--rule", "no-such-rule"])

    def test_list_rules_names_all_five(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for checker in ALL_CHECKERS:
            assert checker.name in out
