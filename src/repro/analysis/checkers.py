"""The repo-specific invariant checkers.

Each checker machine-checks one convention the test suite only samples:

* ``cache-discipline`` — every module-level mutable container is either
  registered with the cache registry (:mod:`repro.caches`) so a public clear
  entry resets it, or exempted with a reason in ``EXEMPT_CACHES``.
* ``seeded-randomness`` — no draws from the process-global ``random`` module
  and no argless ``Random()``: randomized searches must flow an explicit
  seed into a private ``random.Random(seed)``.
* ``verdict-soundness`` — a directly constructed NOT_EQUIVALENT
  :class:`~repro.core.equivalence.EquivalenceResult` must carry a
  ``counterexample=`` or ``report=`` argument (the PR 1 soundness contract:
  never a witness-less refutation).
* ``fork-safety`` — parallel task dataclasses must be picklable by
  construction: no callable/handle-typed fields, no lambda defaults, no
  field defaults referencing module-level caches.
* ``engine-threading`` — evaluation entry points outside ``engine/`` never
  touch a backend driver directly and never hard-code an engine mode
  string; the mode is threaded (``engine=`` / task field) or read from
  ``active_engine()``.

All checks are syntactic (AST-level).  They catch the construction patterns
the repo actually uses; code determined to evade them can (dataflow through
aliases, ``getattr`` tricks) — the gate is for honest mistakes, not
adversaries.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from .framework import Checker, Finding, Program, SourceModule

# ----------------------------------------------------------------------
# Shared discovery helpers
# ----------------------------------------------------------------------
#: Constructor names whose module-level call produces a mutable container,
#: called bare (``OrderedDict()``) or through a module (``weakref.WeakSet()``).
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "dict", "list", "set", "bytearray", "defaultdict", "Counter", "OrderedDict", "deque",
        "WeakValueDictionary", "WeakKeyDictionary", "WeakSet",
    }
)

#: Module-level names that are mutable containers by Python convention and
#: never caches (``__all__`` is a list by idiom).
_AUTO_EXEMPT_NAMES = frozenset({"__all__"})


def _is_mutable_container(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return isinstance(value, ast.Call) and _call_name(value.func) in _MUTABLE_CONSTRUCTORS


def module_level_mutable_containers(module: SourceModule) -> Iterator[tuple[str, int]]:
    """``(name, line)`` for every module-level mutable-container assignment."""
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value: Optional[ast.expr] = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target]
            value = node.value
        else:
            continue
        if value is None or not _is_mutable_container(value):
            continue
        for target in targets:
            if target.id not in _AUTO_EXEMPT_NAMES:
                yield target.id, node.lineno


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# ----------------------------------------------------------------------
# cache-discipline
# ----------------------------------------------------------------------
class CacheDisciplineChecker(Checker):
    name = "cache-discipline"
    description = (
        "module-level mutable containers must be registered with "
        "repro.caches.register_cache or exempted in EXEMPT_CACHES with a reason"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        findings: list[Finding] = []
        discovered: dict[str, tuple[SourceModule, int]] = {}
        for module in program.modules:
            for cache_name, line in module_level_mutable_containers(module):
                discovered[f"{module.relpath}:{cache_name}"] = (module, line)

        registered: dict[str, tuple[SourceModule, int]] = {}
        for module in program.modules:
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Call) and _call_name(node.func) == "register_cache"):
                    continue
                key_node = node.args[0] if node.args else None
                if not (isinstance(key_node, ast.Constant) and isinstance(key_node.value, str)):
                    findings.append(
                        Finding(
                            self.name,
                            module.display_path,
                            node.lineno,
                            "register_cache key must be a string literal so the "
                            "checker can match it against the cache definition",
                        )
                    )
                    continue
                key = key_node.value
                relpath = key.partition(":")[0]
                if relpath != module.relpath:
                    findings.append(
                        Finding(
                            self.name,
                            module.display_path,
                            node.lineno,
                            f"register_cache key {key!r} names {relpath!r} but the "
                            f"registration sits in {module.relpath!r}; register a "
                            "cache in the module that defines it",
                        )
                    )
                    continue
                registered[key] = (module, node.lineno)

        exempt: dict[str, tuple[SourceModule, int, str]] = {}
        for module in program.modules:
            for node in module.tree.body:
                if isinstance(node, ast.Assign):
                    named = any(
                        isinstance(t, ast.Name) and t.id == "EXEMPT_CACHES" for t in node.targets
                    )
                elif isinstance(node, ast.AnnAssign):
                    named = isinstance(node.target, ast.Name) and node.target.id == "EXEMPT_CACHES"
                else:
                    named = False
                if not named or not isinstance(node.value, ast.Dict):
                    continue
                for key_node, reason_node in zip(node.value.keys, node.value.values):
                    if not (isinstance(key_node, ast.Constant) and isinstance(key_node.value, str)):
                        continue
                    reason = (
                        reason_node.value
                        if isinstance(reason_node, ast.Constant)
                        and isinstance(reason_node.value, str)
                        else ""
                    )
                    exempt[key_node.value] = (module, key_node.lineno, reason.strip())

        for key, (module, line) in sorted(discovered.items()):
            if key in registered and key in exempt:
                findings.append(
                    Finding(
                        self.name,
                        module.display_path,
                        line,
                        f"{key} is both registered and exempted; pick one",
                    )
                )
            elif key not in registered and key not in exempt:
                cache_name = key.partition(":")[2]
                findings.append(
                    Finding(
                        self.name,
                        module.display_path,
                        line,
                        f"module-level mutable container {cache_name!r} is neither "
                        "registered with repro.caches.register_cache nor listed in "
                        "EXEMPT_CACHES; caches must reset through a public clear entry",
                    )
                )
        for key, (module, line) in sorted(registered.items()):
            if key not in discovered:
                findings.append(
                    Finding(
                        self.name,
                        module.display_path,
                        line,
                        f"stale registration: {key} does not name a module-level "
                        "mutable container in this program",
                    )
                )
        for key, (module, line, reason) in sorted(exempt.items()):
            if key not in discovered:
                findings.append(
                    Finding(
                        self.name,
                        module.display_path,
                        line,
                        f"stale exemption: {key} does not name a module-level "
                        "mutable container in this program",
                    )
                )
            elif not reason:
                findings.append(
                    Finding(
                        self.name,
                        module.display_path,
                        line,
                        f"exemption for {key} has no reason; every exemption must "
                        "say why the container is not a cache",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# seeded-randomness
# ----------------------------------------------------------------------
#: ``random``-module functions that draw from (or reseed) the process-global
#: RNG.  ``Random`` itself is fine *with* arguments.
_GLOBAL_RNG_DRAWS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate", "randbytes",
        "randint", "random", "randrange", "sample", "seed", "shuffle", "triangular",
        "uniform", "vonmisesvariate", "weibullvariate",
    }
)


class SeededRandomnessChecker(Checker):
    name = "seeded-randomness"
    description = (
        "no draws from the process-global random module and no argless Random(); "
        "randomized searches take an explicit seed and build random.Random(seed)"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        aliases: set[str] = set()
        random_class_aliases: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name == "Random":
                        random_class_aliases.add(alias.asname or alias.name)
                    elif alias.name in _GLOBAL_RNG_DRAWS:
                        findings.append(
                            Finding(
                                self.name,
                                module.display_path,
                                node.lineno,
                                f"'from random import {alias.name}' pulls in a "
                                "process-global RNG draw; import the module and pass "
                                "an explicit random.Random(seed) instead",
                            )
                        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ):
                if func.attr in _GLOBAL_RNG_DRAWS:
                    findings.append(
                        Finding(
                            self.name,
                            module.display_path,
                            node.lineno,
                            f"random.{func.attr}() draws from the process-global RNG; "
                            "draw from an explicit seeded random.Random instead",
                        )
                    )
                elif func.attr == "Random" and not node.args and not node.keywords:
                    findings.append(
                        Finding(
                            self.name,
                            module.display_path,
                            node.lineno,
                            "argless random.Random() seeds from the OS; thread an "
                            "explicit seed parameter into Random(seed)",
                        )
                    )
            elif (
                isinstance(func, ast.Name)
                and func.id in random_class_aliases
                and not node.args
                and not node.keywords
            ):
                findings.append(
                    Finding(
                        self.name,
                        module.display_path,
                        node.lineno,
                        "argless Random() seeds from the OS; thread an explicit "
                        "seed parameter into Random(seed)",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# verdict-soundness
# ----------------------------------------------------------------------
class VerdictSoundnessChecker(Checker):
    name = "verdict-soundness"
    description = (
        "a directly constructed NOT_EQUIVALENT EquivalenceResult must carry a "
        "counterexample= or report= argument (no witness-less refutations)"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and _call_name(node.func) == "EquivalenceResult"):
                continue
            verdict: Optional[ast.expr] = node.args[0] if node.args else None
            if verdict is None:
                for keyword in node.keywords:
                    if keyword.arg == "verdict":
                        verdict = keyword.value
            if verdict is None or not self._mentions_not_equivalent(verdict):
                continue
            witnessed = any(
                keyword.arg in ("counterexample", "report")
                and not (
                    isinstance(keyword.value, ast.Constant) and keyword.value.value is None
                )
                for keyword in node.keywords
            )
            if not witnessed:
                findings.append(
                    Finding(
                        self.name,
                        module.display_path,
                        node.lineno,
                        "EquivalenceResult constructed with Verdict.NOT_EQUIVALENT "
                        "but no counterexample= or report= argument; refutations "
                        "must carry their witness",
                    )
                )
        return findings

    @staticmethod
    def _mentions_not_equivalent(expr: ast.expr) -> bool:
        return any(
            isinstance(node, ast.Attribute) and node.attr == "NOT_EQUIVALENT"
            for node in ast.walk(expr)
        )


# ----------------------------------------------------------------------
# fork-safety
# ----------------------------------------------------------------------
#: Annotation names that mark a field as non-picklable (or picklable only by
#: accident): callables and closures, synchronization primitives, live
#: handles, and lazily evaluated streams.
_UNPICKLABLE_ANNOTATIONS = frozenset(
    {
        "Callable", "Lambda", "Lock", "RLock", "Event", "Semaphore", "BoundedSemaphore",
        "Condition", "Barrier", "Queue", "SimpleQueue", "Thread", "Process", "Pool",
        "Executor", "IO", "TextIO", "BinaryIO", "IOBase", "Popen", "socket", "Socket",
        "Connection", "Iterator", "Generator",
    }
)


def _is_task_dataclass(node: ast.ClassDef) -> bool:
    if not node.name.endswith("Task"):
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _call_name(target) == "dataclass" or (
            isinstance(target, ast.Name) and target.id == "dataclass"
        ):
            return True
    return False


class ForkSafetyChecker(Checker):
    name = "fork-safety"
    description = (
        "parallel task dataclasses must be picklable by construction: no "
        "callable/handle-typed fields, no lambda defaults, no defaults that "
        "reference module-level caches"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        findings: list[Finding] = []
        for module in program.modules:
            cache_names = {name for name, _line in module_level_mutable_containers(module)}
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.ClassDef) and _is_task_dataclass(node)):
                    continue
                for statement in node.body:
                    if not isinstance(statement, ast.AnnAssign) or not isinstance(
                        statement.target, ast.Name
                    ):
                        continue
                    field_name = statement.target.id
                    findings.extend(
                        self._field_findings(
                            module, node.name, field_name, statement, cache_names
                        )
                    )
        return findings

    def _field_findings(
        self,
        module: SourceModule,
        class_name: str,
        field_name: str,
        statement: ast.AnnAssign,
        cache_names: set[str],
    ) -> Iterator[Finding]:
        for annotation_node in ast.walk(statement.annotation):
            named = None
            if isinstance(annotation_node, ast.Name):
                named = annotation_node.id
            elif isinstance(annotation_node, ast.Attribute):
                named = annotation_node.attr
            if named in _UNPICKLABLE_ANNOTATIONS:
                yield Finding(
                    self.name,
                    module.display_path,
                    statement.lineno,
                    f"task field {class_name}.{field_name} is annotated with "
                    f"{named}; task fields must hold picklable plain data",
                )
                break
        if statement.value is not None:
            for default_node in ast.walk(statement.value):
                if isinstance(default_node, ast.Lambda):
                    yield Finding(
                        self.name,
                        module.display_path,
                        statement.lineno,
                        f"task field {class_name}.{field_name} defaults to a lambda; "
                        "closures do not pickle",
                    )
                    break
                if isinstance(default_node, ast.Name) and default_node.id in cache_names:
                    yield Finding(
                        self.name,
                        module.display_path,
                        statement.lineno,
                        f"task field {class_name}.{field_name} default references the "
                        f"module-level cache {default_node.id!r}; workers must rebuild "
                        "caches locally, not ship them",
                    )
                    break


# ----------------------------------------------------------------------
# engine-threading
# ----------------------------------------------------------------------
#: Per-backend driver entry points: only the dispatching layer under
#: ``engine/`` may name these; everything above goes through the mode-aware
#: public API (``evaluate_*``, ``satisfying_assignments``, ...).
_BACKEND_DRIVERS = frozenset(
    {
        "compiled_evaluate_set", "compiled_evaluate_bag_set", "compiled_evaluate_aggregate",
        "compiled_satisfying_assignments", "compiled_symbolic_assignments",
        "compiled_symbolic_group_index",
        "naive_satisfying_assignments", "execute_plan_vector",
    }
)


class EngineThreadingChecker(Checker):
    name = "engine-threading"
    description = (
        "evaluation code outside engine/ must not call backend drivers directly "
        "and must not hard-code an engine mode string; thread engine= or read "
        "active_engine()"
    )

    #: Module relpath prefix that owns the backend drivers.
    engine_prefix = "engine/"
    #: The one module allowed to name mode strings (it defines them).
    modes_module = "engine/modes.py"
    #: The multi-tenant service layer: *no* call of ``set_engine`` /
    #: ``engine_scope`` at all (literal or threaded) — the engine mode is
    #: process-global, so flipping it from a request handler leaks one
    #: tenant's mode into every other tenant's decisions.  Service code
    #: pins the mode per workspace (``Workspace(engine=...)``) instead.
    service_prefix = "service/"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        inside_engine = module.relpath.startswith(self.engine_prefix)
        inside_service = module.relpath.startswith(self.service_prefix)
        for node in ast.walk(module.tree):
            if (
                inside_service
                and isinstance(node, ast.Call)
                and _call_name(node.func) in ("set_engine", "engine_scope")
            ):
                findings.append(
                    Finding(
                        self.name,
                        module.display_path,
                        node.lineno,
                        f"{_call_name(node.func)}() mutates the process-global "
                        "engine mode from the multi-tenant service layer; pin "
                        "the mode per tenant with Workspace(engine=...)",
                    )
                )
                continue
            if not inside_engine:
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if alias.name in _BACKEND_DRIVERS:
                            findings.append(self._driver_finding(module, node.lineno, alias.name))
                elif isinstance(node, ast.Name) and node.id in _BACKEND_DRIVERS:
                    findings.append(self._driver_finding(module, node.lineno, node.id))
                elif isinstance(node, ast.Attribute) and node.attr in _BACKEND_DRIVERS:
                    findings.append(self._driver_finding(module, node.lineno, node.attr))
            if (
                isinstance(node, ast.Call)
                and _call_name(node.func) in ("set_engine", "engine_scope")
                and module.relpath != self.modes_module
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                findings.append(
                    Finding(
                        self.name,
                        module.display_path,
                        node.lineno,
                        f"{_call_name(node.func)}({node.args[0].value!r}) hard-codes an "
                        "engine backend; thread the mode from the caller (engine= "
                        "parameter, task field) or read active_engine()",
                    )
                )
        return findings

    def _driver_finding(self, module: SourceModule, line: int, symbol: str) -> Finding:
        return Finding(
            self.name,
            module.display_path,
            line,
            f"{symbol} is a per-backend driver; outside engine/ evaluation must "
            "go through the mode-aware entry points so engine= stays threaded",
        )


#: Every checker the default run executes, in reporting order.
ALL_CHECKERS: tuple[Checker, ...] = (
    CacheDisciplineChecker(),
    SeededRandomnessChecker(),
    VerdictSoundnessChecker(),
    ForkSafetyChecker(),
    EngineThreadingChecker(),
)
