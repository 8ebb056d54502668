"""The repo's invariants, one :class:`~tools.replint.core.Rule` each.

Every rule encodes a contract the runtime actually depends on (see the
module docstrings it cites); the fixture corpus in
``tests/test_replint.py`` pins each one firing and staying silent.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .core import FileContext, Rule

__all__ = ["ALL_RULES", "rules_by_id"]

#: Tracer methods that build a record dict per call — the ones the
#: observability layer's overhead budget requires guarding.  ``span`` is
#: deliberately absent: ``with tracer.span(...)`` through ``NullTracer``
#: returns a shared no-op span and is the sanctioned unguarded idiom.
_TRACER_RECORD_METHODS = frozenset(
    {
        "offer_event",
        "bus_event",
        "trigger_event",
        "ledger_event",
        "replay_event",
        "dlq_event",
        "bus_retry_event",
    }
)


def _mentions_enabled(node: ast.AST, guard_names: frozenset[str]) -> bool:
    """Whether an expression reads ``*.enabled`` (or a guard variable)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and sub.id in guard_names:
            return True
    return False


def _chain_names(node: ast.AST) -> set[str]:
    """Every identifier in an attribute chain (``self.tracer.x`` → all 3)."""
    names: set[str] = set()
    current = node
    while isinstance(current, ast.Attribute):
        names.add(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        names.add(current.id)
    return names


class TracerGuardRule(Rule):
    """REP001: tracer record calls must sit behind a ``tracer.enabled`` check.

    The ROADMAP pins the untraced hot path as free: ``NullTracer`` methods
    are no-ops, but the *call site* still builds detail dicts and label
    lists.  Every ``tracer.offer_event(...)``-family call in hot-path
    packages must be inside an ``if ...enabled:`` branch (directly, via a
    local ``trace = self.tracer.enabled`` flag, or behind an early-return
    guard at the top of the function).
    """

    rule_id = "REP001"
    title = "unguarded tracer record call in hot-path module"
    scope = ("runtime/", "api/", "ledger/", "node/")

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TRACER_RECORD_METHODS
                and "tracer" in _chain_names(node.func.value)
            ):
                continue
            if self._guarded(ctx, node):
                continue
            yield (
                node,
                f"tracer.{node.func.attr}(...) outside a tracer.enabled "
                "guard; the untraced hot path must not build event records",
            )

    # ------------------------------------------------------------------
    def _guarded(self, ctx: FileContext, call: ast.Call) -> bool:
        function = ctx.enclosing_function(call)
        guard_names = self._guard_names(function)
        # Lexical guard: any enclosing if/ternary testing *.enabled with
        # the call on the truthy side (elif chains appear as nested Ifs).
        previous: ast.AST = call
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, ast.If) and _mentions_enabled(
                ancestor.test, guard_names
            ):
                if previous in ancestor.body or any(
                    previous is stmt for stmt in ancestor.body
                ):
                    return True
                # ``elif tracer.enabled:`` nests inside orelse; the inner
                # If is its own ancestor entry, so orelse means the
                # *negated* branch here — keep looking upward.
            if isinstance(ancestor, ast.IfExp) and _mentions_enabled(
                ancestor.test, guard_names
            ):
                if previous is ancestor.body:
                    return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            previous = ancestor
        # Early-return guard: ``if not tracer.enabled: return`` before the
        # call at the top level of the enclosing function.
        if function is not None:
            for stmt in function.body:
                if stmt.lineno >= call.lineno:
                    break
                if (
                    isinstance(stmt, ast.If)
                    and _mentions_enabled(stmt.test, guard_names)
                    and stmt.body
                    and isinstance(
                        stmt.body[-1], (ast.Return, ast.Raise, ast.Continue)
                    )
                ):
                    return True
        return False

    @staticmethod
    def _guard_names(
        function: ast.FunctionDef | ast.AsyncFunctionDef | None,
    ) -> frozenset[str]:
        """Local names assigned from an ``*.enabled`` expression."""
        if function is None:
            return frozenset()
        names: set[str] = set()
        for node in ast.walk(function):
            value: ast.AST | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.NamedExpr):
                targets, value = [node.target], node.value
            if value is None or not _mentions_enabled(value, frozenset()):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return frozenset(names)


class EventKindRule(Rule):
    """REP002: emitted/compared event kinds must exist in ``EVENT_SCHEMA``.

    The JSONL trace schema (``repro/obs/events.py``) is the contract the
    CLI, ``inspect`` and CI's trace validator share.  A record built with
    an unknown ``"event"`` kind, or a comparison against one, is drift the
    validator would only catch at runtime — if the code path runs at all.
    """

    rule_id = "REP002"
    title = "event kind not in EVENT_SCHEMA"

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        kinds = ctx.project.event_kinds
        if not kinds or ctx.rel.endswith("obs/events.py"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant)
                        and key.value == "event"
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                        and value.value not in kinds
                    ):
                        yield (
                            value,
                            f"event kind {value.value!r} is not in "
                            "EVENT_SCHEMA (repro/obs/events.py)",
                        )
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(node, kinds)

    # ------------------------------------------------------------------
    def _check_compare(
        self, node: ast.Compare, kinds: frozenset[str]
    ) -> Iterator[tuple[ast.AST, str]]:
        operands = [node.left, *node.comparators]
        if not any(self._reads_event_field(op) for op in operands):
            return
        if not all(
            isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
            for op in node.ops
        ):
            return
        for operand in operands:
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, str)
                and operand.value not in kinds
            ):
                yield (
                    operand,
                    f"comparison against unknown event kind "
                    f"{operand.value!r} (not in EVENT_SCHEMA)",
                )

    @staticmethod
    def _reads_event_field(node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            return (
                isinstance(node.slice, ast.Constant)
                and node.slice.value == "event"
            )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return (
                node.func.attr == "get"
                and bool(node.args)
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "event"
            )
        return False


class RegistryNameRule(Rule):
    """REP003: component-name literals must resolve in the registry.

    ``default_registry()`` is the single source of truth for engine/
    scheduler/trigger/driver/exporter names; a literal that does not
    resolve raises ``RegistryError`` at runtime — on whichever code path
    finally evaluates it.  Checked at call keywords, function-parameter
    defaults and annotated (dataclass-style) field defaults.
    """

    rule_id = "REP003"
    title = "registry name literal does not resolve"

    #: keyword/field name -> registry kind it must resolve against.
    KIND_FOR_NAME = {
        "engine": "aggregation",
        "scheduler": "scheduler",
        "trigger": "trigger",
        "driver": "driver",
        "exporter": "exporter",
    }

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        registry = ctx.project.registry_names
        if not registry:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    yield from self._check_literal(
                        keyword.arg, keyword.value, registry
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_signature(node, registry)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    yield from self._check_literal(
                        node.target.id, node.value, registry
                    )

    # ------------------------------------------------------------------
    def _check_signature(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        registry: dict[str, frozenset[str]],
    ) -> Iterator[tuple[ast.AST, str]]:
        positional = node.args.posonlyargs + node.args.args
        for arg, default in zip(positional[::-1], node.args.defaults[::-1]):
            yield from self._check_literal(arg.arg, default, registry)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield from self._check_literal(arg.arg, default, registry)

    def _check_literal(
        self,
        name: str | None,
        value: ast.AST,
        registry: dict[str, frozenset[str]],
    ) -> Iterator[tuple[ast.AST, str]]:
        if name is None or name not in self.KIND_FOR_NAME:
            return
        kind = self.KIND_FOR_NAME[name]
        known = registry.get(kind)
        if not known:
            return
        if (
            isinstance(value, ast.Constant)
            and isinstance(value.value, str)
            and value.value not in known
        ):
            yield (
                value,
                f"{name}={value.value!r} does not resolve against "
                f"default_registry(); known {kind} names: "
                f"{', '.join(sorted(known))}",
            )


class SimPathTimeRule(Rule):
    """REP004: sim-path code must not read wall-clock time or unseeded RNG.

    The simulated runtime's key property is bit-identical replay (the
    ledger's crash recovery and every parity oracle depend on it).  Time
    comes from the ``TimeDriver`` seam, randomness from a seeded
    ``numpy.random.Generator``.  ``time.perf_counter``/``monotonic`` stay
    legal — wall-time *measurement* is observability, not behaviour.
    """

    rule_id = "REP004"
    title = "wall-clock time or unseeded RNG in sim-path package"
    scope = ("runtime/", "scheduling/", "aggregation/", "node/")

    _FORBIDDEN_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    _RNG_CLASSES = frozenset({"Generator", "SeedSequence", "BitGenerator"})

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolver.dotted(node.func)
            if dotted is None:
                continue
            if dotted in self._FORBIDDEN_CALLS:
                yield (
                    node,
                    f"{dotted}() in sim-path code; use the TimeDriver seam "
                    "(driver.now) so runs stay replayable",
                )
            elif dotted.startswith("random."):
                if dotted in ("random.Random", "random.getstate"):
                    if dotted == "random.Random" and node.args:
                        continue  # seeded instance: deterministic
                yield (
                    node,
                    f"{dotted}() module-level RNG in sim-path code; use a "
                    "seeded numpy.random.Generator threaded from config",
                )
            elif dotted.startswith("numpy.random."):
                tail = dotted.split(".", 2)[2]
                if tail == "default_rng":
                    if not node.args and not node.keywords:
                        yield (
                            node,
                            "numpy.random.default_rng() without a seed in "
                            "sim-path code; pass the configured seed",
                        )
                elif tail.split(".")[0] not in self._RNG_CLASSES:
                    yield (
                        node,
                        f"{dotted}() global-state RNG in sim-path code; use "
                        "a seeded numpy.random.Generator",
                    )


class ShmUnlinkRule(Rule):
    """REP005: every created shared-memory segment needs an unlink path.

    A ``SharedMemory(create=True)`` block outlives the process unless
    *somebody* unlinks it — the parallel runtime's lifecycle contract
    (``runtime/shm.py``) pairs every create with an unlink owner plus a
    crash sweep.  A module that creates segments but never spells
    ``unlink`` anywhere has no reclamation story at all.
    """

    rule_id = "REP005"
    title = "SharedMemory(create=True) without an unlink path"

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        creates: list[ast.Call] = []
        has_unlink = False
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = ctx.resolver.dotted(node.func) or ""
                if dotted.endswith("SharedMemory") and any(
                    keyword.arg == "create"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in node.keywords
                ):
                    creates.append(node)
                if "unlink" in (dotted.rsplit(".", 1)[-1] or ""):
                    has_unlink = True
            elif isinstance(node, ast.Attribute) and "unlink" in node.attr:
                has_unlink = True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if "unlink" in node.name:
                    has_unlink = True
        if has_unlink:
            return
        for call in creates:
            yield (
                call,
                "SharedMemory(create=True) but this module never unlinks a "
                "segment; a crash here leaks /dev/shm blocks",
            )


class JournalFirstRule(Rule):
    """REP006: journal the ledger fact before triggering the state cascade.

    ``OfferLedger``-journaled ingest records its immutable fact *before*
    the aggregation/scheduling cascade it causes (``runtime/service.py``
    pins this ordering), so replay re-derives the same downstream facts.
    A cascade call ahead of the first journal append in the same function
    re-orders recovery.
    """

    rule_id = "REP006"
    title = "state cascade precedes the ledger journal append"

    _RECORD_METHODS = frozenset(
        {
            "record_submit",
            "record_reverse",
            "record_withdraw",
            "record_scheduled",
            "record_retire",
            "record_dead_letter",
            "note_duplicate",
            # BrpRuntimeService's one journaling seam for submit/replace
            # facts: calling it *is* the append, for ordering purposes.
            "_journal_submit",
        }
    )
    _CASCADE_METHODS = frozenset(
        {"run_aggregation", "maybe_schedule", "run_scheduling"}
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            record_lines: list[int] = []
            cascades: list[tuple[ast.Call, str]] = []
            for sub in ast.walk(node):
                if not (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                ):
                    continue
                if sub.func.attr in self._RECORD_METHODS:
                    record_lines.append(sub.lineno)
                elif sub.func.attr in self._CASCADE_METHODS:
                    cascades.append((sub, sub.func.attr))
                elif sub.func.attr == "flush" and "ingest" in _chain_names(
                    sub.func.value
                ):
                    cascades.append((sub, "ingest.flush"))
            if not record_lines:
                continue
            first_record = min(record_lines)
            for call, name in cascades:
                if call.lineno < first_record:
                    yield (
                        call,
                        f"{name}() before the first ledger append in this "
                        "function; journal the input fact first so replay "
                        "re-derives the cascade",
                    )


class MessageTraceKeywordRule(Rule):
    """REP007: ``Message`` must not receive ``trace`` positionally.

    ``Message``'s sixth field is ``message_id`` (defaulted); ``trace`` is
    keyword-only by convention.  A seventh positional argument silently
    lands a TraceContext in ``message_id`` — or worse — and breaks
    publish/deliver pairing.
    """

    rule_id = "REP007"
    title = "Message(...) with positional trace argument"

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolver.dotted(node.func) or ""
            if not (dotted == "Message" or dotted.endswith(".Message")):
                continue
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                continue
            if len(node.args) >= 7:
                yield (
                    node,
                    "Message(...) passes trace positionally (field 6 is "
                    "message_id); pass trace= and message_id= by keyword",
                )


class SwallowedExceptionRule(Rule):
    """REP008: worker/bus lifecycle code must not swallow exceptions blind.

    Teardown paths in the parallel runtime and the bus adapter intend to
    be best-effort, but a bare ``except:`` (or ``except Exception: pass``)
    also eats ``SystemExit``-adjacent bugs, corrupted-state signals and
    the very crash the fault harness is trying to observe.  Catch the
    specific errors the cleanup can actually tolerate.
    """

    rule_id = "REP008"
    title = "blind exception swallow in worker/bus lifecycle code"
    scope = ("runtime/", "node/")

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield (
                    node,
                    "bare except: in lifecycle code; name the exceptions "
                    "this cleanup can tolerate",
                )
                continue
            if self._is_broad(node.type) and self._body_swallows(node.body):
                yield (
                    node,
                    "except Exception: pass swallows every failure; catch "
                    "the specific errors teardown tolerates (or record it)",
                )

    # ------------------------------------------------------------------
    def _is_broad(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._BROAD
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(element) for element in node.elts)
        return False

    @staticmethod
    def _body_swallows(body: list[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            for stmt in body
        )


class TriggerStateWriteRule(Rule):
    """REP009: scheduling cadence state mutates only behind its owning seam.

    Three families of state drive the closed loop and must have exactly one
    writer each:

    * a service's run cadence (``_last_run_time`` / ``_offers_since_run``)
      belongs to the service itself — outside callers go through
      ``BrpRuntimeService.scheduling_suspended()`` instead of reaching in
      (a raw write silently disarms or re-arms the trigger cooldown);
    * a service's commitment books (``_live`` / ``_scheduled`` /
      ``_scheduled_total`` / ``_committed_start`` / ``_unscheduled_energy``)
      move together or the triggers read a backlog that is not there —
      outside callers go through ``submit``/``withdraw``/
      ``restore_commitment``; assignments, subscript stores, ``del`` and
      mutating calls (``.add``/``.pop``/…) on another object's books all
      count as writes;
    * adaptive trigger thresholds (``count_threshold`` / ``max_age_slices``
      / ``trigger_refreshes`` / ``min_run_interval_slices`` as *attribute*
      targets) change only inside the controllers' ``observe`` seam in
      ``runtime/triggers.py`` — anywhere else and the control loop's
      adjustment events no longer tell the truth.
    """

    rule_id = "REP009"
    title = "trigger/cadence state written outside its owning seam"
    scope = ("src/repro/",)

    #: Attribute -> the seam outside callers use instead of writing it.
    _OWNED = {
        **dict.fromkeys(
            ("_last_run_time", "_offers_since_run"), "scheduling_suspended()"
        ),
        **dict.fromkeys(
            (
                "_live",
                "_scheduled",
                "_scheduled_total",
                "_committed_start",
                "_unscheduled_energy",
            ),
            "submit()/withdraw()/restore_commitment()",
        ),
    }
    _MUTATORS = frozenset(
        {"add", "discard", "remove", "pop", "clear", "update", "setdefault"}
    )
    _THRESHOLDS = frozenset(
        {
            "count_threshold",
            "max_age_slices",
            "trigger_refreshes",
            "min_run_interval_slices",
        }
    )
    _THRESHOLD_HOME = "runtime/triggers.py"

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        in_triggers = ctx.rel.endswith(self._THRESHOLD_HOME)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
            ):
                targets = [node.func.value]
            else:
                continue
            for target in targets:
                # ``x._live[k] = v`` and ``del x._live[k]`` write ``x._live``.
                owned = target.value if isinstance(target, ast.Subscript) else target
                if not isinstance(owned, ast.Attribute):
                    continue
                owner_is_self = (
                    isinstance(owned.value, ast.Name) and owned.value.id == "self"
                )
                if owned.attr in self._OWNED and not owner_is_self:
                    yield (
                        owned,
                        f"write to another object's {owned.attr!r} bypasses "
                        f"its owning seam; use {self._OWNED[owned.attr]} (or "
                        "a method on the owner)",
                    )
                elif (
                    owned is target
                    and not isinstance(node, (ast.Call, ast.Delete))
                    and owned.attr in self._THRESHOLDS
                    and not in_triggers
                ):
                    yield (
                        owned,
                        f"trigger threshold {owned.attr!r} assigned outside "
                        "runtime/triggers.py; thresholds change only inside "
                        "the adaptive controllers' observe() seam",
                    )


ALL_RULES: tuple[Rule, ...] = (
    TracerGuardRule(),
    EventKindRule(),
    RegistryNameRule(),
    SimPathTimeRule(),
    ShmUnlinkRule(),
    JournalFirstRule(),
    MessageTraceKeywordRule(),
    SwallowedExceptionRule(),
    TriggerStateWriteRule(),
)


def rules_by_id(selected: Iterable[str] | None = None) -> tuple[Rule, ...]:
    """All rules, or the subset named by ``selected`` (order preserved)."""
    if selected is None:
        return ALL_RULES
    wanted = list(selected)
    known = {rule.rule_id: rule for rule in ALL_RULES}
    unknown = [rule_id for rule_id in wanted if rule_id not in known]
    if unknown:
        raise KeyError(", ".join(unknown))
    return tuple(known[rule_id] for rule_id in wanted)
