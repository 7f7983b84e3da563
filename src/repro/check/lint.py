"""Reproduction-specific AST lint: the REP, CONC and DET rules. Stdlib ``ast`` only.

General-purpose linters cannot know that this repo's determinism contract
forbids unseeded RNGs, that timing quantities are floats that must never be
compared with ``==``, or that sweep workers pickle exceptions across process
boundaries. This pass encodes exactly those house rules:

=======  ==============================================================
REP001   Unseeded RNG construction (``default_rng()`` / ``Random()``
         with no seed, or the ``random`` module's global functions).
         Sweeps replay cached plans; hidden RNG state breaks replay.
REP002   ``==`` / ``!=`` where an operand is named like a timing
         quantity (``duration``, ``*_s``, ``clock`` ...). Float timing
         must be compared with tolerances or avoided.
REP003   Exception class with a custom ``__init__`` but no
         ``__reduce__``/``__getstate__``/``__setstate__``. Such
         exceptions may not survive the pickling round-trip through
         sweep workers (multi-arg ``__init__`` breaks the default
         reduce protocol).
REP005   ``tracer.emit(time, "name", ...)`` with a literal category
         absent from :data:`repro.sim.trace.TRACE_EVENTS`. Tests filter
         traces by these names; a typo silently records nothing.
REP006   Statement-level ``for`` loop over ``step.transfers`` in an
         executor hot path (the pricing modules). Per-transfer Python
         accumulation is the pattern the vectorized executors replaced;
         inherently sequential loops (per-pair routing) are allowlisted
         with a ``# REP006: <reason>`` pragma on the loop line or the
         comment block directly above it.
REP007   Direct plan-cache mutation (``.put``/``.clear``/``.resize`` on
         a plan-cache object) outside the cache layers themselves and
         the lowering seams. All persistence-visible writes must flow
         through the ``plan_cache`` seam so the service's sharded store
         observes them; escape hatch: ``# REP007: <reason>`` pragma.
REP008   Suppression pragma without a reason (``# REP006`` bare, or
         ``# REP006:`` with nothing after the colon). A pragma is an
         audit record; a bare one suppresses nothing and is flagged.
=======  ==============================================================

The async-safety (CONC) and determinism (DET) rules also judge a call by
what it does: a sync helper that sleeps blocks the coroutine calling it,
and a helper returning ``time.time()`` taints a key built from its
result. Calls resolve inside the linted file only (see
:class:`_FileIndex`); all async code of the repo is in
``service/daemon.py`` and ``service/protocol.py``, so that is reach
enough there:

=======  ==============================================================
CONC001  Blocking call (sleep, subprocess, socket or disk I/O), direct or
         through same-file sync helpers, inside an ``async def``.
CONC002  (a) ``self.x`` read into a local before an ``await`` and written
         back from it after (lost update); (b) an executor-dispatched
         method mutating state the class's async methods touch.
CONC003  A same-file coroutine called as a bare statement: never runs.
CONC004  A public method using a pid cached in ``__init__`` without the
         class's fork re-check (``PlanStore._check_owner``).
CONC005  A write to a shard path (through a local or a same-file
         helper's return) with no ``os.replace`` in the same function.
DET001   A wall-clock read reaching a plan/cache identity: a
         ``LoweredPlan``, a ``.put`` key, a digest/salt helper, or a
         ``*key*`` function's return — through same-file helpers too.
DET002   Iteration over a set: its order depends on hashing and
         insertion history. Iterate ``sorted(...)`` or give an
         order-free loop a ``# DET002: <reason>`` pragma.
DET004   ``id()``/``hash()`` reaching such an identity: neither survives
         a process boundary or a replay.
=======  ==============================================================

Retired ids are never reused: REP004 (import of the removed
``repro.optical.plancache`` alias) and DET003 (an unseeded RNG reachable
from ``lower``: REP001 flags every such RNG where it is constructed).

**Pragmas.** Every rule honours one uniform escape hatch: a
``# <RULEID>: <reason>`` comment on the offending line or in the comment
block directly above it suppresses that rule's finding there. The reason
is mandatory (see REP008); :func:`pragma_suppresses` is the single
implementation.

Files that fail to parse are reported as a structured ``SYNTAX`` finding
(file, line, message) instead of raising, so one broken file cannot mask
the findings of every other file in the batch.

Run as a module over one or more files/directories::

    $ python -m repro.check.lint src
    $ python -m repro.check.lint --list-rules

Exit status is 1 when any finding is produced, 0 when clean.
"""

from __future__ import annotations

import argparse
import ast
import functools
import re
import sys
from pathlib import Path
from typing import Callable, Iterator

from repro.check.findings import Finding, Severity

#: Functions on the ``random`` module that mutate hidden global state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

#: Identifier shapes that denote timing quantities (REP002).
_TIMING_NAME = re.compile(
    r"(^|_)(time|duration|clock|latency|elapsed|deadline|now)($|_)|_s$"
)

#: Method names whose presence makes a custom-``__init__`` exception safe
#: to pickle (REP003).
_PICKLE_HOOKS = frozenset({"__reduce__", "__getstate__", "__setstate__"})

LINT_RULES: dict[str, str] = {
    "REP001": "unseeded RNG construction",
    "REP002": "float equality on a timing quantity",
    "REP003": "exception with custom __init__ but no pickle hook",
    "REP005": "trace category not registered in TRACE_EVENTS",
    "REP006": "per-transfer Python loop in an executor hot path",
    "REP007": "direct plan-cache mutation outside the cache/lowering seams",
    "REP008": "suppression pragma without a reason",
    "CONC001": "blocking call inside an async def",
    "CONC002": "shared-state mutation off the eval lane or across an await",
    "CONC003": "coroutine called but never awaited",
    "CONC004": "cached process identity used without a fork re-check",
    "CONC005": "non-atomic write to a store shard path",
    "DET001": "wall-clock value flows into a plan/cache identity",
    "DET002": "iteration over a set",
    "DET004": "id()/hash() flows into a cross-process identity",
}
"""Rule id -> short title, for ``--list-rules`` and the docs."""

#: Rule id reserved for unparseable files (always reported, never
#: ``--select``-able away: no other rule can run on such a file).
SYNTAX_RULE = "SYNTAX"

#: One suppression pragma: ``# <RULEID>: <reason>`` at the end of a line.
#: The id must be the whole comment tail (prose like "# REP006 is retired"
#: does not match) and the reason group is ``None`` for bare pragmas.
_PRAGMA = re.compile(r"#\s*((?:REP|CONC|DET)\d{3})\s*(?::\s*(\S.*?))?\s*$")


def pragma_at(line: str) -> tuple[str, str | None] | None:
    """The ``(rule_id, reason)`` of a pragma-shaped comment on ``line``.

    ``None`` when the line carries no pragma; ``(id, None)`` for a bare
    pragma (flagged by REP008, suppresses nothing).
    """
    match = _PRAGMA.search(line)
    if match is None:
        return None
    return match.group(1), match.group(2)


def pragma_suppresses(rule_id: str, lines: list[str], lineno: int) -> bool:
    """Whether a reasoned ``# <rule_id>: <reason>`` pragma covers ``lineno``.

    The single escape-hatch implementation shared by every rule: the
    pragma may sit on the offending line itself or anywhere in the comment
    block directly above it, and must carry a non-empty reason (bare
    pragmas are rejected — see REP008).
    """
    index = lineno - 1
    if 0 <= index < len(lines):
        found = pragma_at(lines[index])
        if found is not None and found[0] == rule_id and found[1]:
            return True
    index -= 1
    while index >= 0 and lines[index].lstrip().startswith("#"):
        found = pragma_at(lines[index])
        if found is not None and found[0] == rule_id and found[1]:
            return True
        index -= 1
    return False


def syntax_finding(exc: SyntaxError, path: str) -> Finding:
    """The structured ``SYNTAX`` finding for an unparseable file."""
    lineno = exc.lineno or 0
    return Finding(
        rule_id=SYNTAX_RULE,
        severity=Severity.ERROR,
        message=f"file does not parse: {exc.msg}",
        location=f"{path}:{lineno}",
        details={"line": lineno},
    )

#: Executor pricing modules where per-transfer statement loops are hot
#: (REP006). Matched as path suffixes so the rule follows the files, not
#: the checkout location.
_HOT_PATH_SUFFIXES = (
    "repro/optical/network.py",
    "repro/optical/livesim.py",
    "repro/electrical/network.py",
)


@functools.lru_cache(maxsize=1)
def _tree_nodes(tree: ast.AST) -> tuple[ast.AST, ...]:
    """Every node of one parsed file, walked once and shared by all rules."""
    return tuple(ast.walk(tree))


def _terminal_name(node: ast.expr) -> str | None:
    """The rightmost identifier of a name/attribute/call/subscript chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    if isinstance(node, ast.Subscript):
        return _terminal_name(node.value)
    return None


def _finding(
    rule_id: str, message: str, path: str, node: ast.AST
) -> Finding:
    lineno = getattr(node, "lineno", 0)
    return Finding(
        rule_id=rule_id,
        severity=Severity.ERROR,
        message=message,
        location=f"{path}:{lineno}",
        details={"line": lineno},
    )


def _check_rep001(tree: ast.AST, path: str) -> Iterator[Finding]:
    """REP001 — unseeded RNG construction."""
    for node in _tree_nodes(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if name in ("default_rng", "Random") and not node.args and not node.keywords:
            yield _finding(
                "REP001",
                f"{name}() constructed without a seed; sweeps replay cached "
                "plans and hidden RNG state breaks replay",
                path, node,
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "random"
            and node.func.attr in _GLOBAL_RANDOM_FNS
        ):
            yield _finding(
                "REP001",
                f"random.{node.func.attr}() uses the interpreter-global RNG; "
                "construct a seeded Random/Generator instead",
                path, node,
            )


def _check_rep002(tree: ast.AST, path: str) -> Iterator[Finding]:
    """REP002 — ``==``/``!=`` on timing-named operands."""
    for node in _tree_nodes(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        ops = node.ops
        for op, left, right in zip(ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # Comparisons against 0/None are identity-style guards, not
            # float-equality hazards.
            if any(
                isinstance(side, ast.Constant) and side.value in (None, 0)
                for side in (left, right)
            ):
                continue
            for side in (left, right):
                name = _terminal_name(side)
                if name is not None and _TIMING_NAME.search(name):
                    yield _finding(
                        "REP002",
                        f"float equality on timing quantity {name!r}; compare "
                        "with a tolerance (math.isclose) or restructure",
                        path, node,
                    )
                    break


def _looks_like_exception(class_def: ast.ClassDef) -> bool:
    for base in class_def.bases:
        name = _terminal_name(base)
        if name and (
            name.endswith("Error") or name.endswith("Exception")
            or name in ("BaseException", "Warning")
        ):
            return True
    return False


def _check_rep003(tree: ast.AST, path: str) -> Iterator[Finding]:
    """REP003 — custom-``__init__`` exceptions without a pickle hook."""
    for node in _tree_nodes(tree):
        if not isinstance(node, ast.ClassDef) or not _looks_like_exception(node):
            continue
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "__init__" in methods and not (methods & _PICKLE_HOOKS):
            yield _finding(
                "REP003",
                f"exception {node.name} defines __init__ but no "
                "__reduce__/__getstate__/__setstate__; it may not survive "
                "pickling through sweep workers",
                path, node,
            )


def _check_rep005(tree: ast.AST, path: str) -> Iterator[Finding]:
    """REP005 — unregistered literal trace categories."""
    from difflib import get_close_matches

    from repro.sim.trace import TRACE_EVENTS

    for node in _tree_nodes(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and len(node.args) >= 2
        ):
            continue
        category = node.args[1]
        if (
            isinstance(category, ast.Constant)
            and isinstance(category.value, str)
            and category.value not in TRACE_EVENTS
        ):
            message = (
                f"trace category {category.value!r} is not registered in "
                "repro.sim.trace.TRACE_EVENTS"
            )
            close = get_close_matches(category.value, sorted(TRACE_EVENTS), n=1)
            if close:
                message += f" (did you mean {close[0]!r}?)"
            yield _finding("REP005", message, path, node)


def _iterates_transfers(node: ast.expr) -> bool:
    """Whether an iterated expression references a ``transfers`` name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "transfers":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "transfers":
            return True
    return False


def _check_rep006(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """REP006 — per-transfer statement loops in executor hot paths.

    Comprehensions are allowed (they build a value, not a scalar
    accumulation); only statement-level ``for``/``async for`` over a
    ``transfers`` collection is flagged, and only inside the pricing
    modules listed in :data:`_HOT_PATH_SUFFIXES`.
    """
    norm = str(path).replace("\\", "/")
    if not norm.endswith(_HOT_PATH_SUFFIXES):
        return
    for node in _tree_nodes(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        if not _iterates_transfers(node.iter):
            continue
        yield _finding(
            "REP006",
            "per-transfer Python loop over step.transfers in an executor "
            "hot path; vectorize over numpy arrays (see payload_times / "
            "np.bincount in the executors) or allowlist with a "
            "'# REP006: <reason>' pragma",
            path, node,
        )


#: Receiver names that denote a plan-cache object (REP007).
_PLAN_CACHE_NAME = re.compile(r"(^|_)plan_?cache$", re.IGNORECASE)

#: The only modules allowed to mutate a plan cache directly (REP007):
#: the cache layers themselves plus the backend lowering seams that
#: populate them. Matched as path suffixes, like :data:`_HOT_PATH_SUFFIXES`.
_PLAN_CACHE_SEAM_SUFFIXES = (
    "repro/backend/plancache.py",
    "repro/service/store.py",
    "repro/optical/network.py",
    "repro/optical/torus.py",
    "repro/electrical/network.py",
    "repro/backend/analytic.py",
)

_PLAN_CACHE_MUTATORS = frozenset({"put", "clear", "resize"})


def _is_plan_cache_receiver(node: ast.expr) -> bool:
    """Whether an expression names a plan-cache object.

    Covers ``plan_cache`` / ``self.plan_cache`` / ``self._plan_cache``
    name chains and ``default_plan_cache()`` call results.
    """
    name = _terminal_name(node)
    if name is None:
        return False
    if isinstance(node, ast.Call):
        return name == "default_plan_cache"
    return bool(_PLAN_CACHE_NAME.search(name))


def _check_rep007(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """REP007 — direct plan-cache mutation outside the sanctioned seams.

    The persistent plan store only observes writes that flow through the
    ``plan_cache`` seam (:class:`~repro.service.store.PersistentPlanCache`
    overrides ``put``); ad-hoc mutation elsewhere silently diverges the
    in-memory and on-disk views. Reads (``get``) are unrestricted.
    """
    norm = str(path).replace("\\", "/")
    if norm.endswith(_PLAN_CACHE_SEAM_SUFFIXES):
        return
    for node in _tree_nodes(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _PLAN_CACHE_MUTATORS
        ):
            continue
        if not _is_plan_cache_receiver(node.func.value):
            continue
        yield _finding(
            "REP007",
            f"direct plan-cache .{node.func.attr}() outside "
            "repro.backend.plancache / repro.service.store / the lowering "
            "seams; route writes through the plan_cache seam (or allowlist "
            "with a '# REP007: <reason>' pragma)",
            path, node,
        )


def _check_rep008(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """REP008 — pragma-shaped comments carrying no reason.

    A suppression without a reason is indistinguishable from a stale
    copy-paste; the reason is the audit record. Bare pragmas never
    suppress (see :func:`pragma_suppresses`) *and* are flagged here.
    """
    for index, line in enumerate(lines):
        found = pragma_at(line)
        if found is None or found[1]:
            continue
        rule_id = found[0]
        yield _finding(
            "REP008",
            f"bare {rule_id} pragma (no reason); a suppression must read "
            f"'# {rule_id}: <reason>' and without the reason it suppresses "
            "nothing",
            path,
            type("N", (), {"lineno": index + 1})(),
        )


# -- CONC / DET: same-file call resolution ------------------------------

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=1024)
def _own_nodes(root: ast.AST) -> tuple[ast.AST, ...]:
    """``root``'s body without nested function definitions (cached: every
    CONC/DET rule walks the same scopes)."""
    nodes: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _DEFS):
            stack.extend(ast.iter_child_nodes(node))
    return tuple(nodes)


@functools.lru_cache(maxsize=1024)
def _own_calls(root: ast.AST) -> tuple[ast.Call, ...]:
    """The calls of ``root``'s own body, in source order."""
    calls = [n for n in _own_nodes(root) if isinstance(n, ast.Call)]
    return tuple(sorted(calls, key=lambda n: (n.lineno, n.col_offset)))


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` for a ``self.attr`` expression, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id == "self" else None
    return None


class _FileIndex:
    """What one file defines, for resolving its calls without leaving it.

    A bare-name call resolves to a module-level function of the file; a
    ``self.m()``/``cls.m()`` call to method ``m`` of the enclosing class.
    Anything else stays unresolved and is judged by its dotted name,
    normalized through the file's imports (``from time import sleep``
    makes ``sleep()`` read ``time.sleep``).
    """

    def __init__(self, tree: ast.AST) -> None:
        self.imports: dict[str, str] = {}
        self.functions: dict[str, ast.AST] = {}
        self.methods: dict[str, dict[str, ast.AST]] = {}
        #: Every function definition -> the class whose ``self`` it sees.
        self.class_of: dict[ast.AST, str | None] = {}
        for node in _tree_nodes(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}" if node.module else alias.name
                    )
        for node in getattr(tree, "body", []):
            if isinstance(node, _DEFS):
                self.functions[node.name] = node
        self._collect(tree, None)

    def _collect(self, node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self.methods[child.name] = {
                    item.name: item for item in child.body if isinstance(item, _DEFS)
                }
                self._collect(child, child.name)
                continue
            if isinstance(child, _DEFS):
                self.class_of[child] = cls
            self._collect(child, cls)

    def callee(self, call: ast.Call, cls: str | None) -> ast.AST | None:
        """The same-file function ``call`` invokes, or ``None``."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.functions.get(func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and cls is not None
        ):
            return self.methods.get(cls, {}).get(func.attr)
        return None

    def dotted(self, node: ast.expr) -> str | None:
        """Import-normalized dotted name of a Name/Attribute chain."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        return ".".join([self.imports.get(node.id, node.id), *reversed(parts)])

    def method_closure(self, cls: str, roots: set[ast.AST]) -> set[ast.AST]:
        """``roots`` plus every method of ``cls`` they reach via ``self.``."""
        closure: set[ast.AST] = set()
        stack = list(roots)
        while stack:
            fn = stack.pop()
            if fn in closure:
                continue
            closure.add(fn)
            for call in _own_calls(fn):
                callee = self.callee(call, cls)
                if callee is not None and self.class_of[callee] == cls:
                    stack.append(callee)
        return closure


@functools.lru_cache(maxsize=1)
def _file_index(tree: ast.AST) -> _FileIndex:
    """One index per parsed file, shared by every CONC/DET checker."""
    return _FileIndex(tree)


# -- CONC001 -------------------------------------------------------------

#: Calls that block the calling thread, by import-normalized dotted name.
#: Cheap metadata syscalls (``mkdir``, ``unlink``, ``exists``) are left
#: out on purpose: flagging them would bury the real hazards.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep", "subprocess.run", "subprocess.call",
        "subprocess.check_call", "subprocess.check_output",
        "subprocess.Popen", "socket.socket", "socket.create_connection",
        "os.replace", "open", "input", "urllib.request.urlopen",
        "requests.get", "requests.post",
    }
)

#: Method names that are blocking I/O whatever the receiver (generic
#: ``read``/``write`` are excluded: asyncio streams use them).
_BLOCKING_METHODS = frozenset(
    {
        "read_bytes", "write_bytes", "read_text", "write_text", "recv",
        "recvfrom", "sendall", "accept",
    }
)


def _blocking_call(call: ast.Call, index: _FileIndex, cls: str | None) -> str | None:
    """The name of the blocking operation ``call`` performs, or ``None``."""
    terminal = _terminal_name(call.func)
    if terminal in _BLOCKING_METHODS:
        return terminal
    if index.callee(call, cls) is None:
        dotted = index.dotted(call.func)
        if dotted in _BLOCKING_CALLS:
            return dotted
    return None


def _blocking_chain(
    fn: ast.AST, index: _FileIndex, seen: set[ast.AST]
) -> list[str] | None:
    """``fn``'s call chain down to a blocking call, through sync helpers."""
    cls = index.class_of[fn]
    calls = _own_calls(fn)
    for call in calls:
        what = _blocking_call(call, index, cls)
        if what is not None:
            return [what]
    for call in calls:
        callee = index.callee(call, cls)
        if isinstance(callee, ast.FunctionDef) and callee not in seen:
            seen.add(callee)
            chain = _blocking_chain(callee, index, seen)
            if chain is not None:
                return [callee.name, *chain]
    return None


def _check_conc001(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """CONC001 — blocking calls inside ``async def`` bodies."""
    index = _file_index(tree)
    for fn, cls in index.class_of.items():
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        for call in _own_calls(fn):
            what = _blocking_call(call, index, cls)
            callee = index.callee(call, cls)
            if what is None and isinstance(callee, ast.FunctionDef):
                chain = _blocking_chain(callee, index, {callee})
                if chain is not None:
                    what = " -> ".join([callee.name, *chain])
            if what is not None:
                yield _finding(
                    "CONC001",
                    f"blocking call {what}() inside async def {fn.name}: the "
                    "event loop stalls for its full duration — move it "
                    "behind run_in_executor (the daemon's eval lane)",
                    path, call,
                )


# -- CONC002 -------------------------------------------------------------

#: Call terminals that dispatch a function reference onto a worker thread.
_EXECUTOR_TERMINALS = frozenset({"run_in_executor", "submit", "to_thread"})


def _await_window_findings(fn: ast.AST, path: str) -> Iterator[Finding]:
    """(a) stale read-modify-write windows crossing an ``await``."""
    nodes = list(_own_nodes(fn))
    await_lines = [n.lineno for n in nodes if isinstance(n, ast.Await)]
    assigns = [n for n in nodes if isinstance(n, ast.Assign) and len(n.targets) == 1]
    carriers: dict[str, tuple[str, int]] = {}  # local -> (attr, read line)
    for node in assigns:
        if isinstance(node.targets[0], ast.Name):
            for sub in ast.walk(node.value):
                attr = _self_attr(sub)
                if attr is not None:
                    carriers[node.targets[0].id] = (attr, node.lineno)
                    break
    for node in assigns:
        attr = _self_attr(node.targets[0])
        if attr is None:
            continue
        for name in sorted({n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}):
            carried = carriers.get(name)
            if carried is None or carried[0] != attr:
                continue
            if any(carried[1] < line < node.lineno for line in await_lines):
                yield _finding(
                    "CONC002",
                    f"self.{attr} read into {name!r} at line {carried[1]}, "
                    f"awaited, then written back from the stale local at "
                    f"line {node.lineno}: concurrent handlers interleave at "
                    "the await and this write loses their updates; re-read "
                    "after the await or restructure to += on the loop",
                    path, node,
                )


def _check_conc002(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """CONC002 — shared state across an ``await`` or off the event loop."""
    index = _file_index(tree)
    for fn in index.class_of:
        if isinstance(fn, ast.AsyncFunctionDef):
            yield from _await_window_findings(fn, path)
    # (b) executor-dispatched methods mutating state the loop side touches.
    for cls, methods in index.methods.items():
        shared = {
            attr
            for method in methods.values()
            if isinstance(method, ast.AsyncFunctionDef)
            for node in ast.walk(method)
            if (attr := _self_attr(node)) is not None
        }
        if not shared:
            continue
        dispatched = {
            methods[attr]
            for method in methods.values()
            for call in _own_calls(method)
            if _terminal_name(call.func) in _EXECUTOR_TERMINALS
            for arg in call.args
            if (attr := _self_attr(arg)) in methods
        }
        closure = index.method_closure(cls, dispatched)
        for fn in sorted(closure, key=lambda f: f.lineno):
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for attr in map(_self_attr, targets):
                    if attr is not None and attr in shared:
                        yield _finding(
                            "CONC002",
                            f"{fn.name}() runs on the executor thread (it is "
                            "dispatched via run_in_executor/submit) but "
                            f"mutates self.{attr}, which the class's async "
                            "methods also touch on the event loop — shared "
                            "state must only change on the loop side",
                            path, node,
                        )


# -- CONC003 -------------------------------------------------------------


def _check_conc003(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """CONC003 — a same-file coroutine called as a bare statement."""
    index = _file_index(tree)
    for fn, cls in index.class_of.items():
        for node in _own_nodes(fn):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            callee = index.callee(node.value, cls)
            if isinstance(callee, ast.AsyncFunctionDef):
                yield _finding(
                    "CONC003",
                    f"{callee.name}() is a coroutine but the call is a bare "
                    "statement: the coroutine object is created and dropped "
                    "without ever running — await it or wrap it in "
                    "asyncio.create_task",
                    path, node,
                )


# -- CONC004 -------------------------------------------------------------


def _check_conc004(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """CONC004 — a cached pid used by a public method with no re-check."""
    index = _file_index(tree)
    for cls, methods in index.methods.items():
        init = methods.get("__init__")
        if init is None:
            continue
        pid_attrs = {
            attr
            for node in ast.walk(init)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            if (attr := _self_attr(node.targets[0])) is not None
            if any(
                isinstance(sub, ast.Call) and _terminal_name(sub.func) == "getpid"
                for sub in ast.walk(node.value)
            )
        }
        if not pid_attrs:
            continue
        rechecks = [
            method
            for method in methods.values()
            if method is not init
            and any(
                isinstance(n, ast.Assign)
                and any(_self_attr(t) in pid_attrs for t in n.targets)
                for n in ast.walk(method)
            )
            and any(_terminal_name(c.func) == "getpid" for c in _own_calls(method))
        ]
        if not rechecks:
            continue
        for name, method in methods.items():
            if method is init or method in rechecks:
                continue
            if name.startswith("_") and not name.startswith("__"):
                continue  # private helpers: callers own the re-check
            closure = index.method_closure(cls, {method})
            if any(r in closure for r in rechecks) or not any(
                _self_attr(n) in pid_attrs and isinstance(n.ctx, ast.Load)
                for fn in closure
                for n in ast.walk(fn)
            ):
                continue
            yield _finding(
                "CONC004",
                f"{name}() uses the cached process identity "
                f"({', '.join(f'self.{a}' for a in sorted(pid_attrs))}) "
                "without calling the fork re-check "
                f"({', '.join(r.name for r in rechecks)}); a forked "
                "child would silently write under its parent's identity",
                path, method,
            )


# -- CONC005 -------------------------------------------------------------


def _written_path(call: ast.Call) -> ast.expr | None:
    """The path a ``write_bytes``/``write_text``/``open(.., "w")`` writes."""
    terminal = _terminal_name(call.func)
    if terminal in ("write_bytes", "write_text") and isinstance(call.func, ast.Attribute):
        return call.func.value
    if terminal == "open" and call.args:
        modes = [*call.args[1:2], *(kw.value for kw in call.keywords if kw.arg == "mode")]
        mode = "".join(str(m.value) for m in modes if isinstance(m, ast.Constant))
        if any(c in mode for c in "wax"):
            return call.args[0]
    return None


def _shardish(
    expr: ast.expr, scope: ast.AST, index: _FileIndex, depth: int = 2
) -> bool:
    """Whether ``expr`` names a shard file.

    Seen through a local assigned in ``scope`` and through the return
    value of a same-file helper (``target = self._own_file(slot)``).
    """
    if "shard" in ast.unparse(expr).lower():
        return True
    if depth == 0:
        return False
    if isinstance(expr, ast.Name):
        return any(
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == expr.id for t in node.targets)
            and _shardish(node.value, scope, index, depth - 1)
            for node in _own_nodes(scope)
        )
    if isinstance(expr, ast.Call):
        helper = index.callee(expr, index.class_of.get(scope))
        return helper is not None and any(
            _shardish(r.value, helper, index, depth - 1) for r in _returns(helper)
        )
    return False


def _check_conc005(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """CONC005 — shard writes without write-to-temp + ``os.replace``."""
    index = _file_index(tree)
    for scope in (tree, *index.class_of):
        calls = _own_calls(scope)
        if any(index.dotted(c.func) == "os.replace" for c in calls):
            continue
        for call in calls:
            target = _written_path(call)
            if target is not None and _shardish(target, scope, index):
                yield _finding(
                    "CONC005",
                    f"direct write to shard path {ast.unparse(target)!r} "
                    "with no os.replace in the same function: a concurrent "
                    "reader can observe the partial file — write to a temp "
                    "name and os.replace() it into place",
                    path, call,
                )


# -- DET001 / DET004 -----------------------------------------------------

#: Host-clock reads, by import-normalized dotted name (DET001 sources).
_WALLCLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Terminal names of host-clock reads on any receiver.
_WALLCLOCK_TERMINALS = frozenset(
    {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "time_ns"}
)

#: Helpers whose every argument becomes part of a plan/cache identity.
_KEY_HELPERS = frozenset({"key_digest", "fingerprint", "delta_salted_key"})


def _params(fn: ast.AST) -> list[str]:
    """Positional-or-keyword parameter names, ``self``/``cls`` dropped."""
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    return names[1:] if names[:1] in (["self"], ["cls"]) else names


def _returns(fn: ast.AST) -> list[ast.Return]:
    """``fn``'s own ``return <value>`` statements."""
    return [
        n for n in _own_nodes(fn) if isinstance(n, ast.Return) and n.value is not None
    ]


def _assigned_names(
    scope: ast.AST, accepts: Callable[[ast.expr, set[str]], bool]
) -> set[str]:
    """Local names ``scope`` assigns from a value ``accepts`` (given the
    names found so far) — two passes catch forward chains (``b = a``)."""
    names: set[str] = set()
    for _ in range(2):
        for node in _own_nodes(scope):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if accepts(value, names):
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _sink_args(
    call: ast.Call, cls: str | None, index: _FileIndex, sinks: dict
) -> list[ast.expr]:
    """Argument expressions of ``call`` that land in a key identity."""
    terminal = _terminal_name(call.func)
    if terminal == "LoweredPlan" or terminal in _KEY_HELPERS:
        return [*call.args, *(kw.value for kw in call.keywords)]
    if terminal == "put" and isinstance(call.func, ast.Attribute) and call.args:
        return [call.args[0]]
    callee = index.callee(call, cls)
    names = sinks.get(callee, ()) if callee is not None else ()
    if not names:
        return []
    params = _params(callee)
    return [
        arg for i, arg in enumerate(call.args) if i < len(params) and params[i] in names
    ] + [kw.value for kw in call.keywords if kw.arg in names]


def _key_sinks(index: _FileIndex) -> dict[ast.AST, set[str]]:
    """Each function's parameters that reach a key identity.

    A parameter reaches one when it is part of an argument of
    ``LoweredPlan(...)`` or a key helper, of the key of a ``.put(key,
    value)``, of the return value of a ``*key*``-named function, or of an
    argument bound to such a parameter of another same-file function.
    """
    sinks: dict[ast.AST, set[str]] = {fn: set() for fn in index.class_of}
    changed = True
    while changed:
        changed = False
        for fn, cls in index.class_of.items():
            exprs = [a for c in _own_calls(fn) for a in _sink_args(c, cls, index, sinks)]
            if "key" in fn.name.lower():
                exprs += [r.value for r in _returns(fn)]
            flowing = set(_params(fn)) & {
                n.id for e in exprs for n in ast.walk(e) if isinstance(n, ast.Name)
            }
            if not flowing <= sinks[fn]:
                sinks[fn] |= flowing
                changed = True
    return sinks


def _key_taint_checker(
    rule_id: str, is_source: Callable[[_FileIndex, ast.Call], bool], what: str
) -> Callable[[ast.AST, str, list[str]], Iterator[Finding]]:
    """A checker flagging ``is_source`` values that reach a key identity.

    A value is tainted when it holds a source call, a call to a same-file
    function returning taint, or a local assigned from either.
    """

    def check(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
        index = _file_index(tree)
        if not any(isinstance(n, ast.Call) and is_source(index, n) for n in _tree_nodes(tree)):
            return
        returners: set[ast.AST] = set()

        def tainted(expr: ast.expr, fn: ast.AST, names: set[str]) -> bool:
            return any(
                isinstance(sub, ast.Call)
                and (
                    is_source(index, sub)
                    or index.callee(sub, index.class_of[fn]) in returners
                )
                or isinstance(sub, ast.Name) and sub.id in names
                for sub in ast.walk(expr)
            )

        def locals_of(fn: ast.AST) -> set[str]:
            return _assigned_names(fn, lambda value, names: tainted(value, fn, names))

        changed = True
        while changed:
            changed = False
            for fn in index.class_of:
                if fn not in returners and any(
                    tainted(r.value, fn, locals_of(fn)) for r in _returns(fn)
                ):
                    returners.add(fn)
                    changed = True
        sinks = _key_sinks(index)
        for fn, cls in index.class_of.items():
            names = locals_of(fn)
            for call in _own_calls(fn):
                for arg in _sink_args(call, cls, index, sinks):
                    if tainted(arg, fn, names):
                        yield _finding(
                            rule_id,
                            f"{what} flows into the plan/cache identity built "
                            f"by {_terminal_name(call.func)}() (argument "
                            f"{ast.unparse(arg)!r}); identities must depend "
                            "only on the simulated configuration",
                            path, call,
                        )
            if "key" in fn.name.lower():
                for ret in _returns(fn):
                    if tainted(ret.value, fn, names):
                        yield _finding(
                            rule_id,
                            f"{what} reaches the value returned by the "
                            f"key-building function {fn.name}()",
                            path, ret,
                        )

    return check


def _is_wallclock(index: _FileIndex, call: ast.Call) -> bool:
    return (
        index.dotted(call.func) in _WALLCLOCK_CALLS
        or _terminal_name(call.func) in _WALLCLOCK_TERMINALS
    )


def _is_identity(index: _FileIndex, call: ast.Call) -> bool:
    return isinstance(call.func, ast.Name) and call.func.id in ("id", "hash")


# -- DET002 --------------------------------------------------------------


def _is_setish(node: ast.expr, setish_vars: set[str]) -> bool:
    """Whether ``node`` evaluates to a set (literal, ``set()``, algebra)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in setish_vars
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference"
        ) and _is_setish(node.func.value, setish_vars)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        return _is_setish(node.left, setish_vars) or _is_setish(
            node.right, setish_vars
        )
    return False


def _check_det002(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """DET002 — iteration over a set, in any function of the file."""
    if not any(_is_setish(n, set()) for n in _tree_nodes(tree) if isinstance(n, ast.expr)):
        return
    index = _file_index(tree)
    for scope in (tree, *index.class_of):
        setish = _assigned_names(scope, _is_setish)
        for node in _own_nodes(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            else:  # comprehensions
                iters = [gen.iter for gen in getattr(node, "generators", ())]
            for expr in iters:
                if _is_setish(expr, setish):
                    where = f" in {scope.name}()" if scope is not tree else ""
                    yield _finding(
                        "DET002",
                        f"iteration over a set ({ast.unparse(expr)!r}){where}: "
                        "its order depends on hashing and insertion history "
                        "— iterate sorted(...), or allowlist an order-free "
                        "loop with a '# DET002: <reason>' pragma",
                        path, expr,
                    )


_CHECKERS: dict[str, Callable[[ast.AST, str, list[str]], Iterator[Finding]]] = {
    "REP001": lambda tree, path, lines: _check_rep001(tree, path),
    "REP002": lambda tree, path, lines: _check_rep002(tree, path),
    "REP003": lambda tree, path, lines: _check_rep003(tree, path),
    "REP005": lambda tree, path, lines: _check_rep005(tree, path),
    "REP006": _check_rep006,
    "REP007": _check_rep007,
    "REP008": _check_rep008,
    "CONC001": _check_conc001,
    "CONC002": _check_conc002,
    "CONC003": _check_conc003,
    "CONC004": _check_conc004,
    "CONC005": _check_conc005,
    "DET001": _key_taint_checker(
        "DET001", _is_wallclock, "a wall-clock value"
    ),
    "DET002": _check_det002,
    "DET004": _key_taint_checker(
        "DET004", _is_identity, "an id()/hash() process-local identity"
    ),
}


def apply_pragmas(findings: list[Finding], lines: list[str]) -> list[Finding]:
    """Drop findings covered by a reasoned pragma (shared escape hatch).

    Every rule honours the same ``# <RULEID>: <reason>`` convention.
    REP008 findings are exempt: a pragma cannot excuse its own missing
    reason.
    """
    kept: list[Finding] = []
    for finding in findings:
        lineno = finding.details.get("line", 0)
        if finding.rule_id != "REP008" and pragma_suppresses(
            finding.rule_id, lines, lineno
        ):
            continue
        kept.append(finding)
    return kept


def lint_source(
    source: str, path: str = "<string>", select: set[str] | None = None
) -> list[Finding]:
    """Lint one source string; returns findings sorted by line.

    Unparseable source yields a single ``SYNTAX`` finding (regardless of
    ``select`` — no rule can run on such a file). Findings covered by a
    reasoned ``# <RULEID>: <reason>`` pragma are dropped.

    Args:
        source: Python source text.
        path: Display path used in finding locations.
        select: Restrict to these rule ids (default: all).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [syntax_finding(exc, path)]
    lines = source.splitlines()
    findings: list[Finding] = []
    for rule_id, checker in _CHECKERS.items():
        if select is not None and rule_id not in select:
            continue
        findings.extend(checker(tree, path, lines))
    findings = apply_pragmas(findings, lines)
    findings.sort(key=lambda f: (f.details.get("line", 0), f.rule_id))
    return findings


def lint_paths(
    paths: list[Path], select: set[str] | None = None
) -> list[Finding]:
    """Lint files and directories (``.py`` files, recursively)."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[Finding] = []
    for file in files:
        findings.extend(
            lint_source(file.read_text(), path=str(file), select=select)
        )
    return findings


def main(argv: list[str] | None = None) -> int:
    """CLI: lint the given paths, print findings, exit 1 on any."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.lint",
        description="Reproduction-specific AST lint (REP, CONC and DET rules).",
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories")
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule_id, title in sorted(LINT_RULES.items()):
            print(f"{rule_id}  {title}")
        return 0
    if not args.paths:
        parser.error("no paths given")
    select = set(args.select.split(",")) if args.select else None
    if select is not None:
        unknown = select - set(LINT_RULES)
        if unknown:
            parser.error(f"unknown rule ids: {sorted(unknown)}")
    findings = lint_paths(args.paths, select=select)
    for finding in findings:
        print(finding.render())
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
