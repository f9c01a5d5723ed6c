"""Call-graph model and rule engine for the idICN static analyzer.

Frontends (cpp_frontend, clang_frontend) produce `Function` records —
definitions with their outgoing calls, annotations, and the set of
MutexLock-style locks live at each call site. This module owns everything
frontend-independent: name resolution, transitive reachability, and the
three enforced properties:

  hot-path-alloc   No function annotated IDICN_HOT_PATH may transitively
                   reach an allocation (operator new / malloc / growing a
                   std container / building a std::string). Known residual
                   allocations live in a checked-in baseline that can only
                   shrink (the ratchet toward ROADMAP item 1's
                   zero-allocation hot path).
  loop-blocking    No function that runs on an event-loop thread (any
                   definition annotated IDICN_REQUIRES(<...role...>)) may
                   transitively reach a blocking call: sleeps, process
                   spawns, synchronous connect/HTTP-client traffic, condvar
                   waits. This is the transitive form
                   of the PR 7 sibling counter-fetch stall (DESIGN.md §11).
  lock-across-io   No MutexLock may be live in scope at a call that
                   performs (or transitively reaches) network I/O — the
                   "snapshot → revalidate unlocked → re-lock" invariant
                   PR 4 established by convention.

Resolution is name-based and deliberately over-approximate: a member call
`x->send(...)` links to every project definition whose terminal name is
`send` (virtual dispatch without type inference). False edges are absorbed
by the baseline/suppression machinery; missing edges would be silent, so
the primitive tables below classify the std/libc names we cannot see into.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Iterable, Optional

# --- primitive classification tables ---------------------------------------

#: Terminal call names that allocate (or may allocate by growing). Member
#: spellings (`v.push_back`) and free spellings (`malloc`) both land here
#: once the frontend reduces a call to its terminal name.
ALLOCATING_NAMES = frozenset({
    "new",  # frontends emit `new` for new-expressions
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "make_shared", "make_unique", "to_string",
    # std container / string growth
    "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
    "insert", "resize", "reserve", "append", "assign", "substr",
    "shrink_to_fit", "str", "stringstream", "ostringstream",
})

#: std::string-ish type names whose constructor call materializes a buffer.
ALLOCATING_TYPES = frozenset({
    "string", "vector", "deque", "map", "set", "unordered_map",
    "unordered_set", "list", "function",
})

#: Terminal names that block the calling thread outright.
BLOCKING_NAMES = frozenset({
    "sleep_for", "sleep_until", "usleep", "nanosleep", "sleep",
    "system", "popen", "getaddrinfo", "wait", "wait_for", "wait_until",
    "join",
})

#: Project functions that are blocking by contract even though their
#: terminal names are not in BLOCKING_NAMES (suffix-matched, `::`-separated).
BLOCKING_PROJECT_SUFFIXES = (
    "HttpClient::request",
    "HttpClient::request_streaming",
    "connect_tcp",
)

#: Terminal names that perform network I/O (the lock-across-io sinks).
#: Bare `send`/`recv` cover both the libc syscalls and Transport-style
#: member calls (`net_->send`), which is exactly the PR 4 convention.
IO_NAMES = frozenset({
    "send", "recv", "sendmsg", "recvmsg", "sendto", "recvfrom",
    "connect", "accept", "send_streaming", "connect_tcp",
})

#: Ubiquitous accessor names excluded from unqualified resolution: a
#: member call `fd.get()` must not edge into every project function named
#: `get` (that one link would pull the whole proxy into ServerWorker::flush's
#: reachable set). The cost — project functions with these names are only
#: reachable via qualified calls — is documented in DESIGN.md §12.
AMBIENT_NAMES = frozenset({
    "get", "size", "empty", "begin", "end", "data", "clear", "reset",
    "release", "count", "value", "front", "back", "str", "c_str", "what",
    "at", "swap", "first", "second", "length", "max", "min", "load",
    "store",
})

#: Names never worth recording as calls (annotation macros, control flow,
#: casts, assert machinery). Shared with the frontends.
NOISE_NAMES = frozenset({
    "if", "for", "while", "switch", "return", "catch", "sizeof",
    "alignof", "decltype", "static_assert", "assert", "defined",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "noexcept", "throw", "delete", "typeid", "alignas", "explicit",
    "__attribute__",
})


@dataclasses.dataclass
class Call:
    """One call site inside a function body."""
    callee: str                 #: as written: `serve_entry`, `net::make_response`
    line: int
    locks_held: tuple = ()      #: MutexLock variable names live at this site
    is_ctor: bool = False       #: `Type name(args)` / `Type(args)` style
    is_member: bool = False     #: spelled `obj.name(...)` / `obj->name(...)`
    is_global: bool = False     #: spelled `::name(...)` — libc, never project
    suppressed: frozenset = frozenset()  #: rules allowed at this call site

    @property
    def terminal(self) -> str:
        """Last `::` segment — the name used for primitive classification."""
        return self.callee.rsplit("::", 1)[-1]


@dataclasses.dataclass
class Function:
    """One function definition."""
    name: str                   #: fully qualified (anonymous namespaces elided)
    file: str                   #: repo-relative path
    line: int
    calls: list = dataclasses.field(default_factory=list)
    hot_path: bool = False      #: carries IDICN_HOT_PATH
    loop_root: bool = False     #: carries IDICN_REQUIRES(<...role...>)
    suppressed_rules: frozenset = frozenset()  #: idicn-analysis: allow(...)

    @property
    def terminal(self) -> str:
        return self.name.rsplit("::", 1)[-1]


@dataclasses.dataclass
class Finding:
    rule: str
    function: str               #: qualified name of the offending function
    file: str
    line: int
    sink: str                   #: primitive / blocking callee reached
    path: tuple                 #: root → … → function (qualified names)
    detail: str = ""

    def key(self) -> str:
        """Stable identity for baseline matching: file-independent so a
        function can move without churning the baseline, but per-sink so
        each allocation/blocking site ratchets individually."""
        return f"{self.function} -> {self.sink}"

    def render(self) -> str:
        via = " -> ".join(self.path) if self.path else self.function
        text = (f"{self.file}:{self.line}: [{self.rule}] {self.function} "
                f"reaches '{self.sink}'")
        if self.detail:
            text += f" ({self.detail})"
        return text + f"\n    path: {via}"


class CallGraph:
    """Whole-project call graph with suffix-based name resolution."""

    def __init__(self, functions: Iterable[Function]):
        self.functions: dict[str, Function] = {}
        self.by_terminal: dict[str, set[str]] = {}
        for fn in functions:
            existing = self.functions.get(fn.name)
            if existing is not None:
                # Overloads / redefinitions across TUs merge into one node:
                # reachability is a union over overload sets anyway.
                existing.calls.extend(fn.calls)
                existing.hot_path = existing.hot_path or fn.hot_path
                existing.loop_root = existing.loop_root or fn.loop_root
                existing.suppressed_rules = frozenset(
                    existing.suppressed_rules | fn.suppressed_rules)
            else:
                self.functions[fn.name] = fn
                self.by_terminal.setdefault(fn.terminal, set()).add(fn.name)

    def resolve(self, call: Call, caller_file: str = "") -> set:
        """Project definitions a call might dispatch to (over-approximate:
        name-based virtual dispatch). Precision rules:
          * `::name(...)` is a libc/syscall spelling — never a project edge;
          * qualified calls suffix-match (`net::make_response`);
          * unqualified member calls fan out to every definition of that
            terminal name, except AMBIENT_NAMES (see above);
          * unqualified free calls prefer same-file definitions when any
            exist — anonymous-namespace helpers are file-local, and two
            files defining a helper `fail()` must not cross-link."""
        if call.is_global:
            return set()
        if "::" in call.callee:
            suffix = call.callee.split("::")
            out = set()
            for name in self.by_terminal.get(suffix[-1], ()):  # cheap prefilter
                if name.split("::")[-len(suffix):] == suffix or name == call.callee:
                    out.add(name)
            return out
        if call.callee in AMBIENT_NAMES:
            return set()
        candidates = set(self.by_terminal.get(call.callee, ()))
        if not call.is_member and caller_file and len(candidates) > 1:
            local = {n for n in candidates
                     if self.functions[n].file == caller_file}
            if local:
                return local
        return candidates

    # --- reachability helpers ---------------------------------------------

    def reachable_from(self, roots: Iterable[str]) -> dict:
        """BFS over resolved edges; returns {function: parent-or-None}."""
        parents: dict[str, Optional[str]] = {}
        queue = deque()
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            name = queue.popleft()
            fn = self.functions[name]
            if "*" in fn.suppressed_rules:
                continue
            for call in fn.calls:
                for target in self.resolve(call, fn.file):
                    if target not in parents:
                        parents[target] = name
                        queue.append(target)
        return parents

    def path_to(self, parents: dict, name: str) -> tuple:
        path = []
        cursor: Optional[str] = name
        while cursor is not None:
            path.append(cursor)
            cursor = parents.get(cursor)
        return tuple(reversed(path))

    def transitive_sinks(self, is_direct_sink) -> set:
        """Project functions that reach a sink call, directly or through
        other project functions. `is_direct_sink(fn, call) -> bool`."""
        hits = set()
        callers: dict[str, set[str]] = {}
        for fn in self.functions.values():
            for call in fn.calls:
                if is_direct_sink(fn, call):
                    hits.add(fn.name)
                for target in self.resolve(call, fn.file):
                    callers.setdefault(target, set()).add(fn.name)
        queue = deque(hits)
        while queue:
            name = queue.popleft()
            for caller in callers.get(name, ()):
                if caller not in hits:
                    hits.add(caller)
                    queue.append(caller)
        return hits


# --- the three rules --------------------------------------------------------

def _call_allocates(call: Call) -> bool:
    if call.terminal in ALLOCATING_NAMES:
        return True
    return call.is_ctor and call.terminal in ALLOCATING_TYPES


def _matches_suffix(name: str, suffix: str) -> bool:
    return name == suffix or name.endswith("::" + suffix)


def _is_blocking_call(graph: CallGraph, call: Call, caller_file: str) -> bool:
    if call.terminal in BLOCKING_NAMES:
        return True
    if any(_matches_suffix(call.callee, s) for s in BLOCKING_PROJECT_SUFFIXES):
        return True
    return any(_matches_suffix(t, s)
               for t in graph.resolve(call, caller_file)
               for s in BLOCKING_PROJECT_SUFFIXES)


def check_hot_path_allocations(graph: CallGraph) -> list:
    """Every allocation site reachable from an IDICN_HOT_PATH root."""
    roots = [f.name for f in graph.functions.values() if f.hot_path]
    parents = graph.reachable_from(roots)
    findings = []
    for name in parents:
        fn = graph.functions[name]
        if {"hot-path-alloc", "*"} & fn.suppressed_rules:
            continue
        seen = set()
        for call in fn.calls:
            if not _call_allocates(call) or "hot-path-alloc" in call.suppressed:
                continue
            sink = call.terminal if not call.is_ctor else call.callee
            if sink in seen:
                continue  # one finding per (function, sink)
            seen.add(sink)
            findings.append(Finding(
                rule="hot-path-alloc", function=name, file=fn.file,
                line=call.line, sink=sink,
                path=graph.path_to(parents, name),
                detail="allocates on the annotated hot path"))
    return findings


def check_loop_blocking(graph: CallGraph) -> list:
    """Every blocking call reachable from an event-loop handler root."""
    roots = [f.name for f in graph.functions.values() if f.loop_root]
    parents = graph.reachable_from(roots)
    findings = []
    for name in parents:
        fn = graph.functions[name]
        if {"loop-blocking", "*"} & fn.suppressed_rules:
            continue
        seen = set()
        for call in fn.calls:
            if not _is_blocking_call(graph, call, fn.file) or \
                    "loop-blocking" in call.suppressed:
                continue
            if call.terminal in seen:
                continue
            seen.add(call.terminal)
            findings.append(Finding(
                rule="loop-blocking", function=name, file=fn.file,
                line=call.line, sink=call.terminal,
                path=graph.path_to(parents, name),
                detail="blocks a thread reachable from an event-loop root"))
    return findings


def check_lock_across_io(graph: CallGraph) -> list:
    """Calls made with a MutexLock live that perform / reach network I/O."""
    def direct_io(_fn: Function, call: Call) -> bool:
        return call.terminal in IO_NAMES

    io_set = graph.transitive_sinks(direct_io)
    findings = []
    for fn in graph.functions.values():
        if {"lock-across-io", "*"} & fn.suppressed_rules:
            continue
        for call in fn.calls:
            if not call.locks_held or "lock-across-io" in call.suppressed:
                continue
            reaches = call.terminal in IO_NAMES or any(
                t in io_set for t in graph.resolve(call, fn.file))
            if not reaches:
                continue
            findings.append(Finding(
                rule="lock-across-io", function=fn.name, file=fn.file,
                line=call.line, sink=call.terminal,
                path=(fn.name,),
                detail=f"lock(s) {', '.join(call.locks_held)} held across "
                       "network I/O"))
    return findings


RULES = {
    "hot-path-alloc": check_hot_path_allocations,
    "loop-blocking": check_loop_blocking,
    "lock-across-io": check_lock_across_io,
}
