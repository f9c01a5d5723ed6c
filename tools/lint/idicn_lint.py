#!/usr/bin/env python3
"""Project-specific concurrency lint (AST-free, stdlib-only).

Enforces the repo's threading contract (DESIGN.md, "Threading model")
where clang-tidy and -Wthread-safety cannot: rules about *which files*
may use which primitives. Runs as a ctest (`idicn_lint`) and in the CI
`lint` job; exits non-zero with file:line diagnostics on any violation.

Rules
  raw-sync     std::mutex / std::condition_variable / lock_guard /
               unique_lock / scoped_lock / shared_mutex /
               recursive_mutex — and the <mutex> / <condition_variable>
               / <shared_mutex> includes — only in src/core/sync.hpp.
               Everything else uses the annotated wrappers so Clang
               thread-safety analysis sees every acquisition.
  raw-thread   std::thread (the type, not std::thread::id or
               std::this_thread) only in src/core/sync.hpp; everyone
               else uses core::sync::Thread (join-on-destruction).
  loop-blocking  No sleeps, process spawns, or synchronous connect/HTTP
               helpers inside the event-loop implementation files —
               callbacks run on the loop thread and a blocked loop
               stalls every connection it owns. When a compilation
               database exists (any configured build), this rule is
               delegated to the call-graph analyzer
               (tools/analysis/idicn_analysis.py --rule loop-blocking),
               which checks the property *transitively* from every
               IDICN_REQUIRES(<role>) handler instead of per-file; the
               regex form below is the fallback for unconfigured trees.
  perf-macro   The IDICN_PERF_COUNTERS token stays inside
               src/core/perf_counters.hpp; code branches on the toggle
               via `if constexpr (core::kPerfCountersEnabled)` so the
               zero-cost contract cannot be broken by a stray #ifdef.
  iostream-in-src  No std::cout/cerr/clog in library code (src/);
               libraries report through return values and exceptions,
               binaries (bench/, examples/, tools/) own the terminal.
  raw-backoff  No raw sleeps (sleep_for / sleep_until / usleep /
               nanosleep) anywhere in src/ outside the fault injector's
               latency leg (src/net/fault_injector.cpp). Hand-rolled
               sleep-and-retry loops dodge the jitter, deadline, and
               token-budget discipline — all backoff goes through
               runtime::RetryPolicy::schedule_backoff, which reschedules
               on the owning executor's timer wheel instead of sleeping
               the loop thread.
  body-copy    No whole-body materialization on the serving data path
               (src/runtime/): `<response>.serialize()` flattens head +
               body into one string (request.serialize() is fine —
               requests are small), and `body.assign(...)` re-buffers
               bytes that already live in shared chunks. Responses leave
               the runtime through the chunk queue / BodyProducer write
               path (serialize_head() + core::Chunk), never as one flat
               copy per connection.
  hedge-timer  The multi-source fetch policy files (the fetcher, the RTT
               estimator, the CUBIC window) take all time as injected
               arguments (now_ms from the transport, explicit now
               parameters) and arm every delay — the hedge timer above
               all — via Executor::schedule, i.e. the owning loop's
               TimerWheel. Reading a wall clock directly
               (steady_clock::now, clock_gettime, gettimeofday) or
               creating an OS timer (timerfd, setitimer, alarm) there
               would break the virtual-clock determinism the unit tests
               rely on and dodge the Karn-shifted hedge-delay
               discipline.
  unguarded-sync  In the concurrent layers (src/runtime/, src/cache/)
               every declared core::sync::Mutex / ThreadRole must be
               referenced by at least one thread-safety annotation
               (IDICN_GUARDED_BY / IDICN_PT_GUARDED_BY / IDICN_REQUIRES
               / IDICN_EXCLUDES / IDICN_ASSERT_CAPABILITY) in the same
               file — a capability nothing is annotated against guards
               nothing the analysis can see, i.e. un-annotated mutable
               shared state.

Comments and string literals are stripped before matching, so prose
mentioning std::mutex is fine; code using it is not.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

# Directories holding first-party C++ sources.
SCAN_DIRS = ("src", "tests", "bench", "examples", "fuzz")
CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

SYNC_HEADER = Path("src/core/sync.hpp")
PERF_HEADER = Path("src/core/perf_counters.hpp")

# Event-loop implementation files: their code runs on the loop thread.
LOOP_FILES = {
    Path("src/runtime/event_loop.cpp"),
    Path("src/runtime/event_loop.hpp"),
    Path("src/runtime/server_group.cpp"),
    Path("src/runtime/poller.cpp"),
    Path("src/runtime/timer_wheel.cpp"),
}

# Concurrent layers where every sync capability must be annotated against.
GUARDED_DIRS = ("src/runtime", "src/cache", "src/testbed")

# The serving data path: whole-body copies here scale memory with
# clients × object_size (the PR-6 bug class).
BODY_COPY_DIR = "src/runtime"

# The only library file allowed to block the calling thread on purpose:
# the fault injector's latency leg (chaos harness, never on a serving
# loop). RetryPolicy lost its seat when backoff moved to timer-wheel
# rescheduling (schedule_backoff) — nothing in src/runtime sleeps anymore.
RAW_BACKOFF_ALLOWED = {
    Path("src/net/fault_injector.cpp"),
}

# Multi-source fetch policy files: time is injected (now_ms / explicit
# now arguments) and timers arm only via Executor::schedule on the
# owning loop's TimerWheel.
HEDGE_TIMER_FILES = {
    Path("src/runtime/multi_source_fetcher.hpp"),
    Path("src/runtime/multi_source_fetcher.cpp"),
    Path("src/runtime/rtt_estimator.hpp"),
    Path("src/runtime/rtt_estimator.cpp"),
    Path("src/runtime/congestion_window.hpp"),
    Path("src/runtime/congestion_window.cpp"),
}

RAW_SYNC = re.compile(
    r"std::(?:mutex|recursive_mutex|recursive_timed_mutex|timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
SYNC_INCLUDE = re.compile(
    r"#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)
# std::thread the type — but not std::thread::id / std::this_thread.
RAW_THREAD = re.compile(r"std::thread\b(?!\s*::)")
LOOP_BLOCKING = re.compile(
    r"\b(?:sleep_for|sleep_until|usleep|nanosleep|system|popen"
    r"|connect_tcp|HttpClient)\s*\(|\bHttpClient\b"
)
RAW_SLEEP = re.compile(r"\b(?:sleep_for|sleep_until|usleep|nanosleep)\s*\(")
# Direct wall-clock reads and OS timer primitives: banned in the hedge
# policy files, where every delay must arm on the executor's timer wheel.
RAW_CLOCK = re.compile(
    r"\bstd::chrono::(?:steady_clock|system_clock|high_resolution_clock)"
    r"::now\b"
    r"|\b(?:clock_gettime|gettimeofday|timerfd_create|timerfd_settime"
    r"|setitimer|alarm)\s*\("
)
PERF_MACRO = re.compile(r"\bIDICN_PERF_COUNTERS\b")
IOSTREAM_PRINT = re.compile(r"std::(?:cout|cerr|clog)\b")
# A Mutex/ThreadRole declaration (member or local; not a reference,
# pointer, or parameter — those alias a capability declared elsewhere).
SYNC_DECL = re.compile(
    r"\b(?:core::sync::)?(?:Mutex|ThreadRole)\s+(\w+)\s*(?:;|\{)"
)
# Identifiers referenced inside any thread-safety annotation's argument
# list (qualified references like shard.mutex contribute every token).
SYNC_ANNOTATION = re.compile(
    r"\bIDICN_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES"
    r"|ASSERT_CAPABILITY)\s*\(([^)]*)\)"
)
# `<x>.serialize(` — matches serialize() calls but not serialize_head().
BODY_COPY_SERIALIZE = re.compile(r"\b(\w+)\.serialize\s*\(")
BODY_COPY_ASSIGN = re.compile(r"\bbody\.assign\s*\(")

_STRIP = re.compile(
    r'"(?:\\.|[^"\\])*"'      # string literals
    r"|'(?:\\.|[^'\\])*'"     # char literals (digit separators strip harmlessly)
    r"|//[^\n]*"              # line comments
    r"|/\*.*?\*/",            # block comments
    re.S,
)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments/strings, preserving newlines for line numbers."""
    return _STRIP.sub(lambda m: "\n" * m.group(0).count("\n"), text)


def run_callgraph_loop_blocking() -> list[str] | None:
    """Delegate loop-blocking to the call-graph analyzer when it can run.

    Returns the analyzer's diagnostics (empty list = clean) or None when
    no compilation database exists — the caller then keeps the per-file
    regex rule. The analyzer subsumes the regex: it walks transitive
    reachability from every IDICN_REQUIRES(<role>) handler, so a sleep
    three calls below a loop callback is caught even when it lives in a
    file the regex never singles out.
    """
    compile_db = REPO_ROOT / "compile_commands.json"
    analyzer = REPO_ROOT / "tools" / "analysis" / "idicn_analysis.py"
    if not compile_db.exists() or not analyzer.exists():
        return None
    import subprocess
    proc = subprocess.run(
        [sys.executable, str(analyzer), "--rule", "loop-blocking",
         "--compile-db", str(compile_db)],
        capture_output=True, text=True)
    if proc.returncode == 0:
        return []
    return [line for line in (proc.stdout + proc.stderr).splitlines()
            if line.strip()]


def check_file(rel: Path, text: str,
               skip_loop_blocking: bool = False) -> list[str]:
    findings: list[str] = []
    code = strip_comments_and_strings(text)

    def report(line_index: int, rule: str, message: str) -> None:
        findings.append(f"{rel}:{line_index + 1}: [{rule}] {message}")

    for i, line in enumerate(code.splitlines()):
        if rel != SYNC_HEADER:
            if RAW_SYNC.search(line) or SYNC_INCLUDE.search(line):
                report(i, "raw-sync",
                       "raw standard sync primitive; use the annotated "
                       "wrappers in core/sync.hpp (Mutex, MutexLock, CondVar)")
            if RAW_THREAD.search(line):
                report(i, "raw-thread",
                       "raw std::thread; use core::sync::Thread "
                       "(join-on-destruction, annotation-friendly)")
        if rel in LOOP_FILES and not skip_loop_blocking and \
                LOOP_BLOCKING.search(line):
            report(i, "loop-blocking",
                   "blocking call in event-loop code; loop callbacks must "
                   "not sleep, spawn, or issue synchronous network I/O")
        if (rel.parts[0] == "src" and rel not in RAW_BACKOFF_ALLOWED
                and RAW_SLEEP.search(line)):
            report(i, "raw-backoff",
                   "raw sleep in library code; all retry backoff goes "
                   "through runtime::RetryPolicy (jitter, deadlines, "
                   "token budget) — see RetryPolicy::schedule_backoff")
        if rel in HEDGE_TIMER_FILES and RAW_CLOCK.search(line):
            report(i, "hedge-timer",
                   "raw clock/OS-timer in fetch policy code; hedging and "
                   "backoff delays arm via Executor::schedule (the loop's "
                   "TimerWheel) and all time is injected (now_ms / explicit "
                   "now arguments) so virtual-clock tests stay exact")
        if rel != PERF_HEADER and PERF_MACRO.search(line):
            report(i, "perf-macro",
                   "IDICN_PERF_COUNTERS must not leak outside "
                   "core/perf_counters.hpp; branch on "
                   "`if constexpr (core::kPerfCountersEnabled)` instead")
        if rel.parts[0] == "src" and IOSTREAM_PRINT.search(line):
            report(i, "iostream-in-src",
                   "no std::cout/cerr/clog in library code; report through "
                   "return values/exceptions, let binaries own the terminal")
        if str(rel.parent).replace("\\", "/") == BODY_COPY_DIR:
            for call in BODY_COPY_SERIALIZE.finditer(line):
                if call.group(1) != "request":
                    report(i, "body-copy",
                           f"'{call.group(1)}.serialize()' flattens a whole "
                           "response on the serving path; send "
                           "serialize_head() plus shared chunks through the "
                           "connection's output queue instead")
            if BODY_COPY_ASSIGN.search(line):
                report(i, "body-copy",
                       "body.assign() re-buffers bytes on the serving path; "
                       "keep bodies as shared core::Chunk references")

    if str(rel.parent).replace("\\", "/") in GUARDED_DIRS:
        annotated: set[str] = set()
        for match in SYNC_ANNOTATION.finditer(code):
            annotated.update(re.findall(r"\w+", match.group(1)))
        for i, line in enumerate(code.splitlines()):
            for decl in SYNC_DECL.finditer(line):
                if decl.group(1) not in annotated:
                    report(i, "unguarded-sync",
                           f"'{decl.group(1)}' is never named by an "
                           "IDICN_GUARDED_BY / IDICN_PT_GUARDED_BY / "
                           "IDICN_REQUIRES / IDICN_EXCLUDES / "
                           "IDICN_ASSERT_CAPABILITY annotation in this "
                           "file; un-annotated mutable shared state is "
                           "invisible to -Wthread-safety")
    return findings


def main() -> int:
    findings: list[str] = []
    scanned = 0
    delegated = run_callgraph_loop_blocking()
    if delegated is not None:
        findings.extend(f"[loop-blocking/callgraph] {line}"
                        for line in delegated)
    for top in SCAN_DIRS:
        base = REPO_ROOT / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(REPO_ROOT)
            scanned += 1
            findings.extend(check_file(rel, path.read_text(encoding="utf-8"),
                                       skip_loop_blocking=delegated is not None))

    if findings:
        print("\n".join(findings))
        print(f"\nidicn_lint: {len(findings)} violation(s) "
              f"in {scanned} files", file=sys.stderr)
        return 1
    print(f"idicn_lint: OK ({scanned} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
