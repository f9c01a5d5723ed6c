#!/usr/bin/env python3
"""idicn_analysis — call-graph–aware static analyzer for idICN.

Usage:
  python3 tools/analysis/idicn_analysis.py [--rule RULE] \
      [--frontend auto|clang|internal] [--compile-db PATH] \
      [--write-baseline] [--list] [--json PATH]

Builds a whole-project call graph from the sources named by
compile_commands.json (plus all project headers) and enforces the three
transitive properties defined in callgraph.py: hot-path-alloc,
loop-blocking, lock-across-io. See DESIGN.md §12.

Findings are compared against checked-in baselines under
tools/analysis/baselines/. The comparison is a ratchet:

  * a finding NOT in the baseline fails the run (new violation);
  * a baseline entry with NO matching finding also fails the run (the
    violation was fixed — delete the entry so it cannot regress).

Exit status: 0 clean, 1 violations/stale entries, 2 usage/environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import callgraph  # noqa: E402
from callgraph import CallGraph, RULES  # noqa: E402

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "baselines")
#: Directories whose code the rules govern. Tests/bench/fuzz harnesses may
#: allocate and block freely.
ANALYZED_DIRS = ("src",)


def source_files(compile_db: str | None) -> list:
    """Repo-relative paths to analyze: TU sources from the compilation
    database intersected with ANALYZED_DIRS, plus every project header
    (headers are not TUs but hold inline hot-path definitions). Without a
    database (a fresh checkout, nothing configured) every .cpp under
    ANALYZED_DIRS is a TU."""
    files = set()
    if compile_db and os.path.exists(compile_db):
        with open(compile_db, encoding="utf-8") as fh:
            for entry in json.load(fh):
                path = os.path.normpath(os.path.join(
                    entry.get("directory", ""), entry["file"]))
                rel = os.path.relpath(path, REPO_ROOT)
                if rel.startswith(ANALYZED_DIRS):
                    files.add(rel)
    walk_sources = not files  # decided once: the walk below adds files
    for base in ANALYZED_DIRS:
        for dirpath, _dirs, names in os.walk(os.path.join(REPO_ROOT, base)):
            for name in names:
                if name.endswith((".hpp", ".h")) or (
                        walk_sources and name.endswith(".cpp")):
                    rel = os.path.relpath(os.path.join(dirpath, name),
                                          REPO_ROOT)
                    files.add(rel)
    return sorted(files)


def build_graph(files, frontend: str):
    """-> (CallGraph, problems: list[str], frontend_used: str)"""
    problems = []
    functions = []
    use = frontend
    if frontend in ("auto", "clang"):
        try:
            import clang_frontend
            use = "clang"
        except Exception as exc:  # libclang genuinely optional
            if frontend == "clang":
                raise SystemExit(
                    f"idicn_analysis: --frontend clang unavailable: {exc}")
            use = "internal"
    if use == "clang":
        import clang_frontend
        for rel in files:
            fns, supp = clang_frontend.parse_file(
                rel, os.path.join(REPO_ROOT, rel))
            functions.extend(fns)
            for line in supp.missing_reason:
                problems.append(
                    f"{rel}:{line}: suppression without justification")
    else:
        import cpp_frontend
        use = "internal"
        for rel in files:
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8",
                      errors="replace") as fh:
                text = fh.read()
            fns, supp = cpp_frontend.parse_file(rel, text)
            functions.extend(fns)
            for line in supp.missing_reason:
                problems.append(
                    f"{rel}:{line}: suppression without justification "
                    "(write `// idicn-analysis: allow(<rule>): <why>`)")
    return CallGraph(functions), problems, use


# --- baselines --------------------------------------------------------------

def baseline_path(rule: str) -> str:
    return os.path.join(BASELINE_DIR, f"{rule}.baseline")


def load_baseline(rule: str) -> dict:
    """{finding-key: justification}"""
    entries = {}
    path = baseline_path(rule)
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, why = line.partition("  #")
            entries[key.strip()] = why.strip()
    return entries


def write_baseline(rule: str, findings) -> None:
    os.makedirs(BASELINE_DIR, exist_ok=True)
    with open(baseline_path(rule), "w", encoding="utf-8") as fh:
        fh.write(
            f"# {rule} baseline — known violations, ratcheted.\n"
            "# A new finding not listed here fails CI; an entry no longer\n"
            "# found also fails CI (delete it — the ratchet only tightens).\n"
            "# Format: <function> -> <sink>  # justification\n")
        for f in sorted(findings, key=lambda f: f.key()):
            fh.write(f"{f.key()}  # TODO justify\n")


def compare(rule: str, findings, baseline: dict):
    """-> (new_findings, stale_keys, known_count)"""
    found_keys = {f.key() for f in findings}
    new = [f for f in findings if f.key() not in baseline]
    stale = sorted(k for k in baseline if k not in found_keys)
    return new, stale, len(found_keys & set(baseline))


# --- main -------------------------------------------------------------------

def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rule", choices=sorted(RULES), action="append",
                    help="run only this rule (repeatable; default: all)")
    ap.add_argument("--frontend", choices=("auto", "clang", "internal"),
                    default="auto")
    ap.add_argument("--compile-db",
                    default=os.path.join(REPO_ROOT, "compile_commands.json"))
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite baseline files from current findings")
    ap.add_argument("--list", action="store_true",
                    help="dump the call graph roots and exit")
    ap.add_argument("--json", help="write findings as JSON to this path")
    args = ap.parse_args(argv)

    files = source_files(args.compile_db)
    if not files:
        print("idicn_analysis: no sources found", file=sys.stderr)
        return 2
    graph, problems, used = build_graph(files, args.frontend)
    rules = args.rule or sorted(RULES)

    if args.list:
        hot = sorted(f.name for f in graph.functions.values() if f.hot_path)
        loop = sorted(f.name for f in graph.functions.values() if f.loop_root)
        print(f"frontend: {used}; functions: {len(graph.functions)}")
        print(f"hot-path roots ({len(hot)}):")
        for name in hot:
            print(f"  {name}")
        print(f"loop roots ({len(loop)}):")
        for name in loop:
            print(f"  {name}")
        return 0

    failed = False
    all_json = {}
    for line in problems:
        print(f"error: {line}")
        failed = True
    for rule in rules:
        findings = RULES[rule](graph)
        if args.write_baseline:
            write_baseline(rule, findings)
            print(f"{rule}: wrote {len(findings)} entries to "
                  f"{os.path.relpath(baseline_path(rule), REPO_ROOT)}")
            continue
        baseline = load_baseline(rule)
        new, stale, known = compare(rule, findings, baseline)
        all_json[rule] = {
            "new": [f.__dict__ for f in new],
            "stale": stale,
            "baselined": known,
        }
        for f in sorted(new, key=lambda f: (f.file, f.line)):
            print(f"error: NEW {f.render()}")
            failed = True
        for key in stale:
            print(f"error: STALE [{rule}] baseline entry no longer found: "
                  f"'{key}' — the violation was fixed; delete the entry "
                  f"from {os.path.relpath(baseline_path(rule), REPO_ROOT)} "
                  "so it cannot regress")
            failed = True
        status = "FAIL" if (new or stale) else "ok"
        print(f"{rule}: {status} ({len(findings)} finding(s), "
              f"{known} baselined, {len(new)} new, {len(stale)} stale) "
              f"[frontend={used}]")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(all_json, fh, indent=2, default=str)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
