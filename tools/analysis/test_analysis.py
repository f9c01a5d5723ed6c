#!/usr/bin/env python3
"""Self-tests for the idICN static analyzer (stdlib unittest only).

The fixtures are synthetic C++ translation units fed through the internal
frontend and the rule engine. The acceptance-critical case is
`test_seeded_transitive_blocking_violation`: an event-loop root that
reaches a sleep only through two layers of project calls MUST be flagged,
with the full root→sink path reported — that is the property the CI job
relies on to catch the next DESIGN.md §11-style stall before it ships.

Run:  python3 tools/analysis/test_analysis.py -v
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import callgraph
import cpp_frontend
import idicn_analysis
from callgraph import CallGraph, Finding


def parse(text, rel="fixture.cpp"):
    functions, supp = cpp_frontend.parse_file(rel, text)
    return functions, supp


def graph_of(*texts_and_paths):
    functions = []
    for text, rel in texts_and_paths:
        fns, _ = parse(text, rel)
        functions.extend(fns)
    return CallGraph(functions)


class FrontendTest(unittest.TestCase):
    def test_qualified_names_and_annotations(self):
        fns, _ = parse("""
            namespace idicn { namespace net {
            class Decoder {
             public:
              IDICN_HOT_PATH void feed(std::string_view bytes);
            };
            IDICN_HOT_PATH void Decoder::feed(std::string_view bytes) {
              buffer_.append(bytes.data(), bytes.size());
            }
            void helper() { feed(""); }
            }  // namespace net
            }  // namespace idicn
        """)
        by_name = {f.name: f for f in fns}
        self.assertIn("idicn::net::Decoder::feed", by_name)
        self.assertTrue(by_name["idicn::net::Decoder::feed"].hot_path)
        self.assertFalse(by_name["idicn::net::helper"].hot_path)
        callees = [c.callee for c in by_name["idicn::net::Decoder::feed"].calls]
        self.assertIn("append", callees)

    def test_loop_root_annotation_requires_role_argument(self):
        fns, _ = parse("""
            namespace idicn::runtime {
            struct Worker {
              void on_readable(int fd) IDICN_REQUIRES(loop_role_) {
                drain(fd);
              }
              void helper(int fd) IDICN_REQUIRES(mu_) {
                drain(fd);
              }
            };
            }
        """)
        by_name = {f.name: f for f in fns}
        self.assertTrue(by_name["idicn::runtime::Worker::on_readable"].loop_root)
        self.assertFalse(by_name["idicn::runtime::Worker::helper"].loop_root)

    def test_mutexlock_scoping(self):
        fns, _ = parse("""
            namespace idicn {
            void locked_then_released(Transport* net_) {
              {
                core::MutexLock lock(&mu_);
                snapshot();
              }
              net_->send(peer, msg);
            }
            void held_across(Transport* net_) {
              core::MutexLock lock(&mu_);
              net_->send(peer, msg);
            }
            }
        """)
        by_name = {f.name: f for f in fns}
        released = by_name["idicn::locked_then_released"]
        send_call = [c for c in released.calls if c.callee == "send"][0]
        self.assertEqual(send_call.locks_held, ())
        held = by_name["idicn::held_across"]
        send_call = [c for c in held.calls if c.callee == "send"][0]
        self.assertEqual(send_call.locks_held, ("lock",))

    def test_suppression_harvest_and_missing_reason(self):
        _, supp = parse("""
            void f() {
              // idicn-analysis: allow(lock-across-io): probe never waits
              g();
              // idicn-analysis: allow(loop-blocking):
              h();
            }
        """)
        lines_with = [ln for ln, rules in supp.by_line.items()
                      if "lock-across-io" in rules]
        self.assertEqual(len(lines_with), 1)
        self.assertEqual(len(supp.missing_reason), 1)

    def test_strings_comments_do_not_produce_calls(self):
        fns, _ = parse("""
            void f() {
              const char* s = "sleep_for(1s) connect(fd)";
              // sleep_for(2s) in a comment
              /* connect(fd) in a block comment */
              const char* r = R"(usleep(5))";
            }
        """)
        self.assertEqual(fns[0].calls, [])


class ResolutionTest(unittest.TestCase):
    def test_global_spelling_never_resolves_to_project(self):
        g = graph_of(("""
            namespace idicn {
            void send(int fd) { helper(); }
            void caller(int fd) { ::send(fd, buf, len, 0); }
            }
        """, "a.cpp"))
        caller = g.functions["idicn::caller"]
        call = [c for c in caller.calls if c.terminal == "send"][0]
        self.assertTrue(call.is_global)
        self.assertEqual(g.resolve(call, caller.file), set())

    def test_ambient_names_excluded(self):
        g = graph_of(("""
            namespace idicn {
            struct Client { void get(int id) { fetch(id); } };
            void caller(FileDescriptor fd) { int raw = fd.get(); }
            }
        """, "a.cpp"))
        caller = g.functions["idicn::caller"]
        call = [c for c in caller.calls if c.terminal == "get"][0]
        self.assertEqual(g.resolve(call, caller.file), set())

    def test_unqualified_free_calls_prefer_same_file(self):
        g = graph_of(
            ("namespace idicn { namespace { void fail() { abort(); } } "
             "void a() { fail(); } }", "a.cpp"),
            ("namespace idicn { namespace { void fail() { retry(); } } "
             "void b() { fail(); } }", "b.cpp"))
        caller = g.functions["idicn::a"]
        call = [c for c in caller.calls if c.terminal == "fail"][0]
        resolved = g.resolve(call, caller.file)
        self.assertEqual({g.functions[n].file for n in resolved}, {"a.cpp"})

    def test_qualified_calls_suffix_match(self):
        g = graph_of(("""
            namespace idicn { namespace net {
            HttpResponse make_response(int status) { return {}; }
            } }
            namespace idicn {
            void caller() { auto r = net::make_response(200); }
            }
        """, "a.cpp"))
        caller = g.functions["idicn::caller"]
        call = [c for c in caller.calls if c.terminal == "make_response"][0]
        self.assertEqual(g.resolve(call, caller.file),
                         {"idicn::net::make_response"})


class RuleTest(unittest.TestCase):
    # The acceptance case: an intentionally-introduced blocking call two
    # project-call hops below an event-loop root must be flagged, and the
    # report must carry the full path so the fix is obvious.
    def test_seeded_transitive_blocking_violation(self):
        g = graph_of(("""
            namespace idicn::runtime {
            void refresh_counter(int peer) {
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
            }
            void maybe_refresh(int peer) {
              refresh_counter(peer);
            }
            struct Worker {
              void on_readable(int fd) IDICN_REQUIRES(loop_role_) {
                maybe_refresh(fd);
              }
            };
            }
        """, "worker.cpp"))
        findings = callgraph.check_loop_blocking(g)
        self.assertEqual(len(findings), 1)
        f = findings[0]
        self.assertEqual(f.sink, "sleep_for")
        self.assertEqual(f.function, "idicn::runtime::refresh_counter")
        self.assertEqual(f.path, (
            "idicn::runtime::Worker::on_readable",
            "idicn::runtime::maybe_refresh",
            "idicn::runtime::refresh_counter"))

    def test_blocking_unreachable_from_loop_is_clean(self):
        g = graph_of(("""
            namespace idicn::runtime {
            void background_task() {
              std::this_thread::sleep_for(std::chrono::seconds(1));
            }
            struct Worker {
              void on_readable(int fd) IDICN_REQUIRES(loop_role_) {
                enqueue(fd);
              }
            };
            }
        """, "worker.cpp"))
        self.assertEqual(callgraph.check_loop_blocking(g), [])

    def test_blocking_project_suffix_is_a_sink(self):
        # `request` is no blocking name and the definition's body reaches
        # none: only the BLOCKING_PROJECT_SUFFIXES entry makes it a sink.
        g = graph_of(("""
            namespace idicn::runtime {
            struct Worker {
              void on_timer() IDICN_REQUIRES(loop_role_) {
                client_.request(req);
              }
            };
            std::optional<net::HttpResponse> HttpClient::request(
                const net::HttpRequest& request, std::string* error) {
              return round_trip(request, nullptr, error);
            }
            }
        """, "worker.cpp"))
        findings = callgraph.check_loop_blocking(g)
        sinks = {f.sink for f in findings}
        self.assertIn("request", sinks)

    def test_hot_path_transitive_allocation(self):
        g = graph_of(("""
            namespace idicn {
            void record(std::vector<int>& v, int x) { v.push_back(x); }
            IDICN_HOT_PATH void serve(std::vector<int>& v) { record(v, 1); }
            void cold(std::vector<int>& v) { v.push_back(2); }
            }
        """, "serve.cpp"))
        findings = callgraph.check_hot_path_allocations(g)
        self.assertEqual([(f.function, f.sink) for f in findings],
                         [("idicn::record", "push_back")])
        self.assertEqual(findings[0].path, ("idicn::serve", "idicn::record"))

    def test_hot_path_flags_new_and_string_ctor(self):
        g = graph_of(("""
            namespace idicn {
            IDICN_HOT_PATH void serve(const char* p) {
              std::string copy(p);
              auto* node = new Node();
            }
            }
        """, "serve.cpp"))
        sinks = {f.sink for f in callgraph.check_hot_path_allocations(g)}
        self.assertIn("new", sinks)
        self.assertTrue(any(s.endswith("string") for s in sinks))

    def test_lock_across_io_direct_and_transitive(self):
        g = graph_of(("""
            namespace idicn {
            void forward(Transport* net_, int peer) { net_->send(peer, m); }
            void direct_bad(Transport* net_) {
              core::MutexLock lock(&mu_);
              net_->send(peer, m);
            }
            void transitive_bad(Transport* net_) {
              core::MutexLock lock(&mu_);
              forward(net_, peer);
            }
            void fine(Transport* net_) {
              { core::MutexLock lock(&mu_); snapshot(); }
              forward(net_, peer);
            }
            }
        """, "proxy.cpp"))
        findings = callgraph.check_lock_across_io(g)
        flagged = {f.function for f in findings}
        self.assertEqual(flagged, {"idicn::direct_bad", "idicn::transitive_bad"})

    def test_call_site_suppression_clears_finding(self):
        g = graph_of(("""
            namespace idicn {
            void probe(Transport* net_) {
              core::MutexLock lock(&mu_);
              // idicn-analysis: allow(lock-across-io): nonblocking MSG_PEEK
              net_->recv(fd, buf);
            }
            }
        """, "probe.cpp"))
        self.assertEqual(callgraph.check_lock_across_io(g), [])


class BaselineTest(unittest.TestCase):
    @staticmethod
    def finding(function, sink):
        return Finding(rule="loop-blocking", function=function, file="f.cpp",
                       line=1, sink=sink, path=(function,))

    def test_compare_classifies_new_known_stale(self):
        baseline = {"a::f -> sleep_for": "why", "a::gone -> usleep": "why"}
        findings = [self.finding("a::f", "sleep_for"),
                    self.finding("a::fresh", "sleep")]
        new, stale, known = idicn_analysis.compare(
            "loop-blocking", findings, baseline)
        self.assertEqual([f.key() for f in new], ["a::fresh -> sleep"])
        self.assertEqual(stale, ["a::gone -> usleep"])
        self.assertEqual(known, 1)

    def test_baseline_file_roundtrip(self):
        findings = [self.finding("a::f", "sleep_for")]
        with tempfile.TemporaryDirectory() as tmp:
            old = idicn_analysis.BASELINE_DIR
            idicn_analysis.BASELINE_DIR = tmp
            try:
                idicn_analysis.write_baseline("loop-blocking", findings)
                loaded = idicn_analysis.load_baseline("loop-blocking")
            finally:
                idicn_analysis.BASELINE_DIR = old
        self.assertEqual(list(loaded), ["a::f -> sleep_for"])


class FullTreeTest(unittest.TestCase):
    """The analyzer, run exactly as CI runs it, is clean on the tree it
    ships with: every finding baselined, none stale, roots all present."""

    def test_repo_is_clean_against_baselines(self):
        self.assertEqual(idicn_analysis.run([]), 0)

    def test_without_compile_db_every_source_is_analyzed(self):
        """A fresh checkout has no compilation database: the fallback walk
        must pick up every .cpp, not just the first one it meets, and the
        tree must still be clean against the baselines."""
        missing = os.path.join(idicn_analysis.REPO_ROOT, "no-such-db.json")
        files = idicn_analysis.source_files(missing)
        expected = set()
        for base in idicn_analysis.ANALYZED_DIRS:
            root = os.path.join(idicn_analysis.REPO_ROOT, base)
            for dirpath, _dirs, names in os.walk(root):
                expected.update(
                    os.path.relpath(os.path.join(dirpath, name),
                                    idicn_analysis.REPO_ROOT)
                    for name in names if name.endswith(".cpp"))
        self.assertGreater(len(expected), 1)
        self.assertEqual({f for f in files if f.endswith(".cpp")}, expected)
        self.assertEqual(idicn_analysis.run(["--compile-db", missing]), 0)

    def test_annotated_roots_are_discovered(self):
        files = idicn_analysis.source_files(
            os.path.join(idicn_analysis.REPO_ROOT, "compile_commands.json"))
        graph, problems, _ = idicn_analysis.build_graph(files, "internal")
        self.assertEqual(problems, [])
        hot = {f.name for f in graph.functions.values() if f.hot_path}
        self.assertIn("idicn::net::HttpDecoder::feed", hot)
        self.assertIn("idicn::idicn::Proxy::serve_entry", hot)
        loop = {f.name for f in graph.functions.values() if f.loop_root}
        self.assertTrue(any(n.endswith("::flush") for n in loop))


if __name__ == "__main__":
    unittest.main()
