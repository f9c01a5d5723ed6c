#!/usr/bin/env python3
"""Unit tests for the concurrency lint (stdlib unittest only).

Each case feeds a synthetic source through check_file and asserts on the
rule tags in the produced diagnostics — the same path `ctest -R
idicn_lint` exercises against the real tree, minus the filesystem walk.

Run:  python3 tools/lint/test_idicn_lint.py -v
"""

import os
import sys
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import idicn_lint
from idicn_lint import check_file


def rules_of(findings):
    out = []
    for f in findings:
        out.append(f.split("[", 1)[1].split("]", 1)[0])
    return out


class RawPrimitiveTest(unittest.TestCase):
    def test_raw_mutex_flagged_outside_sync_header(self):
        findings = check_file(Path("src/idicn/proxy.cpp"),
                              "std::mutex mu_;\n")
        self.assertEqual(rules_of(findings), ["raw-sync"])

    def test_raw_mutex_allowed_in_sync_header(self):
        findings = check_file(idicn_lint.SYNC_HEADER,
                              "std::mutex raw_;\n#include <mutex>\n")
        self.assertEqual(findings, [])

    def test_sync_include_flagged(self):
        findings = check_file(Path("src/cache/lru_cache.cpp"),
                              "#include <condition_variable>\n")
        self.assertEqual(rules_of(findings), ["raw-sync"])

    def test_raw_thread_flagged_but_this_thread_ok(self):
        bad = check_file(Path("src/runtime/http_client.cpp"),
                         "std::thread worker(run);\n")
        self.assertEqual(rules_of(bad), ["raw-thread"])
        ok = check_file(Path("src/runtime/http_client.cpp"),
                        "auto id = std::thread::id{};\n")
        self.assertEqual(ok, [])

    def test_prose_mentions_are_not_violations(self):
        findings = check_file(
            Path("src/idicn/proxy.cpp"),
            "// std::mutex is banned here\n"
            "const char* doc = \"std::thread usleep(3)\";\n")
        self.assertEqual(findings, [])


class LoopBlockingTest(unittest.TestCase):
    LOOP_FILE = Path("src/runtime/event_loop.cpp")

    def test_sleep_in_loop_file_flagged(self):
        findings = check_file(self.LOOP_FILE, "sleep_for(backoff);\n")
        self.assertIn("loop-blocking", rules_of(findings))

    def test_skip_flag_disables_regex_rule(self):
        findings = check_file(self.LOOP_FILE, "sleep_for(backoff);\n",
                              skip_loop_blocking=True)
        self.assertNotIn("loop-blocking", rules_of(findings))
        # the raw-backoff rule still applies: delegation replaces only
        # the per-file loop heuristic, not the library-wide sleep ban
        self.assertIn("raw-backoff", rules_of(findings))

    def test_non_loop_file_not_subject_to_rule(self):
        findings = check_file(Path("src/idicn/nrs.cpp"),
                              "client.connect_tcp(host);\n")
        self.assertNotIn("loop-blocking", rules_of(findings))

    def test_delegation_contract(self):
        """With a compile db (configured tree) the analyzer runs and the
        checked-in baselines make it clean; without one it returns None
        and the regex fallback stays active."""
        delegated = idicn_lint.run_callgraph_loop_blocking()
        has_db = (idicn_lint.REPO_ROOT / "compile_commands.json").exists()
        if has_db:
            self.assertEqual(delegated, [])
        else:
            self.assertIsNone(delegated)


class BackoffAndPerfTest(unittest.TestCase):
    def test_raw_sleep_in_library_flagged(self):
        findings = check_file(Path("src/idicn/reverse_proxy.cpp"),
                              "usleep(1000);\n")
        self.assertEqual(rules_of(findings), ["raw-backoff"])

    def test_sanctioned_backoff_files_allowed(self):
        for rel in idicn_lint.RAW_BACKOFF_ALLOWED:
            findings = check_file(rel, "sleep_for(jittered);\n")
            self.assertNotIn("raw-backoff", rules_of(findings))

    def test_retry_policy_lost_its_backoff_seat(self):
        # Backoff is timer-wheel rescheduling now; a raw sleep creeping
        # back into retry.cpp must be flagged like any other library file.
        findings = check_file(Path("src/runtime/retry.cpp"),
                              "sleep_for(jittered);\n")
        self.assertEqual(rules_of(findings), ["raw-backoff"])

    def test_perf_macro_containment(self):
        findings = check_file(Path("src/net/sim_net.cpp"),
                              "#ifdef IDICN_PERF_COUNTERS\n")
        self.assertEqual(rules_of(findings), ["perf-macro"])
        ok = check_file(idicn_lint.PERF_HEADER,
                        "#ifdef IDICN_PERF_COUNTERS\n")
        self.assertEqual(ok, [])


class HedgeTimerTest(unittest.TestCase):
    FETCHER = Path("src/runtime/multi_source_fetcher.cpp")

    def test_raw_clock_in_fetcher_flagged(self):
        findings = check_file(
            self.FETCHER,
            "const auto t0 = std::chrono::steady_clock::now();\n")
        self.assertEqual(rules_of(findings), ["hedge-timer"])

    def test_os_timer_in_estimator_flagged(self):
        findings = check_file(Path("src/runtime/rtt_estimator.cpp"),
                              "int fd = timerfd_create(CLOCK_MONOTONIC, 0);\n")
        self.assertEqual(rules_of(findings), ["hedge-timer"])

    def test_executor_schedule_is_the_sanctioned_path(self):
        findings = check_file(
            self.FETCHER,
            "hedge_timer = exec->schedule(delay, [self] { go(); });\n"
            "attempt.started_ms = fetcher->net_->now_ms();\n")
        self.assertEqual(findings, [])

    def test_rule_scoped_to_policy_files(self):
        # The event loop's now_ms legitimately reads the steady clock.
        findings = check_file(Path("src/runtime/event_loop.cpp"),
                              "const auto t0 = std::chrono::steady_clock::now();\n")
        self.assertNotIn("hedge-timer", rules_of(findings))

    def test_retry_is_outside_the_policy_files(self):
        # retry.cpp is not a fetch-policy file; the hedge-timer rule must
        # not claim it.
        findings = check_file(Path("src/runtime/retry.cpp"),
                              "deadline - std::chrono::steady_clock::now();\n")
        self.assertNotIn("hedge-timer", rules_of(findings))


class BodyCopyTest(unittest.TestCase):
    def test_response_serialize_on_serving_path_flagged(self):
        findings = check_file(Path("src/runtime/server_group.cpp"),
                              "auto wire = response.serialize();\n")
        self.assertIn("body-copy", rules_of(findings))

    def test_request_serialize_is_fine(self):
        findings = check_file(Path("src/runtime/async_http_client.cpp"),
                              "auto wire = request.serialize();\n")
        self.assertNotIn("body-copy", rules_of(findings))

    def test_body_assign_flagged(self):
        findings = check_file(Path("src/runtime/server_group.cpp"),
                              "body.assign(chunk.begin(), chunk.end());\n")
        self.assertIn("body-copy", rules_of(findings))


class UnguardedSyncTest(unittest.TestCase):
    def test_unreferenced_mutex_flagged(self):
        findings = check_file(Path("src/runtime/worker.cpp"),
                              "core::sync::Mutex mu_;\n")
        self.assertEqual(rules_of(findings), ["unguarded-sync"])

    def test_annotated_mutex_ok(self):
        findings = check_file(
            Path("src/runtime/worker.cpp"),
            "core::sync::Mutex mu_;\n"
            "int pending_ IDICN_GUARDED_BY(mu_);\n")
        self.assertEqual(findings, [])

    def test_rule_only_in_concurrent_layers(self):
        findings = check_file(Path("src/idicn/proxy.cpp"),
                              "core::sync::Mutex mu_;\n")
        self.assertNotIn("unguarded-sync", rules_of(findings))


if __name__ == "__main__":
    unittest.main()
