#pragma once

// IDICN_HOT_PATH marks a function as part of the cache-hit serving chain:
// the decoder fast path, the proxy hit lookup, the sharded-cache get, and
// the ServerGroup write flush. tools/analysis/idicn_analysis.py treats
// every annotated definition as a root and proves nothing reachable from
// it allocates (rule `hot-path-alloc`), modulo the shrinking baseline in
// tools/analysis/baselines/ — the ratchet toward ROADMAP item 1's
// zero-allocation hot path. The runtime complement is
// tests/test_hot_path_allocs.cpp, which counts real operator-new calls
// per request on the same chain.
//
// Under Clang the macro also leaves an `annotate` attribute in the AST so
// the libclang frontend can find roots without re-lexing; GCC has no
// equivalent, and the analyzer's internal frontend matches the macro
// token textually, so expanding to nothing is fine there.
#if defined(__clang__)
#define IDICN_HOT_PATH __attribute__((annotate("idicn_hot_path")))
#else
#define IDICN_HOT_PATH
#endif
