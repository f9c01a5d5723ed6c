// Lightweight hot-path performance counters.
//
// The replica-routing hot path (HolderIndex queries, the simulator's
// decision loop) is instrumented with these counters so benches can report
// *why* a run was fast or slow (walk lengths, early exits, memo hits), not
// just how long it took. The layer is compiled out entirely unless the
// build defines IDICN_PERF_COUNTERS (the default CMake configuration turns
// it on; configure with -DIDICN_PERF_COUNTERS=OFF for peak-speed builds):
// every bump() inlines to nothing, and the struct degenerates to inert
// zero-valued fields, so instrumented call sites are zero-cost.
//
// Threading contract (see DESIGN.md §"Threading model"): a PerfCounters
// instance is owned by exactly one thread — the thread running the
// simulator or holder index that bumps it. The fields are deliberately
// plain integers, not atomics: turning every hot-path bump into a
// `lock add` would tax the very paths they measure. Cross-thread
// aggregation happens only after the owning thread has been joined
// (compare_designs merges per-worker metrics after the pool joins).
// Counters that need live cross-thread sampling belong in an observer
// Stats struct built on core::sync::RelaxedCounter instead, as the socket
// runtime's (Proxy::Stats and the rest) are.
//
// The IDICN_PERF_COUNTERS macro must not leak outside this header
// (enforced by tools/lint/idicn_lint.py) — code that needs to branch on
// the toggle uses `if constexpr (core::kPerfCountersEnabled)`.
#pragma once

#include <cstdint>

namespace idicn::core {

#if defined(IDICN_PERF_COUNTERS)
inline constexpr bool kPerfCountersEnabled = true;
#else
inline constexpr bool kPerfCountersEnabled = false;
#endif

struct PerfCounters {
  // --- HolderIndex -----------------------------------------------------
  std::uint64_t nearest_queries = 0;     ///< nearest()/nearest_within() calls
  std::uint64_t candidate_walks = 0;     ///< cost-ordered walks started
  std::uint64_t candidates_visited = 0;  ///< candidates examined across all queries
  std::uint64_t pops_scanned = 0;        ///< per-PoP buckets touched by queries
  std::uint64_t pops_pruned = 0;         ///< PoP buckets skipped via the cost bound
  std::uint64_t early_exits = 0;         ///< walks cut short before exhausting replicas
  std::uint64_t sorts_avoided = 0;       ///< queries answered without materialize+sort

  // --- Simulator decision loop ----------------------------------------
  std::uint64_t origin_cost_memo_hits = 0;  ///< origin distances answered from the memo

  /// Increment `field` by `n`; compiles to nothing when the layer is off.
  inline void bump(std::uint64_t PerfCounters::*field, std::uint64_t n = 1) noexcept {
    if constexpr (kPerfCountersEnabled) this->*field += n;
  }

  /// Accumulate another counter set (e.g. HolderIndex counters into the
  /// run's SimulationMetrics).
  void merge(const PerfCounters& other) noexcept {
    nearest_queries += other.nearest_queries;
    candidate_walks += other.candidate_walks;
    candidates_visited += other.candidates_visited;
    pops_scanned += other.pops_scanned;
    pops_pruned += other.pops_pruned;
    early_exits += other.early_exits;
    sorts_avoided += other.sorts_avoided;
    origin_cost_memo_hits += other.origin_cost_memo_hits;
  }

  void reset() noexcept { *this = PerfCounters{}; }
};

}  // namespace idicn::core
