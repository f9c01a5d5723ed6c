// Object-size models.
//
// The baseline experiments treat objects as unit-sized (the paper
// provisions caches in objects, §4.1). The heterogeneous-size variation
// (§5 "other parameters") draws per-object sizes from a heavy-tailed
// distribution, *independent of popularity* — the paper observes no strong
// size–popularity correlation in the real traces, and reports <1% effect.
#pragma once

#include <cstdint>
#include <random>
#include <string>

namespace idicn::workload {

enum class SizeModelKind {
  Unit,       ///< every object is 1 unit
  LogNormal,  ///< web-like body (most objects small, some large)
  Pareto      ///< heavier tail
};

[[nodiscard]] std::string to_string(SizeModelKind kind);

class SizeModel {
public:
  /// Unit sizes.
  SizeModel() = default;

  /// `mean` is the target mean size in units (≥1). LogNormal uses
  /// sigma=1.0 in log space; Pareto uses shape 1.5.
  SizeModel(SizeModelKind kind, double mean);

  [[nodiscard]] SizeModelKind kind() const noexcept { return kind_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

  /// Sample one object's size (≥1).
  [[nodiscard]] std::uint64_t sample(std::mt19937_64& rng) const;

private:
  SizeModelKind kind_ = SizeModelKind::Unit;
  double mean_ = 1.0;
};

}  // namespace idicn::workload
