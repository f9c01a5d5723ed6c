// Request traces.
//
// The paper's CDN logs carry four fields per entry: anonymized client IP,
// anonymized URL, object size, and whether the request was served locally.
// Our Request mirrors the fields the simulation consumes (object identity
// and size); client attachment (PoP + leaf) is assigned by the simulator
// per §4.2 ("assign each request to a PoP with probability proportional to
// population").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace idicn::workload {

struct Request {
  std::uint32_t object = 0;  ///< anonymized object identifier
  std::uint64_t size = 1;    ///< object size in units (1 = homogeneous)

  bool operator==(const Request&) const = default;
};

struct Trace {
  std::string name;               ///< provenance label (e.g. "Asia-synthetic")
  std::uint32_t object_count = 0; ///< universe size (ids are < object_count)
  std::vector<Request> requests;

  /// The distinct objects actually referenced (≤ object_count).
  [[nodiscard]] std::uint32_t distinct_objects() const;
};

}  // namespace idicn::workload
