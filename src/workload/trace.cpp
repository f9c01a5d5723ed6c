#include "workload/trace.hpp"

#include <unordered_set>

namespace idicn::workload {

std::uint32_t Trace::distinct_objects() const {
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(requests.size() / 4 + 1);
  for (const Request& r : requests) seen.insert(r.object);
  return static_cast<std::uint32_t>(seen.size());
}

}  // namespace idicn::workload
