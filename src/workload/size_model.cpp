#include "workload/size_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace idicn::workload {

std::string to_string(SizeModelKind kind) {
  switch (kind) {
    case SizeModelKind::Unit: return "unit";
    case SizeModelKind::LogNormal: return "lognormal";
    case SizeModelKind::Pareto: return "pareto";
  }
  return "unknown";
}

SizeModel::SizeModel(SizeModelKind kind, double mean) : kind_(kind), mean_(mean) {
  if (mean < 1.0) throw std::invalid_argument("SizeModel: mean must be >= 1");
}

std::uint64_t SizeModel::sample(std::mt19937_64& rng) const {
  switch (kind_) {
    case SizeModelKind::Unit:
      return 1;
    case SizeModelKind::LogNormal: {
      // mean of lognormal = exp(mu + sigma^2/2); solve mu for sigma = 1.
      constexpr double kSigma = 1.0;
      const double mu = std::log(mean_) - kSigma * kSigma / 2.0;
      std::lognormal_distribution<double> dist(mu, kSigma);
      return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(dist(rng))));
    }
    case SizeModelKind::Pareto: {
      // Pareto with shape a=1.5: mean = a·xm/(a−1) = 3·xm; xm = mean/3.
      constexpr double kShape = 1.5;
      const double xm = mean_ * (kShape - 1.0) / kShape;
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      const double u = std::max(uniform(rng), 1e-12);
      const double value = xm / std::pow(u, 1.0 / kShape);
      return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(value)));
    }
  }
  return 1;
}

}  // namespace idicn::workload
