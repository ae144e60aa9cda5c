#include "common/rng.h"

#include <cmath>

namespace gisql {

namespace {
double Zeta(int64_t n, double theta) {
  double sum = 0.0;
  for (int64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}
}  // namespace

ZipfSampler::ZipfSampler(int64_t n, double theta) : n_(n), theta_(theta) {
  if (n <= 1 || theta <= 0.0) return;
  zetan_ = Zeta(n, theta);
  alpha_ = 1.0 / (1.0 - theta);
  const double zeta2 = Zeta(2, theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
  half_pow_theta_ = std::pow(0.5, theta);
}

int64_t ZipfSampler::Sample(Rng& rng) const {
  if (n_ <= 1) return 1;
  if (theta_ <= 0.0) return rng.Uniform(1, n_);
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 1;
  if (uz < 1.0 + half_pow_theta_) return 2;
  return 1 + static_cast<int64_t>(static_cast<double>(n_) *
                                  std::pow(eta_ * u - eta_ + 1.0, alpha_));
}

}  // namespace gisql
