#include "common/rng.hpp"

#include <cmath>
#include <random>

namespace ovnes {
namespace {

// FNV-1a over the label bytes, mixed with parent seed and index via
// splitmix64 finalization. Quality is ample for seeding the engine.
std::uint64_t mix(std::uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

RngStream RngStream::derive(std::string_view label, std::uint64_t index) const {
  std::uint64_t h = 1469598103934665603ULL;
  for (char ch : label) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return RngStream(mix(mix(seed_ ^ h) + index));
}

double RngStream::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double RngStream::gaussian(double mean, double stddev) {
  if (stddev <= 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double RngStream::truncated_gaussian(double mean, double stddev, double lo) {
  if (stddev <= 0.0) return mean < lo ? lo : mean;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double v = gaussian(mean, stddev);
    if (v >= lo) return v;
  }
  return lo;  // pathological mean far below lo: clamp
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double RngStream::exponential(double mean) {
  if (mean <= 0.0) return 0.0;
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double RngStream::pareto(double alpha, double xmin) {
  if (alpha <= 0.0 || xmin <= 0.0) return xmin;
  // Inverse CDF: x = xmin / u^(1/alpha), u ~ U(0, 1]. uniform() returns
  // [0, 1); flip it so u = 0 (infinite draw) is unreachable.
  const double u = 1.0 - uniform();
  return xmin * std::pow(u, -1.0 / alpha);
}

double RngStream::lognormal(double log_mean, double log_sigma) {
  return std::exp(gaussian(log_mean, log_sigma));
}

bool RngStream::flip(double p_true) {
  return std::bernoulli_distribution(p_true)(engine_);
}

}  // namespace ovnes
