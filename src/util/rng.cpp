#include "util/rng.hpp"

#include <cmath>

#include "util/int128.hpp"

namespace goc {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
  // xoshiro's state must not be all zero; splitmix64 never yields four
  // consecutive zeros, but keep the guard explicit and cheap.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  GOC_DASSERT(bound > 0, "next_below(0)");
  // Lemire's nearly-divisionless unbiased range reduction.
  u128 m = static_cast<u128>(next()) * static_cast<u128>(bound);
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0ULL - bound) % bound;
    while (lo < threshold) {
      m = static_cast<u128>(next()) * static_cast<u128>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  GOC_DASSERT(lo <= hi, "uniform_int empty range");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span == ~0ULL) return static_cast<std::int64_t>(next());
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   next_below(span + 1));
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

double Rng::normal() noexcept {
  // Marsaglia polar method; consumes a variable number of draws but is
  // deterministic for a fixed seed (the only property we need).
  for (;;) {
    const double u = 2.0 * uniform01() - 1.0;
    const double v = 2.0 * uniform01() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) noexcept {
  GOC_DASSERT(n > 0, "zipf over empty support");
  // Rejection-inversion (Hörmann & Derflinger) is overkill here; a simple
  // inverse-transform on the harmonic CDF keeps the dependency surface
  // small. n is modest in every workload we generate.
  double h = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) h += 1.0 / std::pow(static_cast<double>(k), s);
  const double target = uniform01() * h;
  double acc = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), s);
    if (acc >= target) return k;
  }
  return n;
}

Rng Rng::split() noexcept { return Rng(next() ^ 0xA5A5A5A5DEADBEEFULL); }

}  // namespace goc
