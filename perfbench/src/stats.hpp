#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file stats.hpp
/// \brief Clocks, resource usage, order statistics and seeded permutations.

namespace perfbench {

/// Monotonic wall-clock seconds (steady_clock).
double wall_now();
/// Process CPU seconds so far (user + system, every thread).
double cpu_now();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Median of `values` (mean of the two middle values for even counts); 0 for
/// an empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 100]: the smallest value with at least
/// q% of the samples at or below it.  0 for an empty input.
double percentile(std::vector<double> values, double q);

/// Number of samples strictly above the nearest-rank percentile q.
size_t samples_beyond(const std::vector<double>& values, double q);

/// The permutation of 0..n-1 chosen by `seed` and `salt` (Fisher-Yates over
/// a splitmix64 stream, so every platform draws the same order).
std::vector<size_t> seeded_permutation(size_t n, uint64_t seed, uint64_t salt);

/// splitmix64 step: advances `state` and returns the next 64-bit draw.
uint64_t splitmix64(uint64_t& state);

/// Shortest round-trip decimal form of a double, as JSON accepts it.
std::string json_number(double value);

/// JSON string literal with the mandatory escapes.
std::string json_string(const std::string& text);

}  // namespace perfbench
