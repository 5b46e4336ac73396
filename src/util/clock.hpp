#pragma once

#include <chrono>

/// \file clock.hpp
/// \brief The one wall-time helper behind every `seconds` field: pass and
/// flow reports, batch and autotune reports, database build times.

namespace mighty::util {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed on the steady clock since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace mighty::util
