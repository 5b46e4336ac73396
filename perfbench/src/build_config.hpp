#pragma once

#include <cstddef>
#include <string>

#include "api/api.hpp"
#include "flow/session.hpp"
#include "opt/oracle.hpp"
#include "util/mutex.hpp"

/// \file build_config.hpp
/// \brief Build-hazard guard: the benchmark must be compiled with the same
/// layout-relevant configuration as the library it links.
///
/// `util::Mutex` grows an owner field when MIGHTY_LOCK_ORDER_CHECKS is on
/// (builds without NDEBUG), so a benchmark compiled without -DNDEBUG against
/// a Release libmighty.a sees different object layouts than the library code
/// and crashes inside BatchRunner::run.  Each side records what it was
/// compiled with through PERFBENCH_BUILD_CONFIG(); the two are compared at
/// start-up.

namespace perfbench {

struct BuildConfig {
  bool ndebug = false;
  bool unchecked = false;
  bool lock_order_checks = false;
  size_t mutex_size = 0;
  size_t session_size = 0;
  size_t oracle_size = 0;
  size_t database_size = 0;
  size_t flow_report_size = 0;
  size_t service_params_size = 0;
};

#ifdef NDEBUG
#define PERFBENCH_NDEBUG true
#else
#define PERFBENCH_NDEBUG false
#endif
#ifdef MIGHTY_UNCHECKED
#define PERFBENCH_UNCHECKED true
#else
#define PERFBENCH_UNCHECKED false
#endif

/// Expands, in the translation unit that uses it, to that unit's view of the
/// configuration.  A macro rather than an inline function: an inline function
/// compiled two ways would be an ODR violation that hides the very mismatch
/// it is meant to find.
#define PERFBENCH_BUILD_CONFIG()                                  \
  ::perfbench::BuildConfig {                                     \
    PERFBENCH_NDEBUG, PERFBENCH_UNCHECKED,                       \
        MIGHTY_LOCK_ORDER_CHECKS != 0, sizeof(mighty::util::Mutex), \
        sizeof(mighty::flow::Session),                           \
        sizeof(mighty::opt::ReplacementOracle),                  \
        sizeof(mighty::exact::Database),                         \
        sizeof(mighty::flow::FlowReport),                        \
        sizeof(mighty::api::LocalService::Params)                \
  }

/// The configuration libmighty was compiled with (library_probe.cpp is
/// compiled as part of the library target).
BuildConfig library_build_config();

/// The configuration the benchmark sources were compiled with.
BuildConfig benchmark_build_config();

/// Empty when the two agree; otherwise one "field: library X, benchmark Y"
/// clause per differing field.
std::string describe_mismatch(const BuildConfig& library, const BuildConfig& benchmark);

}  // namespace perfbench
