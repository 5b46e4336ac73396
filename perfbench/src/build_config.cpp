#include "build_config.hpp"

namespace perfbench {

BuildConfig benchmark_build_config() { return PERFBENCH_BUILD_CONFIG(); }

std::string describe_mismatch(const BuildConfig& library, const BuildConfig& benchmark) {
  std::string out;
  auto field = [&out](const char* name, auto lib, auto bench) {
    if (lib == bench) return;
    if (!out.empty()) out += "; ";
    out += std::string(name) + ": library " + std::to_string(lib) + ", benchmark " +
           std::to_string(bench);
  };
  field("NDEBUG", library.ndebug, benchmark.ndebug);
  field("MIGHTY_UNCHECKED", library.unchecked, benchmark.unchecked);
  field("MIGHTY_LOCK_ORDER_CHECKS", library.lock_order_checks, benchmark.lock_order_checks);
  field("sizeof(util::Mutex)", library.mutex_size, benchmark.mutex_size);
  field("sizeof(flow::Session)", library.session_size, benchmark.session_size);
  field("sizeof(opt::ReplacementOracle)", library.oracle_size, benchmark.oracle_size);
  field("sizeof(exact::Database)", library.database_size, benchmark.database_size);
  field("sizeof(flow::FlowReport)", library.flow_report_size, benchmark.flow_report_size);
  field("sizeof(api::LocalService::Params)", library.service_params_size,
        benchmark.service_params_size);
  return out;
}

}  // namespace perfbench
