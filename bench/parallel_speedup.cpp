// Measures the parallel flow engine on the acceptance workload: the
// generated 32-bit multiplier under the "(TF;BFD;size)*" convergence
// pipeline, run once per thread count.  Results must be bit-identical
// across thread counts (verified here on the written BLIF bytes); wall time
// should scale with the cores available.
//
// Flags: --threads n   parallel leg width (default 4)
//        --small       8-bit multiplier (quick smoke)
//        --require x   exit 1 unless speedup >= x (CI gates use this only
//                      on machines with dedicated cores; default: report)

#include <cstdlib>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "flow/flow.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "suite_common.hpp"

using namespace mighty;

namespace {

std::string blif_of(const mig::Mig& m) {
  std::ostringstream os;
  io::write_blif(os, m);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = bench::int_flag(argc, argv, "--threads", 4);
  const bool small = bench::has_flag(argc, argv, "--small");
  const double required = std::atof(bench::string_flag(argc, argv, "--require", "0").c_str());
  const char* script = "(TF;BFD;size)*";

  printf("parallel speedup: %s on the %d-bit multiplier, threads 1 vs %d\n",
         script, small ? 8 : 32, threads);
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(small ? 8 : 32));
  printf("input: %u gates, depth %u\n", m.count_live_gates(), m.depth());

  flow::Session session;
  session.database();  // load outside the timed region
  const auto pipeline = flow::Pipeline::parse(script);

  // Warm-up run fills the oracle's lookup memos, so both timed legs see the
  // same cache state and the comparison isolates the execution engine.
  pipeline.run(m, session);

  flow::FlowReport sequential, parallel;
  bench::Stopwatch watch;
  const auto out1 = pipeline.run(m, session, &sequential);
  const double t1 = watch.seconds();
  session.set_threads(static_cast<uint32_t>(threads > 0 ? threads : 1));
  watch.reset();
  const auto outn = pipeline.run(m, session, &parallel);
  const double tn = watch.seconds();

  printf("threads=1: %u gates, depth %u, %.3fs\n", sequential.size_after,
         sequential.depth_after, t1);
  printf("threads=%d: %u gates, depth %u, %.3fs\n", threads, parallel.size_after,
         parallel.depth_after, tn);
  const double speedup = tn > 0 ? t1 / tn : 0.0;
  printf("speedup: %.2fx\n", speedup);

  const bool identical = sequential.passes.size() == parallel.passes.size() &&
                         blif_of(out1) == blif_of(outn);
  printf("deterministic: %s\n", identical ? "yes (identical results)" : "NO — BUG");
  if (!identical) return 1;
  if (required > 0 && speedup < required) {
    printf("FAIL: speedup %.2fx below required %.2fx\n", speedup, required);
    return 1;
  }
  return 0;
}
