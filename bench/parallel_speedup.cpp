// Measures the parallel flow engine on the critical network of the EPFL
// paper flow: the depth-optimized full-width Divisor (64/64) under the
// "(TF;BFD;size)*" convergence pipeline, run once per thread count.  Results
// must be bit-identical across thread counts (verified here on the written
// BLIF bytes); wall time should scale with the cores available.  Each leg
// also prints its heap allocation count (`operator new` calls, counted by the
// replacement below, which only this binary links).
//
// Flags: --threads n   parallel leg width (default 4)
//        --small       8-bit Divisor (quick smoke)
//        --require x   exit 1 unless speedup >= x (CI gates use this only
//                      on machines with dedicated cores; default: report)

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "flow/flow.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "suite_common.hpp"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Every other form of operator new (array, nothrow) forwards to this one in
// the standard library, so it counts them too; the aligned forms are left to
// the library and are not counted.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace mighty;

namespace {

std::string blif_of(const mig::Mig& m) {
  std::ostringstream os;
  io::write_blif(os, m);
  return os.str();
}

uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  const int threads = bench::int_flag(argc, argv, "--threads", 4);
  const bool small = bench::has_flag(argc, argv, "--small");
  const double required = std::atof(bench::string_flag(argc, argv, "--require", "0").c_str());
  const char* script = "(TF;BFD;size)*";
  const uint32_t bits = small ? 8 : 64;

  printf("parallel speedup: %s on the depth-optimized %u/%u Divisor, threads 1 vs %d\n",
         script, bits, bits, threads);
  const auto m = algebra::depth_optimize(gen::make_divisor_n(bits));
  printf("input: %u gates, depth %u\n", m.count_live_gates(), m.depth());

  flow::Session session;
  session.database();  // load outside the timed region
  const auto pipeline = flow::Pipeline::parse(script);

  // Warm-up run fills the oracle's lookup memos, so both timed legs see the
  // same cache state and the comparison isolates the execution engine.
  pipeline.run(m, session);

  flow::FlowReport sequential, parallel;
  uint64_t before = allocations();
  bench::Stopwatch watch;
  const auto out1 = pipeline.run(m, session, &sequential);
  const double t1 = watch.seconds();
  const uint64_t a1 = allocations() - before;
  session.set_threads(static_cast<uint32_t>(threads > 0 ? threads : 1));
  before = allocations();
  watch.reset();
  const auto outn = pipeline.run(m, session, &parallel);
  const double tn = watch.seconds();
  const uint64_t an = allocations() - before;

  printf("threads=1: %u gates, depth %u, %.3fs, %llu allocations\n", sequential.size_after,
         sequential.depth_after, t1, static_cast<unsigned long long>(a1));
  printf("threads=%d: %u gates, depth %u, %.3fs, %llu allocations\n", threads,
         parallel.size_after, parallel.depth_after, tn, static_cast<unsigned long long>(an));
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
