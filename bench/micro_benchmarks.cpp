// Micro-benchmarks (google-benchmark) for the kernels the optimizer spends
// its time in: structural hashing, cut enumeration, cut-function simulation,
// exact NPN canonization, database lookup, word-parallel simulation and the
// BLIF reader and writer a service job runs on its input and output.

#include <benchmark/benchmark.h>

#include <random>
#include <sstream>

#include "exact/database.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/cuts.hpp"
#include "mig/simulation.hpp"
#include "npn/npn.hpp"

using namespace mighty;

namespace {

const mig::Mig& multiplier16() {
  static const mig::Mig m = gen::make_multiplier_n(16);
  return m;
}

/// The corpus's log2_4 (depth-optimized log2 at width 4): its BLIF is the
/// largest of a service job set (~528 KB).
const mig::Mig& log2_4() {
  static const mig::Mig m = algebra::depth_optimize(gen::make_log2_n(4));
  return m;
}

const exact::Database& database() {
  static const exact::Database db =
      exact::Database::load_or_build(exact::default_database_path());
  return db;
}

void BM_CreateMajStrash(benchmark::State& state) {
  for (auto _ : state) {
    mig::Mig m;
    const auto pis = m.create_pis(8);
    std::mt19937 rng(1);
    mig::Signal last = pis[0];
    for (int i = 0; i < 1000; ++i) {
      const auto a = pis[rng() % 8] ^ ((rng() & 1) != 0);
      const auto b = pis[rng() % 8] ^ ((rng() & 1) != 0);
      last = m.create_maj(a, b, last);
    }
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CreateMajStrash);

void BM_CutEnumeration(benchmark::State& state) {
  const auto& m = multiplier16();
  for (auto _ : state) {
    const auto sets = cuts::enumerate_cuts(m, {.cut_size = 4});
    benchmark::DoNotOptimize(sets);
  }
  state.SetItemsProcessed(state.iterations() * m.num_gates());
}
BENCHMARK(BM_CutEnumeration);

void BM_CutFunction(benchmark::State& state) {
  const auto& m = multiplier16();
  const auto sets = cuts::enumerate_cuts(m, {.cut_size = 4});
  // Pick a node in the middle with nontrivial cuts.
  const uint32_t node = m.num_pis() + m.num_gates() / 2;
  const auto& cut = sets[node].front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mig::simulate_cut(m, node, cut.leaf_vector()));
  }
}
BENCHMARK(BM_CutFunction);

void BM_NpnCanonize(benchmark::State& state) {
  std::mt19937 rng(7);
  for (auto _ : state) {
    const tt::TruthTable f(4, rng());
    benchmark::DoNotOptimize(npn::canonize(f));
  }
}
BENCHMARK(BM_NpnCanonize);

void BM_DatabaseLookupCached(benchmark::State& state) {
  const auto& db = database();
  std::mt19937 rng(8);
  // Warm the cache with the queried functions.
  std::vector<tt::TruthTable> queries;
  for (int i = 0; i < 256; ++i) queries.emplace_back(4, rng());
  for (const auto& q : queries) db.lookup(q);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.lookup(queries[i++ & 255]));
  }
}
BENCHMARK(BM_DatabaseLookupCached);

void BM_WordSimulation(benchmark::State& state) {
  const auto& m = multiplier16();
  std::mt19937_64 rng(9);
  std::vector<uint64_t> words(m.num_pis());
  for (auto& w : words) w = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mig::simulate_words(m, words));
  }
  state.SetItemsProcessed(state.iterations() * m.num_gates() * 64);
}
BENCHMARK(BM_WordSimulation);

void BM_ExactSynthesisXor4(benchmark::State& state) {
  const tt::TruthTable parity(4, 0x6996);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::synthesize_minimum_mig(parity));
  }
}
BENCHMARK(BM_ExactSynthesisXor4);

void BM_ReadBlif(benchmark::State& state) {
  std::ostringstream os;
  io::write_blif(os, log2_4());
  const std::string text = os.str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::read_blif(text));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ReadBlif)->Unit(benchmark::kMillisecond);

void BM_WriteBlif(benchmark::State& state) {
  const auto& m = log2_4();
  size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    io::write_blif(os, m);
    bytes += os.str().size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_WriteBlif)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
