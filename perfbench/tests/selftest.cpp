// Self-tests of the benchmark's own machinery: the independent reference
// (accepts every generator network, catches one flipped output gate and
// exactly the internal mutations that change the function), the build-hazard
// guard, the span tracer and the order statistics.
//
//   ctest --test-dir .bench_build/perfbench      (or: python3 perfbench/run.py --selftest)

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "build_config.hpp"
#include "flow/corpus.hpp"
#include "gen/arith.hpp"
#include "mig/simulation.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace mighty;

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

mig::Mig flip_output(const mig::Mig& m, uint32_t output) {
  mig::Mig flipped = m;
  flipped.replace_output(output, !flipped.output(output));
  return flipped;
}

/// Copy of `m` with the first fanin of gate `target` complemented.
mig::Mig flip_fanin(const mig::Mig& m, uint32_t target) {
  mig::Mig out;
  std::vector<mig::Signal> map(m.num_nodes());
  map[0] = out.get_constant(false);
  for (uint32_t i = 0; i < m.num_pis(); ++i) map[i + 1] = out.create_pi();
  auto mapped = [&map](mig::Signal s) { return map[s.index()] ^ s.is_complemented(); };
  for (uint32_t n = m.num_pis() + 1; n < m.num_nodes(); ++n) {
    const auto& f = m.fanins(n);
    map[n] = out.create_maj(mapped(f[0]) ^ (n == target), mapped(f[1]), mapped(f[2]));
  }
  for (const mig::Signal s : m.outputs()) out.create_po(mapped(s));
  return out;
}

/// Whether two networks with at most 16 inputs differ on any pattern.
bool differs_exhaustively(const mig::Mig& a, const mig::Mig& b) {
  const uint32_t n = a.num_pis();
  const uint64_t patterns = uint64_t{1} << n;
  std::vector<uint64_t> pi(n);
  for (uint64_t base = 0; base < patterns; base += 64) {
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t w = 0;
      for (uint64_t lane = 0; lane < 64; ++lane) {
        w |= (((base + lane) % patterns) >> i & 1) << lane;
      }
      pi[i] = w;
    }
    const auto wa = mig::simulate_words(a, pi);
    const auto wb = mig::simulate_words(b, pi);
    for (uint32_t o = 0; o < a.num_pos(); ++o) {
      if (mig::resolve(wa, a.output(o)) != mig::resolve(wb, b.output(o))) return true;
    }
  }
  return false;
}

void test_reference_on_corpus() {
  for (const auto& entry : flow::Corpus::generated_arithmetic()) {
    const auto spec = perfbench::spec_for(entry.name);
    CHECK(spec.has_value());
    if (!spec) continue;
    const perfbench::Verdict ok = perfbench::verify(entry.mig, *spec);
    CHECK(ok.ok);
    CHECK(ok.exhaustive == (entry.mig.num_pis() <= 16));
    // One flipped output gate, on every output: always caught.
    for (uint32_t o = 0; o < entry.mig.num_pos(); ++o) {
      const perfbench::Verdict bad = perfbench::verify(flip_output(entry.mig, o), *spec);
      CHECK(!bad.ok);
      CHECK(bad.mismatches > 0);
    }
    // On exhaustively checked networks the verdict is exact: a flipped
    // internal fanin is caught if and only if it changes the function.
    if (!ok.exhaustive) continue;
    const uint32_t first = entry.mig.num_pis() + 1;
    const uint32_t gates = entry.mig.num_nodes() - first;
    const uint32_t stride = gates / 25 + 1;
    uint32_t caught = 0;
    for (uint32_t g = first; g < entry.mig.num_nodes(); g += stride) {
      const mig::Mig mutant = flip_fanin(entry.mig, g);
      const bool changed = differs_exhaustively(entry.mig, mutant);
      const bool rejected = !perfbench::verify(mutant, *spec).ok;
      CHECK(changed == rejected);
      caught += rejected;
    }
    CHECK(caught > 0);
  }
}

/// Whether two 32-input log2 networks differ on any of 2^19 patterns that
/// cover every class of inputs the log2 function distinguishes: each
/// leading-one position with each value of the 14 bits below it (log2_model
/// reads no others), the bits further down random, plus zero.
bool log2_networks_differ(const mig::Mig& a, const mig::Mig& b) {
  constexpr uint32_t kWindow = 14;
  uint64_t state = 0x6c6f6732;
  std::vector<uint64_t> pi(32);
  std::vector<uint32_t> lanes(64);
  for (uint64_t base = 0; base < (uint64_t{32} << kWindow); base += 64) {
    for (uint64_t lane = 0; lane < 64; ++lane) {
      const uint64_t e = base + lane;
      const auto k = static_cast<uint32_t>(e >> kWindow);
      const auto window = static_cast<uint32_t>(e & ((1u << kWindow) - 1));
      uint32_t x = 1u << k;
      if (k <= kWindow) {
        x |= window & (x - 1);
      } else {
        const uint32_t below = k - kWindow;
        x |= window << below;
        x |= static_cast<uint32_t>(perfbench::splitmix64(state)) & ((1u << below) - 1);
      }
      lanes[lane] = e == 0 ? 0 : x;
    }
    for (uint32_t i = 0; i < 32; ++i) {
      uint64_t w = 0;
      for (uint64_t lane = 0; lane < 64; ++lane) w |= uint64_t{(lanes[lane] >> i) & 1} << lane;
      pi[i] = w;
    }
    const auto wa = mig::simulate_words(a, pi);
    const auto wb = mig::simulate_words(b, pi);
    for (uint32_t o = 0; o < a.num_pos(); ++o) {
      if (mig::resolve(wa, a.output(o)) != mig::resolve(wb, b.output(o))) return true;
    }
  }
  return false;
}

/// log2_4 has 32 inputs, so the reference only samples it (1024 patterns).
/// Every flipped internal fanin that changes the function on the
/// near-exhaustive pattern set above must still be caught.
void test_reference_samples_log2() {
  mig::Mig log2;
  for (const auto& entry : flow::Corpus::generated_arithmetic()) {
    if (entry.name == "log2_4") log2 = entry.mig;
  }
  CHECK(log2.num_pis() == 32);
  const auto spec = perfbench::spec_for("log2_4");
  CHECK(perfbench::verify(log2, *spec).ok);
  const uint32_t first = log2.num_pis() + 1;
  const uint32_t stride = (log2.num_nodes() - first) / 40 + 1;
  uint32_t tried = 0, changed = 0, caught = 0;
  for (uint32_t g = first; g < log2.num_nodes(); g += stride) {
    ++tried;
    const mig::Mig mutant = flip_fanin(log2, g);
    const bool differs = log2_networks_differ(log2, mutant);
    const bool rejected = !perfbench::verify(mutant, *spec).ok;
    changed += differs;
    caught += differs && rejected;
    CHECK(!rejected || differs);
    if (differs && !rejected) std::printf("log2_4: fanin flip of gate %u not caught\n", g);
  }
  std::printf("log2_4: %u fanin flips, %u change the function, %u caught\n", tried, changed,
              caught);
  CHECK(changed > 0);
  CHECK(caught == changed);
}

void test_reference_on_full_suite() {
  for (const auto& b : gen::epfl_arithmetic_suite()) {
    const auto spec = perfbench::spec_for(b.name);
    CHECK(spec.has_value());
    if (!spec) continue;
    CHECK(perfbench::verify(b.mig, *spec).ok);
    for (const uint32_t o : {0u, b.mig.num_pos() / 2, b.mig.num_pos() - 1}) {
      CHECK(!perfbench::verify(flip_output(b.mig, o), *spec).ok);
    }
  }
  // A network whose interface does not match its name is rejected outright.
  CHECK(!perfbench::verify(gen::make_adder_n(8), *perfbench::spec_for("adder16")).ok);
}

void test_spec_names() {
  CHECK(perfbench::spec_for("log2_4")->family == perfbench::Family::log2);
  CHECK(perfbench::spec_for("log2_4")->width == 4);
  CHECK(perfbench::spec_for("divider8")->family == perfbench::Family::divisor);
  CHECK(perfbench::spec_for("Square-root")->family == perfbench::Family::sqrt);
  CHECK(perfbench::spec_for("Square")->family == perfbench::Family::square);
  CHECK(!perfbench::spec_for("adder").has_value());
  CHECK(!perfbench::spec_for("adder16x").has_value());
  CHECK(!perfbench::spec_for("c6288").has_value());
}

void test_build_guard() {
  const auto lib = perfbench::library_build_config();
  const auto bench = perfbench::benchmark_build_config();
  CHECK(perfbench::describe_mismatch(lib, bench).empty());
  auto debug_header = bench;
  debug_header.ndebug = !debug_header.ndebug;
  debug_header.lock_order_checks = !debug_header.lock_order_checks;
  debug_header.mutex_size += 8;
  const std::string why = perfbench::describe_mismatch(lib, debug_header);
  CHECK(why.find("NDEBUG") != std::string::npos);
  CHECK(why.find("MIGHTY_LOCK_ORDER_CHECKS") != std::string::npos);
  CHECK(why.find("sizeof(util::Mutex)") != std::string::npos);
}

void test_tracer() {
  perfbench::Tracer tracer(true);
  {
    auto outer = tracer.span("outer", 7);
    auto inner = tracer.span("inner", 7);
    inner.end();
    auto sibling = tracer.span("inner", 8);
  }
  const auto records = tracer.records();
  CHECK(records.size() == 3);
  if (records.size() == 3) {
    CHECK(records[0].parent == -1);
    CHECK(records[1].parent == 0);
    CHECK(records[2].parent == 0);
    CHECK(records[1].job == 7 && records[2].job == 8);
    CHECK(records[0].end >= records[2].end);
  }
  CHECK(tracer.durations("inner").size() == 2);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const std::string json = os.str();
  CHECK(json.find("\"traceEvents\"") != std::string::npos);
  CHECK(json.find("\"name\":\"outer\",\"ph\":\"X\"") != std::string::npos);
  CHECK(json.find("\"parent\":0,\"job\":8") != std::string::npos);

  perfbench::Tracer off(false);
  { auto span = off.span("ignored"); }
  CHECK(off.records().empty());
}

void test_stats() {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  CHECK(perfbench::percentile(values, 99) == 990);
  CHECK(perfbench::percentile(values, 50) == 500);
  CHECK(perfbench::samples_beyond(values, 99) == 10);
  CHECK(perfbench::median({4, 1, 3, 2}) == 2.5);
  CHECK(perfbench::percentile({}, 50) == 0);
  const auto a = perfbench::seeded_permutation(8, 1, 0);
  CHECK(a == perfbench::seeded_permutation(8, 1, 0));
  CHECK(std::set<size_t>(a.begin(), a.end()).size() == 8);
  bool some_seed_differs = false;
  for (uint64_t seed = 2; seed < 10; ++seed) {
    some_seed_differs = some_seed_differs || perfbench::seeded_permutation(8, seed, 0) != a;
  }
  CHECK(some_seed_differs);
  CHECK(perfbench::json_number(0.1) == "0.1");
  CHECK(perfbench::json_string("a\"b") == "\"a\\\"b\"");
}

}  // namespace

/// Runs one test and prints how long it took.
void run(const char* name, void (*test)()) {
  const double t0 = perfbench::wall_now();
  test();
  std::printf("%s: %.1fs\n", name, perfbench::wall_now() - t0);
  std::fflush(stdout);
}

int main() {
  run("spec_names", test_spec_names);
  run("reference_on_corpus", test_reference_on_corpus);
  run("reference_samples_log2", test_reference_samples_log2);
  run("reference_on_full_suite", test_reference_on_full_suite);
  run("build_guard", test_build_guard);
  run("tracer", test_tracer);
  run("stats", test_stats);
  std::printf("%s (%d failure%s)\n", failures == 0 ? "all pass" : "FAILED", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
