// Build-configuration probe: this file is compiled with the opposite NDEBUG
// setting from the library it links (the flip below precedes every include).
// util::Mutex's layout depends on whether the lock-order checker is on, and
// the library exports that choice on its CMake target, so a consumer built
// with a different NDEBUG must still see the library's Mutex: a threads=2
// session runs, where a guessed layout aborts inside the session's pool.
// The same holds for Session's default check level: the library picks it,
// whichever constructor the consumer calls.
#ifdef NDEBUG
#undef NDEBUG
#else
#define NDEBUG
#endif

#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "gen/arith.hpp"

namespace mighty::flow {
namespace {

TEST(NdebugMismatchTest, SessionRunsWithTheLibraryMutexLayout) {
  SessionParams params;
  params.threads = 2;
  Session session(std::move(params));
  FlowReport report;
  const auto out =
      Pipeline::parse("TF;size").run(gen::make_adder_n(8), session, &report);
  EXPECT_EQ(report.passes.size(), 2u);
  EXPECT_GT(out.count_live_gates(), 0u);
  EXPECT_LE(out.count_live_gates(), report.size_before);
}

TEST(NdebugMismatchTest, EveryConstructorGetsTheLibraryCheckLevel) {
  const Session by_params;
  const Session with_database{exact::Database{}};
  EXPECT_EQ(by_params.check_level(), with_database.check_level());
}

}  // namespace
}  // namespace mighty::flow
