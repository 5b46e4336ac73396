// Compiled into libmighty by perfbench/CMakeLists.txt (see build_config.hpp).
#include "build_config.hpp"

namespace perfbench {

BuildConfig library_build_config() { return PERFBENCH_BUILD_CONFIG(); }

}  // namespace perfbench
