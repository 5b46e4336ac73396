#pragma once

#include <algorithm>
#include <array>
#include <filesystem>
#include <random>
#include <streambuf>
#include <string>
#include <vector>

#include "mig/mig.hpp"

/// Shared helpers for the test suite.

namespace mighty::testutil {

/// A throwaway directory under the system temp root, recreated empty on
/// construction and removed on destruction.
struct ScratchDir {
  std::filesystem::path dir;
  explicit ScratchDir(const char* name)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir); }
};

/// Builds a pseudo-random MIG with the given number of PIs and (attempted)
/// gates; gate fanins are random signals over already-created nodes, so the
/// result is a valid topologically ordered network.  Some creations may be
/// absorbed by structural hashing or the trivial rules.
inline mig::Mig random_mig(uint32_t num_pis, uint32_t num_gates, uint32_t num_pos,
                           uint32_t seed) {
  std::mt19937 rng(seed);
  mig::Mig m;
  std::vector<mig::Signal> pool;
  pool.push_back(m.get_constant(false));
  for (uint32_t i = 0; i < num_pis; ++i) pool.push_back(m.create_pi());

  for (uint32_t g = 0; g < num_gates; ++g) {
    auto pick = [&]() {
      const auto s = pool[rng() % pool.size()];
      return (rng() & 1) != 0 ? !s : s;
    };
    const auto s = m.create_maj(pick(), pick(), pick());
    pool.push_back(s);
  }
  for (uint32_t o = 0; o < num_pos; ++o) {
    const auto s = pool[pool.size() - 1 - (rng() % std::min<size_t>(pool.size(), 8))];
    m.create_po((rng() & 1) != 0 ? !s : s);
  }
  return m;
}

/// A stream source of `head` followed by `length` copies of `fill`, made on
/// demand (a 64 MB line costs no memory here), that counts how many bytes
/// its reader has taken.
class GeneratedStreamBuf : public std::streambuf {
public:
  GeneratedStreamBuf(std::string head, char fill, size_t length)
      : head_(std::move(head)), fill_(fill), total_(head_.size() + length) {}

  /// Bytes the reader has taken (made but still buffered ones excluded).
  size_t consumed() const { return made_ - static_cast<size_t>(egptr() - gptr()); }

protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (made_ == total_) return traits_type::eof();
    const size_t n = std::min(chunk_.size(), total_ - made_);
    for (size_t i = 0; i < n; ++i) {
      chunk_[i] = made_ + i < head_.size() ? head_[made_ + i] : fill_;
    }
    made_ += n;
    setg(chunk_.data(), chunk_.data(), chunk_.data() + n);
    return traits_type::to_int_type(chunk_[0]);
  }

private:
  std::string head_;
  char fill_;
  size_t total_;
  size_t made_ = 0;
  std::array<char, 4096> chunk_{};
};

}  // namespace mighty::testutil
