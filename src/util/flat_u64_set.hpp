// Insert-only set of non-zero 64-bit keys: open addressing with linear
// probing over one power-of-two array, grown at half load. No per-key
// allocation, which is what AODV's RREQ duplicate suppression needs: every
// node hears every flood, nothing ever iterates or erases the set, and a
// node-based hash set allocated one node per flood heard.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace manet::util {

class FlatU64Set {
 public:
  /// Inserts `key` (never 0, the empty-cell marker); returns false if it
  /// was already present.
  bool insert(std::uint64_t key) {
    assert(key != 0);
    if (2 * (size_ + 1) > table_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & (table_.size() - 1)) {
      if (table_[i] == key) return false;
      if (table_[i] == 0) {
        table_[i] = key;
        ++size_;
        return true;
      }
    }
  }

 private:
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<std::uint64_t> old(table_.empty() ? 16 : 2 * table_.size(), 0);
    old.swap(table_);
    shift_ = 64 - std::countr_zero(table_.size());
    for (const std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t i = home(key);
      while (table_[i] != 0) i = (i + 1) & (table_.size() - 1);
      table_[i] = key;
    }
  }

  std::vector<std::uint64_t> table_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace manet::util
