// Tenant-id lookup for the online admission service.
//
// Every arrival, departure and demand update resolves its tenant id to the
// shard's slot index first, so the lookup sits on the hot path:
//
//  * hash_id — splitmix64, shared by shard routing and IdMap probing;
//  * IdMap   — open-addressing hash map (u64 tenant id -> u32 slot) with
//              linear probing and tombstones. Lookup/insert/erase never
//              allocate once the table has grown to its steady-state
//              capacity; growth doubles the table (amortized, off the
//              steady-state path).
//
// One IdMap per shard, touched by exactly one lane at a time, so no locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ovnes::svc {

/// splitmix64 — the id hash used for both shard assignment and IdMap
/// probing (well-mixed, deterministic across platforms).
[[nodiscard]] inline std::uint64_t hash_id(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// \brief Open-addressing u64 -> u32 map (linear probing, tombstones).
/// Steady-state find/insert/erase never allocate; growth doubles.
class IdMap {
 public:
  static constexpr std::uint32_t kMissing = 0xffffffffu;

  explicit IdMap(std::size_t expected = 64) { rehash(table_size_for(expected)); }

  void insert(std::uint64_t key, std::uint32_t value) {
    if ((live_ + tombstones_ + 1) * 4 >= keys_.size() * 3) {
      rehash(keys_.size() * 2);
    }
    std::size_t i = probe_start(key);
    std::size_t first_tomb = keys_.size();
    for (;;) {
      if (state_[i] == kEmpty) {
        const std::size_t at = first_tomb < keys_.size() ? first_tomb : i;
        if (state_[at] == kTomb) --tombstones_;
        keys_[at] = key;
        values_[at] = value;
        state_[at] = kFull;
        ++live_;
        return;
      }
      if (state_[i] == kTomb) {
        if (first_tomb == keys_.size()) first_tomb = i;
      } else if (keys_[i] == key) {
        values_[i] = value;
        return;
      }
      i = (i + 1) & (keys_.size() - 1);
    }
  }

  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    std::size_t i = probe_start(key);
    for (;;) {
      if (state_[i] == kEmpty) return kMissing;
      if (state_[i] == kFull && keys_[i] == key) return values_[i];
      i = (i + 1) & (keys_.size() - 1);
    }
  }

  /// Returns the erased value, or kMissing when absent.
  std::uint32_t erase(std::uint64_t key) {
    std::size_t i = probe_start(key);
    for (;;) {
      if (state_[i] == kEmpty) return kMissing;
      if (state_[i] == kFull && keys_[i] == key) {
        state_[i] = kTomb;
        --live_;
        ++tombstones_;
        return values_[i];
      }
      i = (i + 1) & (keys_.size() - 1);
    }
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

 private:
  enum : char { kEmpty = 0, kFull = 1, kTomb = 2 };

  static std::size_t table_size_for(std::size_t expected) {
    std::size_t n = 16;
    while (n * 3 < expected * 4) n *= 2;  // keep load factor under 3/4
    return n;
  }

  [[nodiscard]] std::size_t probe_start(std::uint64_t key) const {
    return static_cast<std::size_t>(hash_id(key)) & (keys_.size() - 1);
  }

  void rehash(std::size_t new_size) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_values = std::move(values_);
    std::vector<char> old_state = std::move(state_);
    keys_.assign(new_size, 0);
    values_.assign(new_size, 0);
    state_.assign(new_size, kEmpty);
    live_ = 0;
    tombstones_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_state[i] == kFull) insert(old_keys[i], old_values[i]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> values_;
  std::vector<char> state_;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace ovnes::svc
