// Epoch bookkeeping for versioned-statistics cache invalidation.
//
// The registry maintains one global, monotonically increasing statistics
// epoch plus, per base table, the epoch of that table's most recent update.
// Cache entries are tagged at insert time with (epoch snapshot, bitmap of
// base tables the sub-plan touches); an entry is stale exactly when some
// touched table was updated after the entry's snapshot. Staleness is checked
// lazily at lookup time — no stop-the-world scan, no global clear.
//
// Tables are assigned bits lazily, in first-seen order. The first
// kMaxTrackedBits - 1 distinct tables get a private bit each; every table
// registered after that shares the last bit: updates to any of them
// invalidate entries touching any of them — strictly conservative, never
// unsafe.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/query.h"

namespace fj {

class TableEpochRegistry {
 public:
  /// Bitmap width (matches Query::kMaxTables — one uint64_t). The first
  /// kMaxTrackedBits - 1 distinct tables are tracked precisely; tables
  /// registered after that share the last bit (conservative invalidation).
  static constexpr size_t kMaxTrackedBits = 64;

  /// Current global statistics epoch (0 until the first NotifyUpdate).
  /// Thread-safe; a snapshot taken *before* computing an estimate is the
  /// correct tag for the resulting cache entry — any update landing between
  /// snapshot and insert then invalidates the entry on its next lookup.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Records a data update to `table_name`: bumps the global epoch and
  /// raises the table's epoch to it. Returns the new global epoch.
  /// Thread-safe against concurrent lookups, inserts, and other notifies.
  uint64_t NotifyUpdate(const std::string& table_name) {
    uint64_t e = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    std::atomic<uint64_t>& slot = table_epochs_[BitIndexFor(table_name)];
    // fetch_max: concurrent notifies must never lower a table's epoch.
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < e &&
           !slot.compare_exchange_weak(cur, e, std::memory_order_acq_rel)) {
    }
    return e;
  }

  /// Bitmap over the bits assigned to `tables`, registering unseen names.
  /// Thread-safe (mutex-protected registry).
  uint64_t BitsFor(const std::vector<std::string>& tables) {
    uint64_t bits = 0;
    for (const std::string& name : tables) {
      bits |= uint64_t{1} << BitIndexFor(name);
    }
    return bits;
  }

  /// The bit of each alias's base table, in query.tables() order,
  /// registering unseen tables in that order; self-joined aliases share
  /// their table's bit. A cache entry is tagged with the OR over the bits
  /// of the aliases its mask covers. One lock acquisition per query.
  std::vector<uint64_t> AliasBits(const Query& query) {
    std::vector<uint64_t> bits;
    bits.reserve(query.NumTables());
    std::lock_guard<std::mutex> lock(mu_);
    for (const TableRef& t : query.tables()) {
      bits.push_back(uint64_t{1} << BitIndexLocked(t.table));
    }
    return bits;
  }

  /// True iff any table in `table_bits` was updated after `entry_epoch`,
  /// i.e. a cache entry tagged (table_bits, entry_epoch) must not be served.
  /// Thread-safe, lock-free: one atomic load per touched table.
  bool IsStale(uint64_t table_bits, uint64_t entry_epoch) const {
    while (table_bits != 0) {
      size_t b = static_cast<size_t>(std::countr_zero(table_bits));
      table_bits &= table_bits - 1;
      if (table_epochs_[b].load(std::memory_order_acquire) > entry_epoch) {
        return true;
      }
    }
    return false;
  }

  /// Number of distinct base tables registered so far (test/debug aid).
  size_t NumRegisteredTables() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bit_of_.size();
  }

 private:
  size_t BitIndexFor(const std::string& table_name) {
    std::lock_guard<std::mutex> lock(mu_);
    return BitIndexLocked(table_name);
  }

  // Caller holds mu_.
  size_t BitIndexLocked(const std::string& table_name) {
    auto it = bit_of_.find(table_name);
    if (it != bit_of_.end()) return it->second;
    size_t bit = std::min(bit_of_.size(), kMaxTrackedBits - 1);
    bit_of_.emplace(table_name, bit);
    return bit;
  }

  std::atomic<uint64_t> epoch_{0};
  std::array<std::atomic<uint64_t>, kMaxTrackedBits> table_epochs_{};
  mutable std::mutex mu_;  // guards bit_of_
  std::unordered_map<std::string, size_t> bit_of_;
};

}  // namespace fj
