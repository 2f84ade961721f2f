// Typed in-memory column. Integers are stored directly; strings are
// dictionary-encoded through a per-column StringPool; doubles use their own
// buffer. Null is represented by a sentinel (kNullInt64 / NaN).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/string_pool.h"

namespace fj {

enum class ColumnType { kInt64, kDouble, kString };

inline constexpr int64_t kNullInt64 = std::numeric_limits<int64_t>::min();

/// A single named column of one table.
///
/// The estimation machinery operates on int64 codes uniformly: for kString
/// columns the code is the dictionary id, for kDouble the value is also kept
/// in `ints` as a quantized code (1e6 fixed-point) so binning and histograms
/// need only one representation; the exact doubles stay available for
/// predicate evaluation.
class Column {
 public:
  Column(std::string name, ColumnType type);

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  size_t size() const { return ints_.size(); }

  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view s);
  void AppendNull();

  /// Tail deletion: drops rows [new_size, size()). No-op when new_size >=
  /// size(). String-pool entries that become unreferenced are retained (ids
  /// stay stable); the cached distinct count is invalidated.
  void Truncate(size_t new_size);

  /// Integer code of row r (dictionary id for strings, fixed-point for
  /// doubles, kNullInt64 for null).
  int64_t IntAt(size_t r) const { return ints_[r]; }

  /// Exact double value; only valid for kDouble columns.
  double DoubleAt(size_t r) const { return doubles_[r]; }

  /// Original string; only valid for kString columns and non-null rows.
  const std::string& StringAt(size_t r) const {
    return pool_->Get(ints_[r]);
  }

  bool IsNull(size_t r) const { return ints_[r] == kNullInt64; }

  const std::vector<int64_t>& ints() const { return ints_; }
  /// Exact doubles, parallel to ints(); empty unless kDouble.
  const std::vector<double>& doubles() const { return doubles_; }
  const StringPool* pool() const { return pool_.get(); }
  StringPool* mutable_pool() { return pool_.get(); }

  /// Number of distinct non-null codes (exact, computed on demand and cached;
  /// invalidated by appends).
  int64_t DistinctCount() const;

  /// Min / max non-null codes; returns false when all rows are null.
  bool CodeRange(int64_t* min_code, int64_t* max_code) const;

  size_t MemoryBytes() const;

  /// Converts a double to the shared fixed-point code space. NaN, and a
  /// value whose code falls outside int64 (|v| of 9.2e12 or more), map to
  /// kNullInt64.
  static int64_t DoubleToCode(double v) {
    double scaled = v * 1e6;
    // 0x1p63 is 2^63; the test is false for NaN too.
    if (!(scaled > -0x1p63 && scaled < 0x1p63)) return kNullInt64;
    return static_cast<int64_t>(scaled);
  }

 private:
  std::string name_;
  ColumnType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;          // parallel to ints_ for kDouble
  std::unique_ptr<StringPool> pool_;     // only for kString
  mutable int64_t cached_distinct_ = -1;
};

}  // namespace fj
