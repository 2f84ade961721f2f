// Bump arena for the estimation hot path: one FactorArena per
// Estimate/EstimateSubplans call owns every per-bin mass/MFV array of every
// bound factor built during that call.
//
// Why not std::vector<double> per group? A progressive sub-plan batch builds
// thousands of factors, each with a handful of short arrays — under the old
// std::map<int, GroupBound> layout the allocator dominated the inner loop.
// The arena turns all of that into pointer bumps over a few large blocks,
// keeps the arrays contiguous (the kernels in kernels.h stream over them),
// and frees everything at once when the call returns. Blocks are left
// uninitialized: every span is written before it is read.
//
// Pointer stability: blocks are never reallocated or released while the
// arena lives, so a span handed out by Alloc stays valid for the arena's
// lifetime — factors reference arena memory directly instead of owning it.
// Not thread-safe: one arena belongs to one call/thread (concurrent calls
// each use their own).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

namespace fj {

class FactorArena {
 public:
  /// Doubles per block; 8K doubles = 64 KiB, large enough that even wide
  /// factors (100+ bins, several groups) amortize to ~one allocation per
  /// hundreds of spans.
  static constexpr size_t kBlockDoubles = size_t{1} << 13;

  FactorArena() = default;

  // Factors hold raw pointers into the blocks; moving the arena moves block
  // ownership without touching the blocks themselves, so spans stay valid.
  FactorArena(FactorArena&&) = default;
  FactorArena& operator=(FactorArena&&) = default;
  FactorArena(const FactorArena&) = delete;
  FactorArena& operator=(const FactorArena&) = delete;

  /// Uninitialized span of `n` doubles. O(1) amortized; never invalidates
  /// previously returned spans.
  double* Alloc(size_t n) {
    if (n == 0) return nullptr;
    if (used_ + n > capacity_) Grow(n);
    double* out = blocks_.back().get() + used_;
    used_ += n;
    allocated_ += n;
    return out;
  }

  /// Span of `n` zeros.
  double* AllocZeroed(size_t n) {
    double* out = Alloc(n);
    if (out != nullptr) std::memset(out, 0, n * sizeof(double));
    return out;
  }

  /// Span holding a copy of src[0..n).
  double* AllocCopy(const double* src, size_t n) {
    double* out = Alloc(n);
    if (out != nullptr) std::memcpy(out, src, n * sizeof(double));
    return out;
  }

  /// Total doubles handed out (diagnostics / tests).
  size_t allocated_doubles() const { return allocated_; }
  size_t num_blocks() const { return blocks_.size(); }

 private:
  void Grow(size_t n) {
    size_t block = std::max(n, kBlockDoubles);
    blocks_.push_back(std::make_unique_for_overwrite<double[]>(block));
    capacity_ = block;
    used_ = 0;
  }

  std::vector<std::unique_ptr<double[]>> blocks_;
  size_t capacity_ = 0;  // of the current (last) block
  size_t used_ = 0;      // within the current block
  size_t allocated_ = 0;
};

}  // namespace fj
