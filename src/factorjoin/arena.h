// Bump arena for the estimation hot path: owns the per-bin mass/MFV arrays
// of the bound factors built while estimating. A sub-plan session owns one
// for its leaves, its decomposition alternates two (one per live level, each
// rewound with Reset once its level is dead), and a greedy Estimate call
// owns one for everything it builds.
//
// Why not std::vector<double> per group? A progressive sub-plan batch builds
// thousands of factors, each with a handful of short arrays — under the old
// std::map<int, GroupBound> layout the allocator dominated the inner loop.
// The arena turns all of that into pointer bumps over a few large blocks,
// keeps the arrays contiguous (the kernels in kernels.h stream over them),
// and frees everything at once when it is destroyed. Blocks are left
// uninitialized: every span is written before it is read.
//
// Pointer stability: blocks are never reallocated or released while the
// arena lives, so a span handed out by Alloc stays valid until the next
// Reset — factors reference arena memory directly instead of owning it.
// Under AddressSanitizer, Reset poisons the blocks it rewinds and Alloc
// unpoisons each span it hands out, so a read through a span of a released
// level is reported. Not thread-safe: one arena belongs to one call/thread
// (concurrent calls each use their own).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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
  /// previously returned spans (only Reset does).
  double* Alloc(size_t n) {
    if (n == 0) return nullptr;
    if (used_ + n > capacity_) Grow(n);
    double* out = current_ + used_;
    used_ += n;
    allocated_ += n;
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(out, n * sizeof(double));
#endif
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

  /// Releases every span at once and keeps the blocks: later Allocs reuse
  /// them in order before any new block is allocated.
  void Reset() {
#if defined(__SANITIZE_ADDRESS__)
    for (const Block& b : blocks_) {
      ASAN_POISON_MEMORY_REGION(b.data.get(), b.size * sizeof(double));
    }
#endif
    next_ = 0;
    current_ = nullptr;
    capacity_ = 0;
    used_ = 0;
    allocated_ = 0;
  }

  /// Doubles handed out since construction or the last Reset (diagnostics
  /// / tests).
  size_t allocated_doubles() const { return allocated_; }
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<double[]> data;
    size_t size = 0;
  };

  /// Moves to the next rewound block that fits `n`, or adds a new one.
  void Grow(size_t n) {
    while (next_ < blocks_.size() && blocks_[next_].size < n) ++next_;
    if (next_ == blocks_.size()) {
      size_t size = std::max(n, kBlockDoubles);
      blocks_.push_back({std::make_unique_for_overwrite<double[]>(size), size});
    }
    current_ = blocks_[next_].data.get();
    capacity_ = blocks_[next_].size;
    used_ = 0;
    ++next_;
  }

  std::vector<Block> blocks_;
  size_t next_ = 0;            // index of the block Grow takes next
  double* current_ = nullptr;  // the block spans are cut from
  size_t capacity_ = 0;        // of the current block
  size_t used_ = 0;            // within the current block
  size_t allocated_ = 0;
};

}  // namespace fj
