// Bernoulli-sample single-table estimator (Lipton et al. style, Section 3.3).
// Keeps a uniform row sample; filters are evaluated exactly on the sample and
// scaled by the inverse sampling rate. Supports every predicate class,
// including LIKE and disjunctions — the estimator used for IMDB-JOB.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "stats/table_estimator.h"
#include "util/rng.h"

namespace fj {

class SamplingEstimator : public TableEstimator {
 public:
  /// Draws a Bernoulli(rate) sample of `table`. A fresh sample is drawn again
  /// on Refresh() with the same rate and seed stream.
  SamplingEstimator(const Table& table, double rate, uint64_t seed = 42);

  /// Snapshot-loading path: binds to `table` without drawing a sample —
  /// Load() must run before any estimate.
  static std::unique_ptr<SamplingEstimator> MakeUntrained(const Table& table);

  KeyDistResult EstimateKeyDists(
      const Predicate& filter,
      const std::vector<KeyDistRequest>& keys) const override;
  void Refresh(const Table& table) override;

  /// Serializes the drawn sample (row ids, rate, seed, scale): a loaded
  /// estimator reproduces the original's estimates bit for bit without
  /// re-drawing.
  void Save(ByteWriter& w) const override;
  void Load(ByteReader& r) override;

  size_t MemoryBytes() const override;
  std::string Name() const override { return "sampling"; }

  size_t sample_size() const { return sample_rows_.size(); }
  double rate() const { return rate_; }

 private:
  /// Sentinel bin code for a null sample value (nulls never join).
  static constexpr uint32_t kNullBin = UINT32_MAX;

  struct UntrainedTag {};
  SamplingEstimator(const Table& table, UntrainedTag);

  void DrawSample();

  /// What the sampler memoizes per (column, binning) pair.
  struct KeyMemo {
    /// Bin code of each sample row (kNullBin for a null). Binning::BinOf
    /// is pure, so this changes no estimate: it replaces a hash probe per
    /// (row, key) in the EstimateKeyDists scan with an array load.
    std::vector<uint32_t> codes;
    /// The key's masses under a TRUE filter: `scale_` added once per
    /// non-null sample row, in ascending sample order (the bits a full
    /// scan produces), so a TRUE filter is answered without a scan.
    std::vector<double> unfiltered;
  };

  /// The memo of `col` under `binning`, built on first use. Thread-safe
  /// (estimation is concurrent); dropped when a fresh sample is drawn or
  /// loaded.
  const KeyMemo& KeyMemoFor(const Column& col, const Binning& binning) const;

  const Table* table_;  // not owned; must outlive the estimator
  double rate_;
  uint64_t seed_;
  std::vector<uint32_t> sample_rows_;
  double scale_ = 1.0;  // table rows / sample rows

  // std::map keeps node (and thus reference) stability while other threads
  // insert; entries are small relative to the sample itself.
  mutable std::mutex key_memos_mu_;
  mutable std::map<std::pair<const Column*, const Binning*>, KeyMemo>
      key_memos_;
};

}  // namespace fj
