#include "stats/sampling_estimator.h"

#include <algorithm>

#include "query/filter_eval.h"
#include "util/bytes.h"

namespace fj {

SamplingEstimator::SamplingEstimator(const Table& table, double rate,
                                     uint64_t seed)
    : table_(&table), rate_(std::clamp(rate, 1e-6, 1.0)), seed_(seed) {
  DrawSample();
}

SamplingEstimator::SamplingEstimator(const Table& table, UntrainedTag)
    : table_(&table), rate_(1.0), seed_(0) {}

std::unique_ptr<SamplingEstimator> SamplingEstimator::MakeUntrained(
    const Table& table) {
  return std::unique_ptr<SamplingEstimator>(
      new SamplingEstimator(table, UntrainedTag{}));
}

void SamplingEstimator::Save(ByteWriter& w) const {
  w.F64(rate_);
  w.U64(seed_);
  w.F64(scale_);
  w.U32(static_cast<uint32_t>(sample_rows_.size()));
  for (uint32_t r : sample_rows_) w.U32(r);
}

void SamplingEstimator::Load(ByteReader& r) {
  rate_ = r.F64();
  seed_ = r.U64();
  scale_ = r.F64();
  uint32_t n = r.CountU32(sizeof(uint32_t));
  sample_rows_.clear();
  sample_rows_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t row = r.U32();
    if (row >= table_->num_rows()) {
      throw SerializeError("sample row id past the bound table's end");
    }
    // The block scan takes ascending row ids (DrawSample sorts them).
    if (!sample_rows_.empty() && row <= sample_rows_.back()) {
      throw SerializeError("sample row ids not strictly ascending");
    }
    sample_rows_.push_back(row);
  }
  std::lock_guard<std::mutex> lock(key_memos_mu_);
  key_memos_.clear();
}

void SamplingEstimator::DrawSample() {
  {
    std::lock_guard<std::mutex> lock(key_memos_mu_);
    key_memos_.clear();  // memos are per sample row; the rows change
  }
  sample_rows_.clear();
  size_t n = table_->num_rows();
  size_t target = std::max<size_t>(static_cast<size_t>(rate_ * static_cast<double>(n)), 1);
  target = std::min(target, n);
  Rng rng(seed_, 0x5eedu);
  sample_rows_.reserve(target);
  for (size_t r : rng.SampleWithoutReplacement(n, target)) {
    sample_rows_.push_back(static_cast<uint32_t>(r));
  }
  std::sort(sample_rows_.begin(), sample_rows_.end());
  scale_ = sample_rows_.empty()
               ? 0.0
               : static_cast<double>(n) / static_cast<double>(sample_rows_.size());
}

const SamplingEstimator::KeyMemo& SamplingEstimator::KeyMemoFor(
    const Column& col, const Binning& binning) const {
  auto key = std::make_pair(&col, &binning);
  {
    std::lock_guard<std::mutex> lock(key_memos_mu_);
    auto it = key_memos_.find(key);
    if (it != key_memos_.end()) return it->second;
  }
  // Build outside the lock (two racing threads may both build; the first
  // insert wins and they are identical anyway — BinOf is pure).
  KeyMemo memo;
  memo.codes.reserve(sample_rows_.size());
  memo.unfiltered.assign(binning.num_bins(), 0.0);
  for (uint32_t r : sample_rows_) {
    int64_t v = col.IntAt(r);
    uint32_t b = v == kNullInt64 ? kNullBin : binning.BinOf(v);
    memo.codes.push_back(b);
    if (b != kNullBin) memo.unfiltered[b] += scale_;
  }
  std::lock_guard<std::mutex> lock(key_memos_mu_);
  return key_memos_.emplace(key, std::move(memo)).first->second;
}

KeyDistResult SamplingEstimator::EstimateKeyDists(
    const Predicate& filter, const std::vector<KeyDistRequest>& keys) const {
  KeyDistResult result;
  result.masses.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    result.masses[i].assign(keys[i].binning->num_bins(), 0.0);
  }
  size_t hits = 0;
  if (!sample_rows_.empty() && filter.kind() == Predicate::Kind::kTrue) {
    hits = sample_rows_.size();
    for (size_t i = 0; i < keys.size(); ++i) {
      result.masses[i] = KeyMemoFor(table_->Col(keys[i].column),
                                    *keys[i].binning).unfiltered;
    }
  } else if (!sample_rows_.empty()) {
    std::vector<const uint32_t*> codes(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      codes[i] = KeyMemoFor(table_->Col(keys[i].column),
                            *keys[i].binning).codes.data();
    }
    CompiledPredicate compiled(*table_, filter);
    const uint32_t* rows = sample_rows_.data();
    uint32_t at[CompiledPredicate::kBlockRows];  // sample index per match
    compiled.SelectBlocks(
        rows, sample_rows_.size(),
        [&](size_t first, const uint32_t* sel, size_t k) {
          hits += k;
          if (keys.empty()) return;
          // The matches are an ascending subsequence of the block.
          for (size_t s = 0, j = first; s < k; ++s, ++j) {
            while (rows[j] != sel[s]) ++j;
            at[s] = static_cast<uint32_t>(j);
          }
          // Each bin still gets `scale_` once per matching row in
          // ascending sample order: the bits of a row-at-a-time scan.
          for (size_t i = 0; i < keys.size(); ++i) {
            double* mass = result.masses[i].data();
            for (size_t s = 0; s < k; ++s) {
              uint32_t b = codes[i][at[s]];
              if (b != kNullBin) mass[b] += scale_;
            }
          }
        });
  }
  // Zero hits bound selectivity below ~1/|sample|, they do not prove
  // emptiness; report half a sample row to avoid catastrophic
  // underestimation downstream.
  result.filtered_rows = std::max(static_cast<double>(hits), 0.5) * scale_;
  return result;
}

void SamplingEstimator::Refresh(const Table& table) {
  table_ = &table;
  DrawSample();
}

size_t SamplingEstimator::MemoryBytes() const {
  return sample_rows_.size() * sizeof(uint32_t);
}

}  // namespace fj
