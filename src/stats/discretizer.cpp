#include "stats/discretizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/bytes.h"

namespace fj {

Discretizer Discretizer::FromBinning(const Column& col,
                                     const Binning* binning) {
  Discretizer d;
  d.external_ = binning;
  d.num_categories_ = binning->num_bins() + 1;  // + null
  d.BuildMeta(col);
  return d;
}

Discretizer Discretizer::AutoEqualDepth(const Column& col,
                                        uint32_t max_categories) {
  Discretizer d;
  // Equal-depth boundaries over the sorted distinct codes weighted by count.
  std::unordered_map<int64_t, uint64_t> counts;
  for (int64_t v : col.ints()) {
    if (v != kNullInt64) ++counts[v];
  }
  std::vector<std::pair<int64_t, uint64_t>> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end());
  uint32_t cats = std::min<uint32_t>(
      max_categories, std::max<uint32_t>(static_cast<uint32_t>(sorted.size()), 1));
  if (sorted.size() <= max_categories) {
    // Budget covers every distinct value: one category per value, which keeps
    // conditional distributions exact on categorical columns.
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      d.upper_bounds_.push_back(sorted[i].first);
    }
  } else {
    uint64_t total = 0;
    for (const auto& [v, c] : sorted) total += c;
    uint64_t per = std::max<uint64_t>(cats == 0 ? total : total / cats, 1);
    uint64_t acc = 0;
    for (const auto& [v, c] : sorted) {
      acc += c;
      if (acc >= per && d.upper_bounds_.size() + 1 < cats) {
        d.upper_bounds_.push_back(v);
        acc = 0;
      }
    }
  }
  d.upper_bounds_.push_back(std::numeric_limits<int64_t>::max());
  d.num_categories_ = static_cast<uint32_t>(d.upper_bounds_.size()) + 1;
  d.BuildMeta(col);
  return d;
}

uint32_t Discretizer::CategoryOf(int64_t code) const {
  if (code == kNullInt64) return null_category();
  if (external_ != nullptr) return external_->BinOf(code);
  auto it = std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), code);
  if (it == upper_bounds_.end()) {
    return static_cast<uint32_t>(upper_bounds_.size()) - 1;
  }
  return static_cast<uint32_t>(it - upper_bounds_.begin());
}

void Discretizer::BuildMeta(const Column& col) {
  meta_.assign(num_categories_, {});
  std::unordered_map<int64_t, uint64_t> counts;
  for (int64_t v : col.ints()) {
    if (v == kNullInt64) {
      meta_[null_category()].count += 1.0;
    } else {
      ++counts[v];
    }
  }
  meta_[null_category()].ndv = meta_[null_category()].count > 0 ? 1.0 : 0.0;
  for (const auto& [v, c] : counts) {
    CategoryMeta& m = meta_[CategoryOf(v)];
    if (m.ndv == 0.0) {
      m.min_code = m.max_code = v;
    } else {
      m.min_code = std::min(m.min_code, v);
      m.max_code = std::max(m.max_code, v);
    }
    m.count += static_cast<double>(c);
    m.ndv += 1.0;
  }
  value_counts_.clear();
  if (counts.size() <= kExactCountLimit) {
    for (const auto& [v, c] : counts) {
      value_counts_[v] = static_cast<double>(c);
    }
  }
}

double Discretizer::EqualityWeight(int64_t code) const {
  const CategoryMeta& m = meta_[CategoryOf(code)];
  if (m.count <= 0.0 || m.ndv <= 0.0) return 0.0;
  if (!value_counts_.empty()) {
    auto it = value_counts_.find(code);
    // A value never seen in the data has true frequency zero.
    if (it == value_counts_.end()) return 0.0;
    return it->second / m.count;
  }
  return 1.0 / m.ndv;
}

double Discretizer::RangeOverlap(const CategoryMeta& m, int64_t lo,
                                 int64_t hi) const {
  if (m.ndv <= 0.0) return 0.0;
  if (hi < m.min_code || lo > m.max_code) return 0.0;
  if (lo <= m.min_code && hi >= m.max_code) return 1.0;
  // Partial overlap: assume values spread uniformly over [min, max].
  double span = static_cast<double>(m.max_code) - static_cast<double>(m.min_code) + 1.0;
  double olo = static_cast<double>(std::max(lo, m.min_code));
  double ohi = static_cast<double>(std::min(hi, m.max_code));
  return std::clamp((ohi - olo + 1.0) / span, 0.0, 1.0);
}

std::optional<std::vector<double>> Discretizer::LeafEvidence(
    const Column& col, const Predicate& leaf) const {
  std::vector<double> w(num_categories_, 0.0);

  auto range_weights = [&](const CodeRange& codes) {
    for (uint32_t c = 0; c + 1 < num_categories_; ++c) {
      w[c] = RangeOverlap(meta_[c], codes.lo, codes.hi);
    }
  };

  switch (leaf.kind()) {
    case Predicate::Kind::kTrue:
      std::fill(w.begin(), w.end(), 1.0);
      return w;
    case Predicate::Kind::kCompare: {
      CodeRange codes = LiteralCodes(col, leaf.op(), leaf.value());
      switch (leaf.op()) {
        case CmpOp::kEq:
          // A literal with no code matches nothing.
          if (!codes.empty()) {
            w[CategoryOf(codes.lo)] = EqualityWeight(codes.lo);
          }
          return w;
        case CmpOp::kNe:
          std::fill(w.begin(), w.end() - 1, 1.0);
          if (!codes.empty()) {
            w[CategoryOf(codes.lo)] = 1.0 - EqualityWeight(codes.lo);
          }
          return w;
        default:
          range_weights(codes);
          return w;
      }
    }
    case Predicate::Kind::kBetween:
      range_weights(BetweenCodes(col, leaf.lo(), leaf.hi()));
      return w;
    case Predicate::Kind::kIn: {
      for (const Literal& lit : leaf.set()) {
        CodeRange codes = LiteralCodes(col, CmpOp::kEq, lit);
        if (codes.empty()) continue;
        uint32_t c = CategoryOf(codes.lo);
        w[c] = std::min(1.0, w[c] + EqualityWeight(codes.lo));
      }
      return w;
    }
    case Predicate::Kind::kIsNull:
      w[null_category()] = 1.0;
      return w;
    case Predicate::Kind::kIsNotNull:
      std::fill(w.begin(), w.end() - 1, 1.0);
      return w;
    default:
      return std::nullopt;  // LIKE / composite: caller must fall back
  }
}

void Discretizer::Save(ByteWriter& w) const {
  w.U8(external_ != nullptr ? 1 : 0);
  w.U32(num_categories_);
  w.U32(static_cast<uint32_t>(upper_bounds_.size()));
  for (int64_t b : upper_bounds_) w.I64(b);
  w.U32(static_cast<uint32_t>(meta_.size()));
  for (const CategoryMeta& m : meta_) {
    w.F64(m.count);
    w.F64(m.ndv);
    w.I64(m.min_code);
    w.I64(m.max_code);
  }
  auto sorted = SortedEntries(value_counts_);
  w.U32(static_cast<uint32_t>(sorted.size()));
  for (const auto* entry : sorted) {
    w.I64(entry->first);
    w.F64(entry->second);
  }
}

Discretizer Discretizer::LoadFrom(ByteReader& r, const Binning* external) {
  Discretizer d;
  bool is_external = r.U8() != 0;
  if (is_external && external == nullptr) {
    throw SerializeError(
        "discretizer snapshot wraps a group binning the loader did not "
        "provide");
  }
  d.external_ = is_external ? external : nullptr;
  d.num_categories_ = r.U32();
  if (d.num_categories_ == 0) {
    throw SerializeError("discretizer with zero categories");
  }
  if (is_external && d.num_categories_ != external->num_bins() + 1) {
    throw SerializeError(
        "discretizer snapshot does not match its group binning's bin count");
  }
  uint32_t n_bounds = r.CountU32(sizeof(int64_t));
  if (!is_external && static_cast<size_t>(n_bounds) + 1 != d.num_categories_) {
    throw SerializeError("discretizer boundary count mismatch");
  }
  d.upper_bounds_.reserve(n_bounds);
  for (uint32_t i = 0; i < n_bounds; ++i) d.upper_bounds_.push_back(r.I64());
  uint32_t n_meta = r.CountU32(2 * sizeof(double) + 2 * sizeof(int64_t));
  if (n_meta != d.num_categories_) {
    throw SerializeError("discretizer category metadata count mismatch");
  }
  d.meta_.reserve(n_meta);
  for (uint32_t i = 0; i < n_meta; ++i) {
    CategoryMeta m;
    m.count = r.F64();
    m.ndv = r.F64();
    m.min_code = r.I64();
    m.max_code = r.I64();
    d.meta_.push_back(m);
  }
  uint32_t n_values = r.CountU32(sizeof(int64_t) + sizeof(double));
  d.value_counts_.reserve(n_values);
  for (uint32_t i = 0; i < n_values; ++i) {
    int64_t value = r.I64();
    d.value_counts_[value] = r.F64();
  }
  return d;
}

size_t Discretizer::MemoryBytes() const {
  return upper_bounds_.size() * sizeof(int64_t) +
         meta_.size() * sizeof(CategoryMeta);
}

}  // namespace fj
