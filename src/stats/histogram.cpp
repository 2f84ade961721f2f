#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/bytes.h"

namespace fj {
namespace {

constexpr double kDefaultLikeSelectivity = 0.05;
constexpr double kDefaultLeafSelectivity = 0.33;

}  // namespace

ColumnHistogram::ColumnHistogram(const Column& col, uint32_t num_buckets) {
  rows_ = col.size();
  std::unordered_map<int64_t, uint64_t> counts;
  uint64_t nulls = 0;
  for (int64_t v : col.ints()) {
    if (v == kNullInt64) {
      ++nulls;
    } else {
      ++counts[v];
    }
  }
  null_fraction_ = rows_ == 0 ? 0.0 : static_cast<double>(nulls) / static_cast<double>(rows_);
  ndv_ = counts.size();
  if (counts.empty()) return;

  std::vector<std::pair<int64_t, uint64_t>> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end());
  uint64_t non_null = rows_ - nulls;
  uint64_t per = std::max<uint64_t>(num_buckets == 0 ? non_null : non_null / num_buckets, 1);

  Bucket current;
  current.lo = sorted.front().first;
  bool open = false;
  for (const auto& [v, c] : sorted) {
    if (!open) {
      current = Bucket{};
      current.lo = v;
      open = true;
    }
    current.hi = v;
    current.count += static_cast<double>(c);
    current.ndv += 1.0;
    if (current.count >= static_cast<double>(per) &&
        buckets_.size() + 1 < num_buckets) {
      buckets_.push_back(current);
      open = false;
    }
  }
  if (open) buckets_.push_back(current);
}

double ColumnHistogram::EqualitySelectivity(int64_t code) const {
  if (rows_ == 0) return 0.0;
  for (const Bucket& b : buckets_) {
    if (code >= b.lo && code <= b.hi) {
      if (b.ndv <= 0.0) return 0.0;
      // Uniform within bucket: count/ndv rows per distinct value.
      return (b.count / b.ndv) / static_cast<double>(rows_);
    }
  }
  return 0.0;
}

double ColumnHistogram::RangeSelectivity(int64_t lo, int64_t hi) const {
  if (rows_ == 0 || lo > hi) return 0.0;
  double matched = 0.0;
  for (const Bucket& b : buckets_) {
    if (hi < b.lo || lo > b.hi) continue;
    if (lo <= b.lo && hi >= b.hi) {
      matched += b.count;
      continue;
    }
    double span = static_cast<double>(b.hi) - static_cast<double>(b.lo) + 1.0;
    double olo = static_cast<double>(std::max(lo, b.lo));
    double ohi = static_cast<double>(std::min(hi, b.hi));
    matched += b.count * std::clamp((ohi - olo + 1.0) / span, 0.0, 1.0);
  }
  return matched / static_cast<double>(rows_);
}

double ColumnHistogram::LeafSelectivity(const Column& col,
                                        const Predicate& leaf) const {
  switch (leaf.kind()) {
    case Predicate::Kind::kTrue:
      return 1.0;
    case Predicate::Kind::kCompare: {
      CodeRange codes = LiteralCodes(col, leaf.op(), leaf.value());
      if (leaf.op() != CmpOp::kEq && leaf.op() != CmpOp::kNe) {
        return RangeSelectivity(codes.lo, codes.hi);
      }
      double equal = codes.empty() ? 0.0 : EqualitySelectivity(codes.lo);
      return leaf.op() == CmpOp::kEq
                 ? equal
                 : std::max(0.0, 1.0 - null_fraction_ - equal);
    }
    case Predicate::Kind::kBetween: {
      CodeRange codes = BetweenCodes(col, leaf.lo(), leaf.hi());
      return RangeSelectivity(codes.lo, codes.hi);
    }
    case Predicate::Kind::kIn: {
      double s = 0.0;
      for (const Literal& lit : leaf.set()) {
        CodeRange codes = LiteralCodes(col, CmpOp::kEq, lit);
        if (!codes.empty()) s += EqualitySelectivity(codes.lo);
      }
      return std::min(s, 1.0);
    }
    case Predicate::Kind::kLike:
      return kDefaultLikeSelectivity;
    case Predicate::Kind::kNotLike:
      return 1.0 - kDefaultLikeSelectivity;
    case Predicate::Kind::kIsNull:
      return null_fraction_;
    case Predicate::Kind::kIsNotNull:
      return 1.0 - null_fraction_;
    default:
      return kDefaultLeafSelectivity;
  }
}

void ColumnHistogram::Save(ByteWriter& w) const {
  w.U64(rows_);
  w.U64(ndv_);
  w.F64(null_fraction_);
  w.U32(static_cast<uint32_t>(buckets_.size()));
  for (const Bucket& b : buckets_) {
    w.I64(b.lo);
    w.I64(b.hi);
    w.F64(b.count);
    w.F64(b.ndv);
  }
}

ColumnHistogram ColumnHistogram::LoadFrom(ByteReader& r) {
  ColumnHistogram h;
  h.rows_ = r.U64();
  h.ndv_ = r.U64();
  h.null_fraction_ = r.F64();
  uint32_t n = r.CountU32(2 * sizeof(int64_t) + 2 * sizeof(double));
  h.buckets_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Bucket b;
    b.lo = r.I64();
    b.hi = r.I64();
    b.count = r.F64();
    b.ndv = r.F64();
    h.buckets_.push_back(b);
  }
  return h;
}

size_t ColumnHistogram::MemoryBytes() const {
  return buckets_.size() * sizeof(Bucket) + sizeof(*this);
}

double EstimateSelectivity(const Table& table,
                           const std::vector<ColumnHistogram>& histograms,
                           const std::vector<std::string>& histogram_columns,
                           const Predicate& pred) {
  auto hist_for = [&](const std::string& column) -> const ColumnHistogram* {
    for (size_t i = 0; i < histogram_columns.size(); ++i) {
      if (histogram_columns[i] == column) return &histograms[i];
    }
    return nullptr;
  };

  switch (pred.kind()) {
    case Predicate::Kind::kAnd: {
      double s = 1.0;
      for (const auto& c : pred.children()) {
        s *= EstimateSelectivity(table, histograms, histogram_columns, *c);
      }
      return s;
    }
    case Predicate::Kind::kOr: {
      // Inclusion-exclusion under independence: 1 - prod(1 - s_i).
      double inv = 1.0;
      for (const auto& c : pred.children()) {
        inv *= 1.0 - EstimateSelectivity(table, histograms, histogram_columns, *c);
      }
      return 1.0 - inv;
    }
    case Predicate::Kind::kNot:
      return 1.0 - EstimateSelectivity(table, histograms, histogram_columns,
                                       *pred.children()[0]);
    default: {
      const ColumnHistogram* h = hist_for(pred.column());
      if (h == nullptr) return pred.kind() == Predicate::Kind::kTrue ? 1.0 : 0.33;
      return h->LeafSelectivity(table.Col(pred.column()), pred);
    }
  }
}

}  // namespace fj
