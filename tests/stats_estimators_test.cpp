#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "factorjoin/binning.h"
#include "query/filter_eval.h"
#include "stats/bayes_net.h"
#include "stats/chow_liu.h"
#include "stats/discretizer.h"
#include "stats/histogram.h"
#include "stats/sampling_estimator.h"
#include "stats/truescan_estimator.h"
#include "util/rng.h"

namespace fj {
namespace {

// Table with a strong dependency chain a -> b -> c and independent noise d.
Table MakeCorrelatedTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Table t("t");
  Column* a = t.AddColumn("a", ColumnType::kInt64);
  Column* b = t.AddColumn("b", ColumnType::kInt64);
  Column* c = t.AddColumn("c", ColumnType::kInt64);
  Column* d = t.AddColumn("d", ColumnType::kInt64);
  for (size_t i = 0; i < rows; ++i) {
    int64_t av = rng.Range(0, 3);
    int64_t bv = av * 2 + (rng.Chance(0.1) ? rng.Range(0, 7) : 0);
    int64_t cv = bv + (rng.Chance(0.15) ? rng.Range(0, 3) : 0);
    a->AppendInt(av);
    b->AppendInt(bv);
    c->AppendInt(cv);
    d->AppendInt(rng.Range(0, 9));
  }
  return t;
}

TEST(SamplingEstimatorTest, FullRateIsExact) {
  Table t = MakeCorrelatedTable(500, 1);
  SamplingEstimator est(t, 1.0);
  auto pred = Predicate::Cmp("a", CmpOp::kEq, Literal::Int(2));
  EXPECT_DOUBLE_EQ(est.EstimateKeyDists(*pred, {}).filtered_rows,
                   static_cast<double>(CountMatches(t, *pred)));
}

TEST(SamplingEstimatorTest, PartialRateApproximates) {
  Table t = MakeCorrelatedTable(20000, 2);
  SamplingEstimator est(t, 0.1);
  auto pred = Predicate::Cmp("a", CmpOp::kLe, Literal::Int(1));
  double truth = static_cast<double>(CountMatches(t, *pred));
  double estimate = est.EstimateKeyDists(*pred, {}).filtered_rows;
  EXPECT_NEAR(estimate, truth, truth * 0.15);
}

TEST(SamplingEstimatorTest, KeyDistsSumToFilteredRows) {
  Table t = MakeCorrelatedTable(2000, 3);
  SamplingEstimator est(t, 0.5);
  Binning binning = BuildEqualWidth({&t.Col("b")}, 4);
  auto pred = Predicate::Cmp("a", CmpOp::kGe, Literal::Int(1));
  auto result = est.EstimateKeyDists(*pred, {{"b", &binning}});
  double sum = 0.0;
  for (double m : result.masses[0]) sum += m;
  EXPECT_NEAR(sum, result.filtered_rows, 1e-9);
}

TEST(TrueScanEstimatorTest, ExactDistributions) {
  Table t = MakeCorrelatedTable(800, 4);
  TrueScanEstimator est(t);
  Binning binning = BuildEqualWidth({&t.Col("b")}, 4);
  auto pred = Predicate::Cmp("d", CmpOp::kLe, Literal::Int(4));
  auto result = est.EstimateKeyDists(*pred, {{"b", &binning}});
  // Cross-check bin 0 by brute force.
  double expected0 = 0.0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (EvalRow(t, *pred, r) && binning.BinOf(t.Col("b").IntAt(r)) == 0) {
      expected0 += 1.0;
    }
  }
  EXPECT_DOUBLE_EQ(result.masses[0][0], expected0);
  EXPECT_DOUBLE_EQ(result.filtered_rows,
                   static_cast<double>(CountMatches(t, *pred)));
}

TEST(ChowLiuTest, RecoversChainStructure) {
  Table t = MakeCorrelatedTable(5000, 5);
  // Discretize manually (values are already small ints).
  std::vector<std::vector<uint32_t>> data(4);
  std::vector<uint32_t> cards(4, 0);
  for (size_t v = 0; v < 4; ++v) {
    const Column& col = *t.columns()[v];
    data[v].resize(col.size());
    for (size_t r = 0; r < col.size(); ++r) {
      data[v][r] = static_cast<uint32_t>(col.IntAt(r));
      cards[v] = std::max(cards[v], data[v][r] + 1);
    }
  }
  ChowLiuTree tree = LearnChowLiuTree(data, cards);
  // Edges must link a-b and b-c (in some orientation); d attaches weakly.
  auto linked = [&](size_t x, size_t y) {
    return tree.parent[x] == static_cast<int>(y) ||
           tree.parent[y] == static_cast<int>(x);
  };
  EXPECT_TRUE(linked(0, 1));
  EXPECT_TRUE(linked(1, 2));
  EXPECT_FALSE(linked(0, 3));
}

TEST(ChowLiuTest, TopologicalOrderParentsFirst) {
  ChowLiuTree tree;
  tree.parent = {-1, 0, 0, 1};
  tree.edge_mi = {0, 1, 1, 1};
  auto order = tree.TopologicalOrder();
  std::vector<int> pos(order.size());
  for (size_t i = 0; i < order.size(); ++i) pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  for (size_t v = 0; v < tree.parent.size(); ++v) {
    if (tree.parent[v] >= 0) {
      EXPECT_LT(pos[static_cast<size_t>(tree.parent[v])], pos[v]);
    }
  }
}

TEST(DiscretizerTest, ExternalBinningCategories) {
  Column col("k", ColumnType::kInt64);
  for (int64_t v : {1, 5, 9, 9, 9}) col.AppendInt(v);
  col.AppendNull();
  Binning b = Binning::FromBounds({4, std::numeric_limits<int64_t>::max()});
  Discretizer d = Discretizer::FromBinning(col, &b);
  EXPECT_EQ(d.num_categories(), 3u);  // 2 bins + null
  EXPECT_EQ(d.CategoryOf(1), 0u);
  EXPECT_EQ(d.CategoryOf(9), 1u);
  EXPECT_EQ(d.CategoryOf(kNullInt64), 2u);
}

TEST(DiscretizerTest, EqualityEvidenceUsesNdv) {
  Column col("k", ColumnType::kInt64);
  for (int64_t v : {1, 2, 3, 4}) col.AppendInt(v);  // one bin, ndv 4
  Binning b = Binning::FromBounds({std::numeric_limits<int64_t>::max()});
  Discretizer d = Discretizer::FromBinning(col, &b);
  auto pred = Predicate::Cmp("k", CmpOp::kEq, Literal::Int(2));
  auto w = d.LeafEvidence(col, *pred);
  ASSERT_TRUE(w.has_value());
  EXPECT_DOUBLE_EQ((*w)[0], 0.25);
}

TEST(DiscretizerTest, RangeEvidencePartialOverlap) {
  Column col("k", ColumnType::kInt64);
  for (int64_t v = 0; v < 10; ++v) col.AppendInt(v);
  Binning b = Binning::FromBounds({9});  // single bin [0..9]
  Discretizer d = Discretizer::FromBinning(col, &b);
  auto pred = Predicate::Cmp("k", CmpOp::kLt, Literal::Int(5));
  auto w = d.LeafEvidence(col, *pred);
  ASSERT_TRUE(w.has_value());
  EXPECT_NEAR((*w)[0], 0.5, 1e-9);
}

TEST(DiscretizerTest, LikeReturnsNullopt) {
  Column col("s", ColumnType::kString);
  col.AppendString("abc");
  Binning b = Binning::FromBounds({std::numeric_limits<int64_t>::max()});
  Discretizer d = Discretizer::FromBinning(col, &b);
  EXPECT_FALSE(d.LeafEvidence(col, *Predicate::Like("s", "%a%")).has_value());
}

TEST(BayesNetTest, UnfilteredMatchesRowCount) {
  Table t = MakeCorrelatedTable(3000, 6);
  BayesNetEstimator est(t, {});
  EXPECT_NEAR(est.EstimateKeyDists(*Predicate::True(), {}).filtered_rows,
              3000.0, 30.0);
}

TEST(BayesNetTest, CapturesCorrelationBetterThanIndependence) {
  Table t = MakeCorrelatedTable(8000, 7);
  BayesNetEstimator est(t, {});
  // P(a=3 AND b=6) is ~0.9 * P(a=3) because b ~ 2a; independence would give
  // P(a=3)*P(b=6) ~ P(a=3) * 0.23.
  auto pred = Predicate::And({Predicate::Cmp("a", CmpOp::kEq, Literal::Int(3)),
                              Predicate::Cmp("b", CmpOp::kEq, Literal::Int(6))});
  double truth = static_cast<double>(CountMatches(t, *pred));
  double bn = est.EstimateKeyDists(*pred, {}).filtered_rows;
  EXPECT_NEAR(bn, truth, truth * 0.35);
}

TEST(BayesNetTest, KeyDistMatchesTruthOnUnfiltered) {
  Table t = MakeCorrelatedTable(4000, 8);
  Binning binning = BuildEqualWidth({&t.Col("b")}, 4);
  std::unordered_map<std::string, const Binning*> kb{{"b", &binning}};
  BayesNetEstimator est(t, kb);
  auto result = est.EstimateKeyDists(*Predicate::True(), {{"b", &binning}});
  TrueScanEstimator exact(t);
  auto truth = exact.EstimateKeyDists(*Predicate::True(), {{"b", &binning}});
  for (uint32_t bin = 0; bin < 4; ++bin) {
    EXPECT_NEAR(result.masses[0][bin], truth.masses[0][bin],
                std::max(40.0, truth.masses[0][bin] * 0.15))
        << "bin " << bin;
  }
}

TEST(BayesNetTest, FallsBackOnDisjunction) {
  Table t = MakeCorrelatedTable(3000, 9);
  BayesNetEstimator est(t, {});
  auto pred = Predicate::Or({Predicate::Cmp("a", CmpOp::kEq, Literal::Int(0)),
                             Predicate::Cmp("a", CmpOp::kEq, Literal::Int(3))});
  double truth = static_cast<double>(CountMatches(t, *pred));
  double estimate = est.EstimateKeyDists(*pred, {}).filtered_rows;
  EXPECT_NEAR(estimate, truth, truth * 0.3);
}

TEST(BayesNetTest, IncrementalUpdateTracksNewRows) {
  Table t = MakeCorrelatedTable(2000, 10);
  BayesNetEstimator est(t, {});
  size_t before = t.num_rows();
  // Append 500 rows of a = 3, a value inside the trained range.
  for (int i = 0; i < 500; ++i) {
    t.MutableCol("a")->AppendInt(3);
    t.MutableCol("b")->AppendInt(6);
    t.MutableCol("c")->AppendInt(6);
    t.MutableCol("d")->AppendInt(1);
  }
  est.IncrementalUpdate(t, before);
  auto pred = Predicate::Cmp("a", CmpOp::kEq, Literal::Int(3));
  double truth = static_cast<double>(CountMatches(t, *pred));
  EXPECT_NEAR(est.EstimateKeyDists(*pred, {}).filtered_rows, truth,
              truth * 0.3);
}

TEST(HistogramTest, EqualitySelectivity) {
  Column col("x", ColumnType::kInt64);
  for (int i = 0; i < 100; ++i) col.AppendInt(i % 10);
  ColumnHistogram h(col, 5);
  EXPECT_NEAR(h.LeafSelectivity(col, *Predicate::Cmp("x", CmpOp::kEq,
                                                     Literal::Int(3))),
              0.1, 0.03);
  EXPECT_EQ(h.distinct_count(), 10u);
}

TEST(HistogramTest, RangeSelectivity) {
  Column col("x", ColumnType::kInt64);
  for (int i = 0; i < 1000; ++i) col.AppendInt(i);
  ColumnHistogram h(col, 20);
  double sel = h.LeafSelectivity(
      col, *Predicate::Cmp("x", CmpOp::kLt, Literal::Int(250)));
  EXPECT_NEAR(sel, 0.25, 0.05);
}

TEST(HistogramTest, NullFraction) {
  Column col("x", ColumnType::kInt64);
  for (int i = 0; i < 50; ++i) col.AppendInt(1);
  for (int i = 0; i < 50; ++i) col.AppendNull();
  ColumnHistogram h(col, 4);
  EXPECT_DOUBLE_EQ(h.null_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(h.LeafSelectivity(col, *Predicate::IsNull("x")), 0.5);
}

// Literals at the ends of the int64 code space, in the Postgres-style
// column histogram and the BayesNet discretizer. An int literal of 2^62 on
// a double column has no fixed-point code and compares by its sign, as
// 1e30 does; NaN matches no code, and neither does a strict bound above
// the largest code or below the null code.
TEST(HistogramTest, LiteralsAtTheEndsOfTheCodeSpace) {
  Table t("t");
  Column* x = t.AddColumn("x", ColumnType::kDouble);
  Column* y = t.AddColumn("y", ColumnType::kInt64);
  for (int i = 0; i < 400; ++i) {
    x->AppendDouble(i * 0.25);
    y->AppendInt(i % 7);
  }
  const int64_t kMaxCode = std::numeric_limits<int64_t>::max();
  // Pairs of leaves that must estimate alike.
  const std::pair<PredicatePtr, PredicatePtr> alike[] = {
      {Predicate::Cmp("x", CmpOp::kLt, Literal::Int(int64_t{1} << 62)),
       Predicate::Cmp("x", CmpOp::kLe, Literal::Double(1e30))},
      {Predicate::Cmp("x", CmpOp::kGt, Literal::Int(int64_t{1} << 62)),
       Predicate::Cmp("x", CmpOp::kLt, Literal::Double(std::nan("")))},
      {Predicate::Cmp("y", CmpOp::kGt, Literal::Int(kMaxCode)),
       Predicate::Cmp("y", CmpOp::kLt, Literal::Int(kNullInt64))},
  };
  BayesNetEstimator est(t, {});
  for (const auto& [a, b] : alike) {
    const Column& col = t.Col(a->column());
    ColumnHistogram h(col, 8);
    EXPECT_EQ(h.LeafSelectivity(col, *a), h.LeafSelectivity(col, *b))
        << a->ToString();
    double rows = est.EstimateKeyDists(*a, {}).filtered_rows;
    EXPECT_TRUE(std::isfinite(rows)) << a->ToString();
    EXPECT_EQ(rows, est.EstimateKeyDists(*b, {}).filtered_rows)
        << a->ToString();
  }
}

// A literal beyond the code space (±1e30) or NaN keeps its meaning on an
// int and a double column with nulls: each comparison matches every
// non-null row or none. The row-at-a-time filter and the compiled kernel
// count the same rows, and the column histogram and BayesNet estimate 0
// for none and their own IS NOT NULL estimate for every row.
TEST(LiteralCodesTest, OutOfRangeLiteralsKeepTheirMeaning) {
  Table t("t");
  Column* i = t.AddColumn("i", ColumnType::kInt64);
  Column* d = t.AddColumn("d", ColumnType::kDouble);
  size_t non_null = 0;
  for (int r = 0; r < 400; ++r) {
    if (r % 10 == 9) {
      i->AppendNull();
      d->AppendNull();
      continue;
    }
    i->AppendInt(r % 50);
    d->AppendDouble((r % 40) * 0.25);
    ++non_null;
  }
  BayesNetEstimator bn(t, {});
  const double kBig = 1e30;
  const double kNaN = std::nan("");
  enum class Shape { kCmp, kBetween, kIn };
  struct Case {
    Shape shape;
    CmpOp op;            // kCmp only
    double all_rows_at;  // the literal that matches every non-null row;
                         // NaN: no literal does
    bool any = false;    // every literal matches every non-null row
  };
  const Case cases[] = {
      {Shape::kCmp, CmpOp::kLt, kBig},
      {Shape::kCmp, CmpOp::kLe, kBig},
      {Shape::kCmp, CmpOp::kGt, -kBig},
      {Shape::kCmp, CmpOp::kGe, -kBig},
      {Shape::kCmp, CmpOp::kEq, kNaN},
      {Shape::kCmp, CmpOp::kNe, kNaN, true},
      {Shape::kBetween, CmpOp::kEq, kBig},  // BETWEEN min AND x
      {Shape::kIn, CmpOp::kEq, kNaN},       // IN {x}
  };
  for (const char* column : {"i", "d"}) {
    const Column& col = t.Col(column);
    Literal min = col.type() == ColumnType::kInt64 ? Literal::Int(0)
                                                   : Literal::Double(0.0);
    ColumnHistogram hist(col, 8);
    double hist_not_null =
        hist.LeafSelectivity(col, *Predicate::IsNotNull(column));
    double bn_not_null =
        bn.EstimateKeyDists(*Predicate::IsNotNull(column), {}).filtered_rows;
    for (const Case& c : cases) {
      for (double x : {kBig, -kBig, kNaN}) {
        bool all = c.any || x == c.all_rows_at;
        Literal lit = Literal::Double(x);
        PredicatePtr p =
            c.shape == Shape::kBetween ? Predicate::Between(column, min, lit)
            : c.shape == Shape::kIn    ? Predicate::In(column, {lit})
                                       : Predicate::Cmp(column, c.op, lit);
        SCOPED_TRACE(p->ToString());
        size_t by_row = 0;
        for (size_t r = 0; r < t.num_rows(); ++r) by_row += EvalRow(t, *p, r);
        size_t count = CountMatches(t, *p);
        EXPECT_EQ(count, by_row);
        EXPECT_EQ(count, all ? non_null : 0u);
        double sel = hist.LeafSelectivity(col, *p);
        double rows = bn.EstimateKeyDists(*p, {}).filtered_rows;
        if (all) {
          EXPECT_NEAR(sel, hist_not_null, 1e-9 * hist_not_null);
          EXPECT_NEAR(rows, bn_not_null, 1e-9 * bn_not_null);
        } else {
          EXPECT_EQ(sel, 0.0);
          EXPECT_EQ(rows, 0.0);
        }
      }
    }
  }
}

TEST(SelectivityTest, AndOrComposition) {
  Table t = MakeCorrelatedTable(1000, 11);
  std::vector<ColumnHistogram> hists;
  std::vector<std::string> cols;
  for (const auto& c : t.columns()) {
    cols.push_back(c->name());
    hists.emplace_back(*c, 10);
  }
  auto p_and = Predicate::And({Predicate::Cmp("a", CmpOp::kLe, Literal::Int(1)),
                               Predicate::Cmp("d", CmpOp::kLe, Literal::Int(4))});
  double s_and = EstimateSelectivity(t, hists, cols, *p_and);
  double s_a = EstimateSelectivity(
      t, hists, cols, *Predicate::Cmp("a", CmpOp::kLe, Literal::Int(1)));
  EXPECT_LT(s_and, s_a);
  auto p_or = Predicate::Or({Predicate::Cmp("a", CmpOp::kLe, Literal::Int(1)),
                             Predicate::Cmp("d", CmpOp::kLe, Literal::Int(4))});
  EXPECT_GT(EstimateSelectivity(t, hists, cols, *p_or), s_a);
}

}  // namespace
}  // namespace fj
