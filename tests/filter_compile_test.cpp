// CompiledPredicate's block selection must pick exactly the rows EvalRow
// accepts, for every predicate class — the compiled form powers the
// estimation hot path (sample scans), so a single divergent boolean would
// silently move estimates. Covers every Predicate::Kind, every LIKE
// specialization class, nulls, type coercions, the evaluation-order-
// insensitive AND/OR reordering, seeded random predicate trees over row
// subsets around the block size, and the sampling and truescan key
// distributions against the row-at-a-time loops they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "factorjoin/binning.h"
#include "query/filter_eval.h"
#include "query/predicate.h"
#include "stats/sampling_estimator.h"
#include "stats/truescan_estimator.h"
#include "storage/table.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace fj {
namespace {

Table MakeTable() {
  Table t("t");
  Column* i = t.AddColumn("i", ColumnType::kInt64);
  Column* d = t.AddColumn("d", ColumnType::kDouble);
  Column* s = t.AddColumn("s", ColumnType::kString);
  std::vector<std::string> words = {"apple",  "apricot", "banana", "grape",
                                    "grapefruit", "melon", "",     "pineapple",
                                    "ape",    "nap"};
  for (int r = 0; r < 64; ++r) {
    if (r % 13 == 7) {
      i->AppendNull();
    } else {
      i->AppendInt((r * 7) % 23 - 5);
    }
    if (r % 11 == 3) {
      d->AppendNull();
    } else {
      d->AppendDouble(static_cast<double>(r) * 0.75 - 10.0);
    }
    if (r % 9 == 5) {
      s->AppendNull();
    } else {
      s->AppendString(words[static_cast<size_t>(r) % words.size()]);
    }
  }
  return t;
}

// The rows of `rows` that EvalRow accepts, in order.
std::vector<uint32_t> RowAtATime(const Table& t, const Predicate& p,
                                 const std::vector<uint32_t>& rows) {
  std::vector<uint32_t> out;
  for (uint32_t r : rows) {
    if (EvalRow(t, p, r)) out.push_back(r);
  }
  return out;
}

std::vector<uint32_t> AllRows(const Table& t) {
  std::vector<uint32_t> rows(t.num_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

// One Select call over the whole table (64 rows, one block).
void ExpectEquivalent(const Table& t, const PredicatePtr& p,
                      const std::string& what) {
  CompiledPredicate compiled(t, *p);
  std::vector<uint32_t> rows = AllRows(t);
  std::vector<uint32_t> sel(rows.size());
  sel.resize(compiled.Select(rows.data(), rows.size(), sel.data()));
  EXPECT_EQ(sel, RowAtATime(t, *p, rows)) << what;
}

TEST(FilterCompileTest, ComparisonsAllTypesAllOps) {
  Table t = MakeTable();
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    ExpectEquivalent(t, Predicate::Cmp("i", op, Literal::Int(4)), "int cmp");
    // Double literal against int column exercises the llround coercion.
    ExpectEquivalent(t, Predicate::Cmp("i", op, Literal::Double(3.6)),
                     "int cmp double lit");
    ExpectEquivalent(t, Predicate::Cmp("d", op, Literal::Double(5.25)),
                     "double cmp");
    ExpectEquivalent(t, Predicate::Cmp("d", op, Literal::Int(2)),
                     "double cmp int lit");
    ExpectEquivalent(t, Predicate::Cmp("s", op, Literal::Str("grape")),
                     "string cmp");
    ExpectEquivalent(t, Predicate::Cmp("s", op, Literal::Str("zzz-absent")),
                     "string cmp absent literal");
  }
}

TEST(FilterCompileTest, BetweenInNullChecks) {
  Table t = MakeTable();
  ExpectEquivalent(t, Predicate::Between("i", Literal::Int(-2), Literal::Int(9)),
                   "int between");
  ExpectEquivalent(
      t, Predicate::Between("d", Literal::Double(-4.5), Literal::Int(20)),
      "double between mixed literals");
  ExpectEquivalent(
      t, Predicate::Between("s", Literal::Str("ape"), Literal::Str("melon")),
      "string between");
  ExpectEquivalent(t,
                   Predicate::In("i", {Literal::Int(1), Literal::Int(4),
                                       Literal::Double(6.2)}),
                   "int in");
  ExpectEquivalent(t,
                   Predicate::In("d", {Literal::Double(-10.0),
                                       Literal::Int(5)}),
                   "double in");
  ExpectEquivalent(t,
                   Predicate::In("s", {Literal::Str("banana"),
                                       Literal::Str("zzz-absent"),
                                       Literal::Str("nap")}),
                   "string in");
  ExpectEquivalent(t, Predicate::IsNull("i"), "is null");
  ExpectEquivalent(t, Predicate::IsNotNull("s"), "is not null");
}

TEST(FilterCompileTest, LikeSpecializationClasses) {
  Table t = MakeTable();
  // One pattern per LikeClass, plus generic fallbacks.
  std::vector<std::string> patterns = {
      "grape",        // exact
      "%",            // any
      "%%",           // any (repeated %)
      "ape%",         // prefix
      "%ape",         // suffix
      "%ape%",        // contains
      "%%ape%%",      // contains with doubled %
      "a%e",          // edges
      "gr%fruit",     // edges
      "a%p%e",        // generic: two inner runs
      "_ap",          // generic: underscore
      "%a_p%",        // generic
      "",             // exact empty pattern
      "zzz-absent",   // exact, literal not in dictionary
  };
  for (const std::string& p : patterns) {
    ExpectEquivalent(t, Predicate::Like("s", p), "LIKE " + p);
    ExpectEquivalent(t, Predicate::NotLike("s", p), "NOT LIKE " + p);
  }
}

TEST(FilterCompileTest, BooleanCombinatorsReorderSafely) {
  Table t = MakeTable();
  // Expensive LIKE first in the source order: compilation reorders it after
  // the cheap integer compare without changing any result.
  std::vector<PredicatePtr> and_kids;
  and_kids.push_back(Predicate::Like("s", "%ape%"));
  and_kids.push_back(Predicate::Cmp("i", CmpOp::kGt, Literal::Int(0)));
  ExpectEquivalent(t, Predicate::And(std::move(and_kids)),
                   "and with reorder");

  std::vector<PredicatePtr> inner_or;
  inner_or.push_back(Predicate::Cmp("d", CmpOp::kLt, Literal::Double(0.0)));
  inner_or.push_back(Predicate::IsNull("i"));
  std::vector<PredicatePtr> outer_or;
  outer_or.push_back(Predicate::Like("s", "%ape%"));
  outer_or.push_back(Predicate::Or(std::move(inner_or)));
  ExpectEquivalent(t, Predicate::Or(std::move(outer_or)), "nested or");

  std::vector<PredicatePtr> not_and;
  not_and.push_back(Predicate::Cmp("i", CmpOp::kGe, Literal::Int(2)));
  not_and.push_back(Predicate::NotLike("s", "gr%"));
  ExpectEquivalent(t, Predicate::Not(Predicate::And(std::move(not_and))),
                   "not of and");
  ExpectEquivalent(t, Predicate::True(), "true");
}

TEST(FilterCompileTest, MissingColumnThrowsAtCompile) {
  Table t = MakeTable();
  PredicatePtr p = Predicate::Cmp("absent", CmpOp::kEq, Literal::Int(1));
  EXPECT_THROW(CompiledPredicate(t, *p), std::out_of_range);
}


// ----------------------------------------------------- differential checks

constexpr size_t kBlock = CompiledPredicate::kBlockRows;

const std::vector<std::string>& Words() {
  static const std::vector<std::string> words = {
      "apple", "apricot", "banana", "grape", "grapefruit", "melon", "",
      "pineapple", "ape", "nap", "a_p", "50%", "Ape", "grapes", "pear",
      "apeape"};
  return words;
}

// Appends `rows` rows to the columns MakeWideTable declares.
void AppendWideRows(Table* t, size_t rows, uint64_t seed) {
  Rng rng(seed);
  Column* i = t->MutableCol("i");
  Column* d = t->MutableCol("d");
  Column* s = t->MutableCol("s");
  Column* k = t->MutableCol("k");
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Chance(0.08)) {
      i->AppendNull();
    } else {
      i->AppendInt(rng.Range(-20, 40));
    }
    if (rng.Chance(0.08)) {
      d->AppendNull();
    } else {
      d->AppendDouble(static_cast<double>(rng.Range(-20, 20)) * 0.5);
    }
    if (rng.Chance(0.08)) {
      s->AppendNull();
    } else {
      s->AppendString(Words()[rng.Below(Words().size())]);
    }
    if (rng.Chance(0.1)) {
      k->AppendNull();
    } else {
      k->AppendInt(rng.Range(0, 300));
    }
  }
}

// Three columns, each with nulls: `i` (small ints), `d` (halves), `s`
// (words, dictionary-encoded), plus a join key `k`.
Table MakeWideTable(size_t rows, uint64_t seed) {
  Table t("w");
  t.AddColumn("i", ColumnType::kInt64);
  t.AddColumn("d", ColumnType::kDouble);
  t.AddColumn("s", ColumnType::kString);
  t.AddColumn("k", ColumnType::kInt64);
  AppendWideRows(&t, rows, seed);
  return t;
}

CmpOp RandomOp(Rng& rng) { return static_cast<CmpOp>(rng.Below(6)); }

Literal RandomLiteral(Rng& rng, const std::string& column) {
  if (column == "s") {
    return rng.Chance(0.15) ? Literal::Str("zzz-absent")
                            : Literal::Str(Words()[rng.Below(Words().size())]);
  }
  if (column == "d") {
    switch (rng.Below(4)) {
      case 0: return Literal::Double(std::nan(""));
      case 1: return Literal::Int(rng.Range(-11, 11));
      default:
        return Literal::Double(static_cast<double>(rng.Range(-22, 22)) * 0.5);
    }
  }
  switch (rng.Below(5)) {
    case 0: return Literal::Double(static_cast<double>(rng.Range(-44, 84)) * 0.5);
    case 1: return Literal::Int(std::numeric_limits<int64_t>::min());  // the null code
    default: return Literal::Int(rng.Range(-25, 45));
  }
}

PredicatePtr RandomLeaf(Rng& rng) {
  static const std::vector<std::string> kPatterns = {
      "grape", "%", "%%", "ap%", "%ape", "%ape%", "%%an%%", "a%e", "gr%s",
      "a%p%e", "_ap", "%a_p%", "", "zzz-absent", "a\\_p", "50%", "%e%e%"};
  const std::string column = std::vector<std::string>{"i", "d", "s"}[rng.Below(3)];
  switch (rng.Below(9)) {
    case 0:
    case 1:
      return Predicate::Cmp(column, RandomOp(rng), RandomLiteral(rng, column));
    case 2:
      return Predicate::Between(column, RandomLiteral(rng, column),
                                RandomLiteral(rng, column));
    case 3: {
      std::vector<Literal> set;
      for (uint64_t n = 1 + rng.Below(4); n > 0; --n) {
        set.push_back(RandomLiteral(rng, column));
      }
      if (column == "s") set.push_back(Literal::Str("zzz-absent"));
      return Predicate::In(column, std::move(set));
    }
    case 4:
      return rng.Chance(0.5) ? Predicate::IsNull(column)
                             : Predicate::IsNotNull(column);
    case 5:
    case 6: {
      // Mostly the string column; LIKE on a number never matches.
      std::string col = rng.Chance(0.9) ? "s" : column;
      const std::string& pattern = kPatterns[rng.Below(kPatterns.size())];
      return rng.Chance(0.5) ? Predicate::Like(col, pattern)
                             : Predicate::NotLike(col, pattern);
    }
    case 7:
      return Predicate::True();
    default:
      return Predicate::Cmp("s", RandomOp(rng), RandomLiteral(rng, "s"));
  }
}

PredicatePtr RandomPredicate(Rng& rng, int depth) {
  if (depth > 0 && rng.Chance(0.6)) {
    switch (rng.Below(3)) {
      case 0:
        return Predicate::Not(RandomPredicate(rng, depth - 1));
      default: {
        std::vector<PredicatePtr> kids;
        for (uint64_t n = 2 + rng.Below(2); n > 0; --n) {
          kids.push_back(RandomPredicate(rng, depth - 1));
        }
        return rng.Chance(0.5) ? Predicate::And(std::move(kids))
                               : Predicate::Or(std::move(kids));
      }
    }
  }
  return RandomLeaf(rng);
}

std::vector<uint32_t> RandomSubset(Rng& rng, size_t n, size_t m) {
  std::vector<uint32_t> rows;
  for (size_t r : rng.SampleWithoutReplacement(n, m)) {
    rows.push_back(static_cast<uint32_t>(r));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(FilterBlockTest, RandomTreesMatchRowAtATime) {
  Table t = MakeWideTable(2 * kBlock + 300, 11);
  Rng rng(2024);
  const size_t n = t.num_rows();
  for (int trial = 0; trial < 400; ++trial) {
    PredicatePtr p = RandomPredicate(rng, 3);
    const std::string what = "trial " + std::to_string(trial) + ": " +
                             p->ToString();
    // One compiled instance across calls: its per-code memos carry over.
    CompiledPredicate compiled(t, *p);
    for (size_t m : {size_t{0}, size_t{1}, kBlock - 1, kBlock}) {
      std::vector<uint32_t> rows = RandomSubset(rng, n, m);
      std::vector<uint32_t> sel(m);  // exactly n ids: ASan sees overruns
      sel.resize(compiled.Select(rows.data(), m, sel.data()));
      std::vector<uint32_t> expected = RowAtATime(t, *p, rows);
      ASSERT_EQ(sel, expected) << what << " over " << m << " rows";
      // In place: `out` may be `rows`.
      rows.resize(compiled.Select(rows.data(), m, rows.data()));
      ASSERT_EQ(rows, expected) << what << " in place over " << m << " rows";
    }
    // Several blocks, as the sampler selects its sample rows.
    for (size_t m : {kBlock + 1, n}) {
      std::vector<uint32_t> rows = RandomSubset(rng, n, m);
      std::vector<uint32_t> sel;
      size_t next_first = 0;
      compiled.SelectBlocks(
          rows.data(), m, [&](size_t first, const uint32_t* block, size_t k) {
            EXPECT_EQ(first, next_first) << what;
            next_first += kBlock;
            sel.insert(sel.end(), block, block + k);
          });
      ASSERT_EQ(sel, RowAtATime(t, *p, rows))
          << what << " over " << m << " rows";
    }
    std::vector<uint32_t> expected = RowAtATime(t, *p, AllRows(t));
    ASSERT_EQ(EvalSelection(t, *p), expected) << what;
    ASSERT_EQ(CountMatches(t, *p), expected.size()) << what;
  }
}

// ------------------------------------------- key distributions, bit for bit

struct Sample {
  std::vector<uint32_t> rows;
  double scale = 0.0;
};

// The drawn sample, read back through the snapshot encoding.
Sample SampleOf(const SamplingEstimator& est) {
  ByteWriter w;
  est.Save(w);
  ByteReader r(w.bytes());
  r.F64();  // rate
  r.U64();  // seed
  Sample s;
  s.scale = r.F64();
  for (uint32_t n = r.U32(); n > 0; --n) s.rows.push_back(r.U32());
  return s;
}

// The row-at-a-time loop the sampler ran before block scans: `step` is
// added once per matching row, in ascending row order.
KeyDistResult ReferenceKeyDists(const Table& t, const Predicate& filter,
                                 const std::vector<KeyDistRequest>& keys,
                                 const std::vector<uint32_t>& rows,
                                 double step) {
  KeyDistResult result;
  for (const KeyDistRequest& k : keys) {
    result.masses.emplace_back(k.binning->num_bins(), 0.0);
  }
  size_t hits = 0;
  for (uint32_t r : rows) {
    if (!EvalRow(t, filter, r)) continue;
    ++hits;
    for (size_t i = 0; i < keys.size(); ++i) {
      int64_t v = t.Col(keys[i].column).IntAt(r);
      if (v == kNullInt64) continue;
      result.masses[i][keys[i].binning->BinOf(v)] += step;
    }
  }
  result.filtered_rows = static_cast<double>(hits);
  return result;
}

void ExpectSameBits(const KeyDistResult& got, const KeyDistResult& want,
                    const std::string& what) {
  ASSERT_EQ(std::bit_cast<uint64_t>(got.filtered_rows),
            std::bit_cast<uint64_t>(want.filtered_rows))
      << what << ": filtered rows " << got.filtered_rows << " vs "
      << want.filtered_rows;
  ASSERT_EQ(got.masses.size(), want.masses.size()) << what;
  for (size_t i = 0; i < got.masses.size(); ++i) {
    ASSERT_EQ(got.masses[i].size(), want.masses[i].size()) << what;
    for (size_t b = 0; b < got.masses[i].size(); ++b) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.masses[i][b]),
                std::bit_cast<uint64_t>(want.masses[i][b]))
          << what << ": key " << i << " bin " << b;
    }
  }
}

void ExpectSamplerMatches(const Table& t, const SamplingEstimator& est,
                          const Predicate& filter,
                          const std::vector<KeyDistRequest>& keys,
                          const std::string& what) {
  Sample sample = SampleOf(est);
  KeyDistResult want =
      ReferenceKeyDists(t, filter, keys, sample.rows, sample.scale);
  want.filtered_rows = std::max(want.filtered_rows, 0.5) * sample.scale;
  ExpectSameBits(est.EstimateKeyDists(filter, keys), want, what);
  // With no key requested the sampler skips the sample-position mapping;
  // the row count keeps its bits.
  KeyDistResult rows_only = est.EstimateKeyDists(filter, {});
  ASSERT_EQ(std::bit_cast<uint64_t>(rows_only.filtered_rows),
            std::bit_cast<uint64_t>(want.filtered_rows))
      << what;
}

TEST(FilterBlockTest, KeyDistsBitEqualRowAtATimeLoops) {
  Table t = MakeWideTable(3 * kBlock + 77, 5);
  Binning by_width = BuildEqualWidth({&t.Col("k")}, 16);
  Binning by_depth = BuildEqualDepth({&t.Col("i")}, 8);
  std::vector<KeyDistRequest> keys = {{"k", &by_width}, {"i", &by_depth}};
  SamplingEstimator sampler(t, 0.37, 9);
  TrueScanEstimator truescan(t);
  ASSERT_GT(sampler.sample_size(), kBlock);
  std::vector<uint32_t> all = AllRows(t);

  Rng rng(77);
  for (int trial = 0; trial < 150; ++trial) {
    PredicatePtr p = trial == 0 ? Predicate::True() : RandomPredicate(rng, 3);
    const std::string what = "trial " + std::to_string(trial) + ": " +
                             p->ToString();
    ExpectSamplerMatches(t, sampler, *p, keys, "sampling " + what);
    ExpectSameBits(truescan.EstimateKeyDists(*p, keys),
                   ReferenceKeyDists(t, *p, keys, all, 1.0),
                   "truescan " + what);
  }
}

// A TRUE filter is answered from a memo of the unfiltered masses, keyed by
// (column, binning); Refresh after an insert draws a new sample over the
// same columns, and the memo must follow it.
TEST(FilterBlockTest, TrueFilterMemoFollowsRefresh) {
  Table t = MakeWideTable(2 * kBlock, 3);
  Binning binning = BuildEqualWidth({&t.Col("k")}, 12);
  std::vector<KeyDistRequest> keys = {{"k", &binning}, {"k", &binning}};
  SamplingEstimator sampler(t, 0.5, 4);
  PredicatePtr all = Predicate::True();
  ExpectSamplerMatches(t, sampler, *all, keys, "before refresh");
  ExpectSamplerMatches(t, sampler, *all, keys, "memo hit");
  Sample before = SampleOf(sampler);

  AppendWideRows(&t, kBlock, 8);
  sampler.Refresh(t);
  ASSERT_NE(SampleOf(sampler).rows, before.rows);
  ExpectSamplerMatches(t, sampler, *all, keys, "after refresh");
  ExpectSamplerMatches(t, sampler,
                       *Predicate::Cmp("i", CmpOp::kGe, Literal::Int(3)),
                       keys, "filtered after refresh");
}

}  // namespace
}  // namespace fj
