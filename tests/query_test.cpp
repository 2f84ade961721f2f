#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "query/filter_eval.h"
#include "query/query.h"
#include "query/subplan.h"

namespace fj {
namespace {

Table MakeTable() {
  Table t("t");
  Column* x = t.AddColumn("x", ColumnType::kInt64);
  Column* s = t.AddColumn("s", ColumnType::kString);
  Column* d = t.AddColumn("d", ColumnType::kDouble);
  // rows: (1,"apple",0.5) (2,"banana",1.5) (3,"apricot",2.5) (null,"plum",3.5)
  x->AppendInt(1);
  x->AppendInt(2);
  x->AppendInt(3);
  x->AppendNull();
  s->AppendString("apple");
  s->AppendString("banana");
  s->AppendString("apricot");
  s->AppendString("plum");
  d->AppendDouble(0.5);
  d->AppendDouble(1.5);
  d->AppendDouble(2.5);
  d->AppendDouble(3.5);
  return t;
}

TEST(FilterEvalTest, IntComparisons) {
  Table t = MakeTable();
  auto p = Predicate::Cmp("x", CmpOp::kGe, Literal::Int(2));
  EXPECT_EQ(CountMatches(t, *p), 2u);
  auto eq = Predicate::Cmp("x", CmpOp::kEq, Literal::Int(1));
  EXPECT_EQ(CountMatches(t, *eq), 1u);
  auto ne = Predicate::Cmp("x", CmpOp::kNe, Literal::Int(1));
  EXPECT_EQ(CountMatches(t, *ne), 2u);  // null row never matches
}

TEST(FilterEvalTest, DoubleComparisons) {
  Table t = MakeTable();
  auto p = Predicate::Cmp("d", CmpOp::kLt, Literal::Double(2.0));
  EXPECT_EQ(CountMatches(t, *p), 2u);
}

// Every double has a fixed-point code: NaN and values beyond ±9.2e12 get
// the null code, in range the code is v * 1e6 truncated. A filter on a
// double column still compares the exact double.
TEST(FilterEvalTest, EveryDoubleLiteralHasACode) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {std::nan(""), inf, -inf, 1e13, -1e13}) {
    EXPECT_EQ(Column::DoubleToCode(v), kNullInt64) << v;
    EXPECT_EQ(Literal::Double(v).i, kNullInt64) << v;
  }
  EXPECT_EQ(Column::DoubleToCode(1.5), 1500000);
  EXPECT_EQ(Literal::Double(1.5).i, 1500000);

  Table t = MakeTable();
  EXPECT_EQ(CountMatches(t, *Predicate::Cmp("d", CmpOp::kLt,
                                            Literal::Double(1e13))),
            4u);
  EXPECT_EQ(CountMatches(t, *Predicate::Cmp("d", CmpOp::kGt,
                                            Literal::Double(std::nan("")))),
            0u);
}

TEST(FilterEvalTest, StringEqualityAndLike) {
  Table t = MakeTable();
  auto eq = Predicate::Cmp("s", CmpOp::kEq, Literal::Str("banana"));
  EXPECT_EQ(CountMatches(t, *eq), 1u);
  auto unknown = Predicate::Cmp("s", CmpOp::kEq, Literal::Str("kiwi"));
  EXPECT_EQ(CountMatches(t, *unknown), 0u);
  auto like = Predicate::Like("s", "ap%");
  EXPECT_EQ(CountMatches(t, *like), 2u);
  auto notlike = Predicate::NotLike("s", "ap%");
  EXPECT_EQ(CountMatches(t, *notlike), 2u);
}

TEST(FilterEvalTest, BetweenInNull) {
  Table t = MakeTable();
  auto between = Predicate::Between("x", Literal::Int(2), Literal::Int(3));
  EXPECT_EQ(CountMatches(t, *between), 2u);
  auto in = Predicate::In("x", {Literal::Int(1), Literal::Int(3), Literal::Int(9)});
  EXPECT_EQ(CountMatches(t, *in), 2u);
  auto isnull = Predicate::IsNull("x");
  EXPECT_EQ(CountMatches(t, *isnull), 1u);
  auto notnull = Predicate::IsNotNull("x");
  EXPECT_EQ(CountMatches(t, *notnull), 3u);
}

TEST(FilterEvalTest, BooleanCombinators) {
  Table t = MakeTable();
  auto p = Predicate::And({Predicate::Cmp("x", CmpOp::kGe, Literal::Int(2)),
                           Predicate::Like("s", "%an%")});
  EXPECT_EQ(CountMatches(t, *p), 1u);  // banana only
  auto q = Predicate::Or({Predicate::Cmp("x", CmpOp::kEq, Literal::Int(1)),
                          Predicate::Cmp("x", CmpOp::kEq, Literal::Int(3))});
  EXPECT_EQ(CountMatches(t, *q), 2u);
  auto n = Predicate::Not(Predicate::Cmp("x", CmpOp::kGe, Literal::Int(2)));
  EXPECT_EQ(CountMatches(t, *n), 2u);  // rows 1 and the null row
}

TEST(PredicateTest, IsConjunctiveAndStringPattern) {
  auto conj = Predicate::And({Predicate::Cmp("a", CmpOp::kEq, Literal::Int(1)),
                              Predicate::Between("b", Literal::Int(0), Literal::Int(5))});
  EXPECT_TRUE(conj->IsConjunctive());
  EXPECT_FALSE(conj->HasStringPattern());
  auto disj = Predicate::Or({conj, Predicate::Like("s", "%x%")});
  EXPECT_FALSE(disj->IsConjunctive());
  EXPECT_TRUE(disj->HasStringPattern());
}

TEST(PredicateTest, ReferencedColumns) {
  auto p = Predicate::And({Predicate::Cmp("a", CmpOp::kEq, Literal::Int(1)),
                           Predicate::Cmp("b", CmpOp::kGt, Literal::Int(2)),
                           Predicate::Cmp("a", CmpOp::kLt, Literal::Int(9))});
  auto cols = p->ReferencedColumns();
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "a");
  EXPECT_EQ(cols[1], "b");
}

Query ChainQuery() {
  // a - b - c chain.
  Query q;
  q.AddTable("ta", "a").AddTable("tb", "b").AddTable("tc", "c");
  q.AddJoin("a", "id", "b", "aid");
  q.AddJoin("b", "id", "c", "bid");
  return q;
}

TEST(QueryTest, KeyGroupsChain) {
  Query q = ChainQuery();
  auto groups = q.KeyGroups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members.size(), 2u);
  EXPECT_EQ(groups[1].members.size(), 2u);
}

TEST(QueryTest, KeyGroupsStarMergesTransitively) {
  Query q;
  q.AddTable("ta", "a").AddTable("tb", "b").AddTable("tc", "c");
  q.AddJoin("a", "id", "b", "aid");
  q.AddJoin("b", "aid", "c", "aid");
  auto groups = q.KeyGroups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 3u);
}

TEST(QueryTest, ConnectivityAndCycles) {
  Query chain = ChainQuery();
  EXPECT_TRUE(chain.IsConnected());
  EXPECT_FALSE(chain.IsCyclic());

  Query cyclic = ChainQuery();
  cyclic.AddJoin("a", "id2", "c", "aid2");
  EXPECT_TRUE(cyclic.IsCyclic());

  Query disconnected;
  disconnected.AddTable("ta", "a").AddTable("tb", "b");
  EXPECT_FALSE(disconnected.IsConnected());
}

TEST(QueryTest, SelfJoinDetection) {
  Query q;
  q.AddTable("t", "t1").AddTable("t", "t2");
  q.AddJoin("t1", "id", "t2", "pid");
  EXPECT_TRUE(q.HasSelfJoin());
  EXPECT_TRUE(q.IsConnected());
  EXPECT_FALSE(ChainQuery().HasSelfJoin());
}

TEST(QueryTest, InducedSubquery) {
  Query q = ChainQuery();
  q.SetFilter("a", Predicate::Cmp("x", CmpOp::kGt, Literal::Int(0)));
  Query sub = q.InducedSubquery(0b011);  // a, b
  EXPECT_EQ(sub.NumTables(), 2u);
  EXPECT_EQ(sub.joins().size(), 1u);
  EXPECT_EQ(sub.FilterFor("a")->kind(), Predicate::Kind::kCompare);
  EXPECT_EQ(sub.FilterFor("b")->kind(), Predicate::Kind::kTrue);
}

TEST(SubplanTest, ChainSubplans) {
  // Chain a-b-c: connected 2+-subsets are {ab},{bc},{abc} (not {ac}).
  Query q = ChainQuery();
  auto masks = EnumerateConnectedSubsets(q, 2);
  ASSERT_EQ(masks.size(), 3u);
  EXPECT_EQ(masks[0], 0b011u);
  EXPECT_EQ(masks[1], 0b110u);
  EXPECT_EQ(masks[2], 0b111u);
}

TEST(SubplanTest, CliqueSubplans) {
  // Triangle: all subsets of size >= 2 are connected: 3 pairs + 1 triple.
  Query q = ChainQuery();
  q.AddJoin("a", "id2", "c", "aid2");
  auto masks = EnumerateConnectedSubsets(q, 2);
  EXPECT_EQ(masks.size(), 4u);
}

TEST(SubplanTest, IncludesSingletonsWhenAsked) {
  Query q = ChainQuery();
  auto masks = EnumerateConnectedSubsets(q, 1);
  EXPECT_EQ(masks.size(), 6u);  // 3 singles + 2 pairs + 1 triple
}

// Adjacency bitmasks of an undirected graph over `n` aliases.
std::vector<uint64_t> Adjacency(size_t n,
                                std::vector<std::pair<size_t, size_t>> edges) {
  std::vector<uint64_t> adj(n, 0);
  for (auto [a, b] : edges) {
    adj[a] |= uint64_t{1} << b;
    adj[b] |= uint64_t{1} << a;
  }
  return adj;
}

TEST(SubplanTest, GreedyJoinOrderPicksSmallestConnectedLeaf) {
  // Chain 0-1-2-3: the smallest leaf (3) starts, and each step takes the
  // smallest leaf adjacent to the joined set, not the smallest overall.
  auto adj = Adjacency(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(GreedyJoinOrder({0.5, 1.0, 3.0, 0.25}, adj),
            (std::vector<size_t>{3, 2, 1, 0}));
  EXPECT_EQ(GreedyJoinOrder({7.0}, {0}), (std::vector<size_t>{0}));
  EXPECT_TRUE(GreedyJoinOrder({}, {}).empty());
}

TEST(SubplanTest, GreedyJoinOrderTiesGoToTheLowerIndex) {
  // Clique of four: leaves 1, 2 and 3 tie for the start and for each step.
  auto adj = Adjacency(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(GreedyJoinOrder({2.0, 1.0, 1.0, 1.0}, adj),
            (std::vector<size_t>{1, 2, 3, 0}));
}

TEST(SubplanTest, GreedyJoinOrderWithEqualKeysJoinsLowestConnectedAlias) {
  // Equal keys (UBlock's order): start at alias 0, then the lowest-index
  // alias adjacent to the joined set. Edges 0-2, 2-1, 1-3, 0-4.
  auto adj = Adjacency(5, {{0, 2}, {2, 1}, {1, 3}, {0, 4}});
  EXPECT_EQ(GreedyJoinOrder(std::vector<double>(5, 0.0), adj),
            (std::vector<size_t>{0, 2, 1, 3, 4}));
}

TEST(SubplanTest, GreedyJoinOrderRejectsDisconnectedGraphs) {
  auto adj = Adjacency(4, {{0, 1}, {2, 3}});
  try {
    GreedyJoinOrder({1.0, 2.0, 3.0, 4.0}, adj);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("join"), std::string::npos);
  }
}

TEST(QueryTest, RejectsMoreThan64Aliases) {
  // Alias bitmasks are uint64_t; a 65th table occurrence would silently
  // overflow every mask-based code path, so AddTable must refuse it.
  Query q;
  for (size_t i = 0; i < Query::kMaxTables; ++i) {
    q.AddTable("t" + std::to_string(i));
  }
  EXPECT_EQ(q.NumTables(), 64u);
  EXPECT_THROW(q.AddTable("t64"), std::invalid_argument);
  EXPECT_EQ(q.NumTables(), 64u);
}

TEST(SubplanTest, WideQueriesReturnNoSubplansInsteadOfGarbage) {
  // Past the exhaustive-enumeration cutoff (30 aliases) the enumerator
  // declines rather than looping for hours or overflowing.
  Query q;
  for (int i = 0; i < 40; ++i) q.AddTable("t" + std::to_string(i));
  for (int i = 0; i + 1 < 40; ++i) {
    q.AddJoin("t" + std::to_string(i), "id", "t" + std::to_string(i + 1),
              "pid");
  }
  EXPECT_TRUE(EnumerateConnectedSubsets(q, 2).empty());
}

TEST(QueryTest, BaseTablesDeduplicatesAndRespectsMask) {
  Query q = ChainQuery();
  auto all = q.BaseTables();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "ta");
  EXPECT_EQ(all[1], "tb");
  EXPECT_EQ(all[2], "tc");
  auto prefix = q.BaseTables(0b011);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[0], "ta");
  EXPECT_EQ(prefix[1], "tb");

  // Self join: the shared base table appears once.
  Query self;
  self.AddTable("ta", "a1").AddTable("ta", "a2");
  self.AddJoin("a1", "id", "a2", "id");
  EXPECT_EQ(self.BaseTables().size(), 1u);
}

TEST(QueryTest, ToStringContainsPieces) {
  Query q = ChainQuery();
  q.SetFilter("a", Predicate::Cmp("x", CmpOp::kGt, Literal::Int(0)));
  std::string s = q.ToString();
  EXPECT_NE(s.find("ta"), std::string::npos);
  EXPECT_NE(s.find("a.id = b.aid"), std::string::npos);
  EXPECT_NE(s.find("x > 0"), std::string::npos);
}

}  // namespace
}  // namespace fj
