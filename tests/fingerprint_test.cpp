// Query::Fingerprint canonicality — the property the serving layer's cache
// correctness rests on — plus the struct hashers guarding it against
// collision-driven cache mixups, and SubplanFingerprinter's agreement with
// both the induced sub-query's fingerprint and the string-sort digest it
// replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "query/fingerprint.h"
#include "query/query.h"
#include "query/subplan.h"
#include "storage/database.h"
#include "util/hash.h"
#include "workload/imdb_job.h"
#include "workload/stats_ceb.h"

namespace fj {
namespace {

PredicatePtr AgeFilter() {
  return Predicate::Cmp("age", CmpOp::kGt, Literal::Int(30));
}

// Oracle: the digest Query::Fingerprint() computed before part digests.
// Canonical per-part strings, sorted so that construction order cannot
// change the digest, folded into two hash streams.
QueryFingerprint StringSortFingerprint(const Query& q) {
  std::vector<std::string> parts;
  parts.reserve(q.NumTables() + q.joins().size());
  for (const TableRef& t : q.tables()) {
    std::string part = "T\x1f" + t.alias + "\x1f" + t.table;
    PredicatePtr filter = q.FilterFor(t.alias);
    if (filter->kind() != Predicate::Kind::kTrue) {
      part += "\x1f" + filter->ToString();
    }
    parts.push_back(std::move(part));
  }
  for (const JoinCondition& j : q.joins()) {
    std::string l = j.left.ToString(), r = j.right.ToString();
    if (r < l) std::swap(l, r);
    parts.push_back("J\x1f" + l + "\x1f" + r);
  }
  std::sort(parts.begin(), parts.end());

  QueryFingerprint fp;
  fp.lo = Fnv1a64("fp", 0xcbf29ce484222325ULL);
  fp.hi = Fnv1a64("fp", 0x9ae16a3b2f90404fULL);
  for (const std::string& part : parts) {
    fp.lo = Fnv1a64(part, fp.lo) * 0x100000001b3ULL ^ 0x1e;
    fp.hi = HashCombine(fp.hi, Fnv1a64(part, 0x9ae16a3b2f90404fULL));
  }
  fp.lo = Mix64(fp.lo ^ parts.size());
  fp.hi = Mix64(fp.hi ^ Mix64(parts.size()));
  return fp;
}

// Over every connected sub-plan of every query: Of(mask) equals the induced
// sub-query's Fingerprint(), and old and new digests partition the
// sub-plans into the same equivalence classes (a bijection between the two
// digest sets). Returns the number of sub-plans checked.
size_t ExpectOracleAgreement(const std::vector<Query>& queries) {
  std::unordered_map<QueryFingerprint, QueryFingerprint, QueryFingerprintHash>
      old_to_new, new_to_old;
  size_t checked = 0;
  size_t mismatches = 0;
  for (const Query& q : queries) {
    SubplanFingerprinter keys(q);
    for (uint64_t mask : EnumerateConnectedSubsets(q, 1)) {
      Query sub = q.InducedSubquery(mask);
      QueryFingerprint fresh = keys.Of(mask);
      QueryFingerprint old = StringSortFingerprint(sub);
      auto [on, on_new] = old_to_new.emplace(old, fresh);
      auto [no, no_new] = new_to_old.emplace(fresh, old);
      if (fresh != sub.Fingerprint() || on->second != fresh ||
          no->second != old) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "mask " << mask << " of " << q.ToString();
        }
      }
      ++checked;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(old_to_new.size(), new_to_old.size());
  return checked;
}

TEST(FingerprintTest, InsensitiveToConstructionOrder) {
  Query q1;
  q1.AddTable("ta", "a").AddTable("tb", "b").AddTable("tc", "c");
  q1.AddJoin("a", "id", "b", "aid");
  q1.AddJoin("b", "id", "c", "bid");
  q1.SetFilter("a", AgeFilter());

  Query q2;
  q2.AddTable("tc", "c").AddTable("ta", "a").AddTable("tb", "b");
  q2.SetFilter("a", AgeFilter());
  q2.AddJoin("b", "id", "c", "bid");
  q2.AddJoin("a", "id", "b", "aid");

  EXPECT_EQ(q1.Fingerprint(), q2.Fingerprint());
}

TEST(FingerprintTest, InsensitiveToJoinOrientation) {
  Query q1;
  q1.AddTable("ta", "a").AddTable("tb", "b");
  q1.AddJoin("a", "id", "b", "aid");

  Query q2;
  q2.AddTable("ta", "a").AddTable("tb", "b");
  q2.AddJoin("b", "aid", "a", "id");

  EXPECT_EQ(q1.Fingerprint(), q2.Fingerprint());
}

TEST(FingerprintTest, TrueFilterDigestsLikeNoFilter) {
  Query q1;
  q1.AddTable("ta", "a").AddTable("tb", "b");
  q1.AddJoin("a", "id", "b", "aid");

  Query q2 = q1;
  q2.SetFilter("a", Predicate::True());

  EXPECT_EQ(q1.Fingerprint(), q2.Fingerprint());
}

TEST(FingerprintTest, DistinguishesContent) {
  Query base;
  base.AddTable("ta", "a").AddTable("tb", "b");
  base.AddJoin("a", "id", "b", "aid");

  Query filtered = base;
  filtered.SetFilter("a", AgeFilter());
  EXPECT_NE(base.Fingerprint(), filtered.Fingerprint());

  Query other_filter = base;
  other_filter.SetFilter("a", Predicate::Cmp("age", CmpOp::kGt, Literal::Int(31)));
  EXPECT_NE(filtered.Fingerprint(), other_filter.Fingerprint());

  Query other_alias = base;
  other_alias.SetFilter("b", AgeFilter());
  EXPECT_NE(filtered.Fingerprint(), other_alias.Fingerprint());

  Query extra_join = base;
  extra_join.AddJoin("a", "id2", "b", "aid2");
  EXPECT_NE(base.Fingerprint(), extra_join.Fingerprint());

  Query other_table;
  other_table.AddTable("tx", "a").AddTable("tb", "b");
  other_table.AddJoin("a", "id", "b", "aid");
  EXPECT_NE(base.Fingerprint(), other_table.Fingerprint());
}

// The cache-sharing property: the same logical sub-plan induced from two
// different parent queries must produce identical fingerprints.
TEST(FingerprintTest, InducedSubqueryRoundTripAcrossParents) {
  Query parent1;
  parent1.AddTable("tu", "u").AddTable("to", "o").AddTable("ti", "i");
  parent1.AddJoin("u", "id", "o", "uid");
  parent1.AddJoin("o", "iid", "i", "id");
  parent1.SetFilter("u", AgeFilter());

  // Different parent: different third table, different alias bit positions
  // and an extra filter, but the {u, o} sub-plan is logically the same.
  Query parent2b;
  parent2b.AddTable("tx", "x").AddTable("tu", "u").AddTable("to", "o");
  parent2b.AddJoin("o", "xid", "x", "id");
  parent2b.AddJoin("u", "id", "o", "uid");
  parent2b.SetFilter("u", AgeFilter());
  parent2b.SetFilter("x", Predicate::Cmp("k", CmpOp::kEq, Literal::Int(7)));

  uint64_t mask1 = 0b011;  // u, o in parent1's bit order
  uint64_t mask2 = 0b110;  // u, o in parent2b's bit order
  EXPECT_EQ(parent1.InducedSubquery(mask1).Fingerprint(),
            parent2b.InducedSubquery(mask2).Fingerprint());
}

TEST(FingerprintTest, SelfJoinAliasesAreDistinguished) {
  Query q;
  q.AddTable("person", "p1").AddTable("person", "p2");
  q.AddJoin("p1", "id", "p2", "parent_id");
  q.SetFilter("p1", AgeFilter());

  Query swapped;
  swapped.AddTable("person", "p1").AddTable("person", "p2");
  swapped.AddJoin("p1", "id", "p2", "parent_id");
  swapped.SetFilter("p2", AgeFilter());

  EXPECT_NE(q.Fingerprint(), swapped.Fingerprint());

  // Round-trip: the singleton sub-plans differ from each other (one carries
  // the filter), and induction matches direct construction.
  EXPECT_NE(q.InducedSubquery(0b01).Fingerprint(),
            q.InducedSubquery(0b10).Fingerprint());
  Query direct;
  direct.AddTable("person", "p1");
  direct.SetFilter("p1", AgeFilter());
  EXPECT_EQ(q.InducedSubquery(0b01).Fingerprint(), direct.Fingerprint());
}

TEST(FingerprintTest, CyclicTemplateSubplansRoundTrip) {
  auto triangle = [] {
    Query q;
    q.AddTable("ta", "a").AddTable("tb", "b").AddTable("tc", "c");
    q.AddJoin("a", "id", "b", "aid");
    q.AddJoin("b", "id", "c", "bid");
    q.AddJoin("a", "id2", "c", "aid2");
    return q;
  };
  Query q1 = triangle();
  Query q2 = triangle();
  ASSERT_TRUE(q1.IsCyclic());

  auto masks = EnumerateConnectedSubsets(q1, 1);
  ASSERT_EQ(masks.size(), 7u);  // 3 singles + 3 pairs + triangle
  std::unordered_set<QueryFingerprint, QueryFingerprintHash> seen;
  for (uint64_t mask : masks) {
    QueryFingerprint fp1 = q1.InducedSubquery(mask).Fingerprint();
    QueryFingerprint fp2 = q2.InducedSubquery(mask).Fingerprint();
    EXPECT_EQ(fp1, fp2);
    EXPECT_TRUE(seen.insert(fp1).second) << "fingerprint collision between "
                                            "distinct sub-plans";
  }
}

TEST(FingerprintTest, ManyDistinctSubplansNoCollision) {
  // Chain of 10 tables with per-alias filters: all 54 connected sub-plans
  // plus filter variants must fingerprint distinctly.
  Query q;
  for (int i = 0; i < 10; ++i) {
    q.AddTable("t" + std::to_string(i), "a" + std::to_string(i));
  }
  for (int i = 0; i + 1 < 10; ++i) {
    q.AddJoin("a" + std::to_string(i), "id", "a" + std::to_string(i + 1),
              "pid");
  }
  std::unordered_set<QueryFingerprint, QueryFingerprintHash> seen;
  size_t total = 0;
  for (int variant = 0; variant < 4; ++variant) {
    Query v = q;
    if (variant > 0) {
      v.SetFilter("a0", Predicate::Cmp("x", CmpOp::kGt, Literal::Int(variant)));
    }
    for (uint64_t mask : EnumerateConnectedSubsets(v, 1)) {
      seen.insert(v.InducedSubquery(mask).Fingerprint());
      ++total;
    }
  }
  // Sub-plans without a0 are shared between variants; everything else is
  // distinct. 4 variants x 55 sub-plans, 3 x 45 of them duplicates.
  EXPECT_EQ(seen.size(), total - 3 * 45);
}

TEST(FingerprintTest, OracleAgreesOnEveryImdbJobSubplan) {
  // The benchmark's query shape (64 queries of up to 16 aliases) at a
  // scale that generates in well under a second.
  ImdbJobOptions o;
  o.scale = 0.05;
  o.num_queries = 64;
  o.max_tables_per_query = 16;
  auto w = MakeImdbJob(o);
  EXPECT_EQ(ExpectOracleAgreement(w->queries), 44853u);
}

TEST(FingerprintTest, OracleAgreesOnEveryStatsCebSubplan) {
  StatsCebOptions o;
  o.scale = 0.04;
  o.num_queries = 20;
  o.num_templates = 10;
  auto w = MakeStatsCeb(o);
  EXPECT_EQ(ExpectOracleAgreement(w->queries), 272u);
}

// Under an XOR combine a repeated part cancels: {J1, J1} and {J2, J2} would
// both vanish and collide. The lane-wise sum keeps multiplicity.
TEST(FingerprintTest, DistinctDuplicatedJoinConditionsDoNotCollide) {
  auto pair_with = [](const std::string& col_a, const std::string& col_b,
                      int copies) {
    Query q;
    q.AddTable("ta", "a").AddTable("tb", "b");
    for (int i = 0; i < copies; ++i) q.AddJoin("a", col_a, "b", col_b);
    return q;
  };
  Query j1_twice = pair_with("id", "aid", 2);
  Query j2_twice = pair_with("id2", "aid2", 2);
  Query j1_once = pair_with("id", "aid", 1);
  EXPECT_NE(j1_twice.Fingerprint(), j2_twice.Fingerprint());
  EXPECT_NE(j1_twice.Fingerprint(), j1_once.Fingerprint());
  EXPECT_NE(StringSortFingerprint(j1_twice), StringSortFingerprint(j2_twice));

  // Two different conditions, each duplicated, against other pairings of
  // the same multiset sizes.
  Query both_twice = j1_twice;
  both_twice.AddJoin("a", "id2", "b", "aid2").AddJoin("b", "aid2", "a", "id2");
  Query j1_thrice_j2_once = pair_with("id", "aid", 3);
  j1_thrice_j2_once.AddJoin("a", "id2", "b", "aid2");
  EXPECT_NE(both_twice.Fingerprint(), j1_thrice_j2_once.Fingerprint());
  SubplanFingerprinter keys(both_twice);
  EXPECT_EQ(keys.Of(0b11), both_twice.Fingerprint());
  EXPECT_EQ(keys.Of(0b11), both_twice.InducedSubquery(0b11).Fingerprint());
}

// A condition with both endpoints on one alias belongs to every sub-plan
// holding that alias and to no other.
TEST(FingerprintTest, SameAliasConditionCountsOnlyWithItsAlias) {
  Query q;
  q.AddTable("ta", "a").AddTable("tb", "b");
  q.AddJoin("a", "id", "b", "aid");
  q.AddJoin("a", "x", "a", "y");
  SubplanFingerprinter keys(q);

  Query only_b;
  only_b.AddTable("tb", "b");
  EXPECT_EQ(keys.Of(0b10), only_b.Fingerprint());

  Query a_with_condition;
  a_with_condition.AddTable("ta", "a");
  a_with_condition.AddJoin("a", "y", "a", "x");
  Query bare_a;
  bare_a.AddTable("ta", "a");
  EXPECT_EQ(keys.Of(0b01), a_with_condition.Fingerprint());
  EXPECT_NE(keys.Of(0b01), bare_a.Fingerprint());

  for (uint64_t mask : {0b01u, 0b10u, 0b11u}) {
    EXPECT_EQ(keys.Of(mask), q.InducedSubquery(mask).Fingerprint()) << mask;
  }
}

TEST(FingerprintTest, BitsPastTheAliasesAreIgnored) {
  Query q;
  q.AddTable("ta", "a").AddTable("tb", "b").AddTable("tc", "c");
  q.AddJoin("a", "id", "b", "aid").AddJoin("b", "id", "c", "bid");
  q.SetFilter("c", AgeFilter());
  SubplanFingerprinter keys(q);
  for (uint64_t mask = 0; mask < 8; ++mask) {
    for (uint64_t high : {uint64_t{1} << 3, uint64_t{1} << 63,
                          ~uint64_t{0} << 3}) {
      EXPECT_EQ(keys.Of(mask | high), keys.Of(mask));
      EXPECT_EQ(keys.Of(mask | high),
                q.InducedSubquery(mask | high).Fingerprint());
    }
  }
  EXPECT_EQ(keys.Of(~uint64_t{0}), q.Fingerprint());

  // At Query::kMaxTables every bit names an alias.
  Query wide;
  for (size_t i = 0; i < Query::kMaxTables; ++i) {
    wide.AddTable("t" + std::to_string(i % 7), "a" + std::to_string(i));
    if (i > 0) {
      wide.AddJoin("a" + std::to_string(i - 1), "id", "a" + std::to_string(i),
                   "pid");
    }
  }
  SubplanFingerprinter wide_keys(wide);
  EXPECT_EQ(wide_keys.Of(~uint64_t{0}), wide.Fingerprint());
  EXPECT_EQ(wide_keys.Of(~uint64_t{0}),
            wide.InducedSubquery(~uint64_t{0}).Fingerprint());
  uint64_t top = uint64_t{3} << 62;
  EXPECT_EQ(wide_keys.Of(top), wide.InducedSubquery(top).Fingerprint());
  EXPECT_NE(wide_keys.Of(top), wide_keys.Of(top >> 1));
}

TEST(FingerprintTest, EmptyMaskIsTheEmptyQuery) {
  Query q;
  q.AddTable("ta", "a").AddTable("tb", "b");
  q.AddJoin("a", "id", "b", "aid");
  q.SetFilter("a", AgeFilter());
  EXPECT_EQ(SubplanFingerprinter(q).Of(0), Query().Fingerprint());
  EXPECT_EQ(SubplanFingerprinter(q).Of(0), q.InducedSubquery(0).Fingerprint());
  EXPECT_EQ(SubplanFingerprinter(Query()).Of(~uint64_t{0}),
            Query().Fingerprint());
  EXPECT_NE(Query().Fingerprint(), q.Fingerprint());
}

TEST(HashTest, AliasColumnHashIsOrderSensitive) {
  AliasColumnHash h;
  EXPECT_NE(h({"a", "b"}), h({"b", "a"}));
  EXPECT_NE(h({"mc", "movie_id"}), h({"movie_id", "mc"}));
  // Boundary shifts between the two strings must not collide.
  EXPECT_NE(h({"ab", "c"}), h({"a", "bc"}));
}

TEST(HashTest, ColumnRefHashIsOrderSensitive) {
  ColumnRefHash h;
  EXPECT_NE(h({"t", "u"}), h({"u", "t"}));
  EXPECT_NE(h({"posts", "Id"}), h({"Id", "posts"}));
  EXPECT_NE(h({"ab", "c"}), h({"a", "bc"}));
}

TEST(HashTest, NoCollisionsAcrossSchemaLikeNames) {
  // Sweep a realistic namespace of alias/column pairs; any collision here would
  // surface as a wrong bucket merge in KeyGroups or the fingerprint cache.
  std::vector<std::string> names;
  for (char c = 'a'; c <= 'z'; ++c) {
    names.push_back(std::string(1, c));
    names.push_back(std::string(1, c) + "_id");
    names.push_back("t" + std::string(1, c));
  }
  AliasColumnHash ach;
  ColumnRefHash crh;
  std::unordered_set<size_t> alias_hashes;
  std::unordered_set<size_t> ref_hashes;
  size_t pairs = 0;
  for (const auto& x : names) {
    for (const auto& y : names) {
      alias_hashes.insert(ach({x, y}));
      ref_hashes.insert(crh({x, y}));
      ++pairs;
    }
  }
  EXPECT_EQ(alias_hashes.size(), pairs);
  EXPECT_EQ(ref_hashes.size(), pairs);
}

}  // namespace
}  // namespace fj
