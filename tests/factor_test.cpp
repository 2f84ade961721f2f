#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <vector>

#include "factorjoin/arena.h"
#include "factorjoin/factor.h"

namespace fj {
namespace {

GroupSpan Span(FactorArena* arena, std::vector<double> mass,
               std::vector<double> mfv, int gid = 0) {
  return MakeGroupSpan(gid, mass, mfv, arena);
}

// Figure 5 worked example: bin1 of A.id has total 16 and MFV 8; bin1 of B.Aid
// has total 24 and MFV 6. The paper derives the bound
// min(16/8, 24/6) * 8 * 6 = 96 for the true per-bin join size 83.
TEST(FactorTest, Figure5Bound) {
  FactorArena arena;
  GroupSpan a = Span(&arena, {16.0}, {8.0});
  GroupSpan b = Span(&arena, {24.0}, {6.0});
  EXPECT_DOUBLE_EQ(GroupJoinBound(a, b), 96.0);
  EXPECT_GE(GroupJoinBound(a, b), 83.0);
}

TEST(FactorTest, BoundIsSymmetric) {
  FactorArena arena;
  GroupSpan a = Span(&arena, {10.0, 5.0}, {2.0, 5.0});
  GroupSpan b = Span(&arena, {7.0, 9.0}, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(GroupJoinBound(a, b), GroupJoinBound(b, a));
}

TEST(FactorTest, ExactWhenZeroVariance) {
  // Every value in the bin appears exactly MFV times on both sides: with
  // total = ndv * mfv the bound equals the exact join size
  // ndv * mfvA * mfvB when ndv matches.
  // A: 4 values x 3 each = 12; B: same 4 values x 2 each = 8.
  FactorArena arena;
  GroupSpan a = Span(&arena, {12.0}, {3.0});
  GroupSpan b = Span(&arena, {8.0}, {2.0});
  // Exact join: 4 values * 3 * 2 = 24. Bound: min(12*2, 8*3) = 24.
  EXPECT_DOUBLE_EQ(GroupJoinBound(a, b), 24.0);
}

TEST(FactorTest, EmptyBinContributesNothing) {
  FactorArena arena;
  GroupSpan a = Span(&arena, {0.0, 10.0}, {1.0, 2.0});
  GroupSpan b = Span(&arena, {5.0, 10.0}, {1.0, 2.0});
  // Bin 0: left mass 0 -> no contribution. Bin 1: min(10*2, 10*2) = 20.
  EXPECT_DOUBLE_EQ(GroupJoinBound(a, b), 20.0);
}

TEST(FactorTest, BoundNeverBelowDisjointExact) {
  // Exact per-bin join with per-value counts c_A(v) * c_B(v) is always
  // <= min(total_A * mfv_B, total_B * mfv_A); spot check several shapes.
  struct Shape {
    std::vector<double> a_counts, b_counts;
  };
  std::vector<Shape> shapes = {
      {{8, 4, 3}, {6, 5, 5}},
      {{1, 1, 1, 1}, {10, 1, 1, 1}},
      {{100}, {1}},
      {{2, 2, 2}, {2, 2, 2}},
  };
  for (const auto& s : shapes) {
    double exact = 0.0, total_a = 0.0, total_b = 0.0, mfv_a = 0.0, mfv_b = 0.0;
    for (size_t i = 0; i < s.a_counts.size(); ++i) {
      exact += s.a_counts[i] * s.b_counts[i];
      total_a += s.a_counts[i];
      total_b += s.b_counts[i];
      mfv_a = std::max(mfv_a, s.a_counts[i]);
      mfv_b = std::max(mfv_b, s.b_counts[i]);
    }
    FactorArena arena;
    GroupSpan a = Span(&arena, {total_a}, {mfv_a});
    GroupSpan b = Span(&arena, {total_b}, {mfv_b});
    EXPECT_GE(GroupJoinBound(a, b), exact);
  }
}

struct GroupInit {
  std::vector<double> mass;
  std::vector<double> mfv;
};

BoundFactor MakeFactor(uint64_t mask, double card,
                       std::map<int, GroupInit> groups, FactorArena* arena) {
  BoundFactor f;
  f.alias_mask = mask;
  f.card = card;
  for (const auto& [gid, init] : groups) {
    f.groups.push_back(MakeGroupSpan(gid, init.mass, init.mfv, arena));
  }
  return f;
}

// Group alias masks under which no key group ever closes: every alias
// outside a factor still joins on every group.
const std::vector<uint64_t> kOpen(8, ~uint64_t{0});

std::vector<double> MassOf(const BoundFactor& f, int gid) {
  const GroupSpan* g = f.FindGroup(gid);
  EXPECT_NE(g, nullptr);
  return std::vector<double>(g->mass, g->mass + g->bins);
}

std::vector<double> MfvOf(const BoundFactor& f, int gid) {
  const GroupSpan* g = f.FindGroup(gid);
  EXPECT_NE(g, nullptr);
  return std::vector<double>(g->mfv, g->mfv + g->bins);
}

TEST(FactorJoinStepTest, JoinPicksTightestGroup) {
  FactorArena arena;
  // Two connecting groups; group 1 gives a smaller bound.
  BoundFactor left = MakeFactor(0b01, 20.0,
                                {{0, {{20.0}, {4.0}}}, {1, {{20.0}, {1.0}}}},
                                &arena);
  BoundFactor right = MakeFactor(0b10, 30.0,
                                 {{0, {{30.0}, {5.0}}}, {1, {{30.0}, {1.0}}}},
                                 &arena);
  // Group 0 bound: min(20*5, 30*4) = 100. Group 1: min(20*1, 30*1) = 20.
  BoundFactor joined = JoinBoundFactors(left, right, {0, 1}, kOpen, &arena);
  EXPECT_DOUBLE_EQ(joined.card, 20.0);
  EXPECT_EQ(joined.alias_mask, 0b11u);
}

TEST(FactorJoinStepTest, CrossProductClamp) {
  FactorArena arena;
  BoundFactor left = MakeFactor(0b01, 3.0, {{0, {{3.0}, {100.0}}}}, &arena);
  BoundFactor right = MakeFactor(0b10, 4.0, {{0, {{4.0}, {100.0}}}}, &arena);
  // Group bound min(3*100, 4*100) = 300, but |A x B| = 12 caps it.
  BoundFactor joined = JoinBoundFactors(left, right, {0}, kOpen, &arena);
  EXPECT_DOUBLE_EQ(joined.card, 12.0);
}

TEST(FactorJoinStepTest, JoinedMassSumsToCard) {
  FactorArena arena;
  BoundFactor left =
      MakeFactor(0b01, 16.0, {{0, {{10.0, 6.0}, {4.0, 2.0}}}}, &arena);
  BoundFactor right =
      MakeFactor(0b10, 24.0, {{0, {{12.0, 12.0}, {6.0, 3.0}}}}, &arena);
  BoundFactor joined = JoinBoundFactors(left, right, {0}, kOpen, &arena);
  double sum = 0.0;
  for (double m : MassOf(joined, 0)) sum += m;
  EXPECT_NEAR(sum, joined.card, 1e-9);
}

TEST(FactorJoinStepTest, MfvMultipliesOnJoinedGroup) {
  FactorArena arena;
  BoundFactor left = MakeFactor(0b01, 16.0, {{0, {{16.0}, {8.0}}}}, &arena);
  BoundFactor right = MakeFactor(0b10, 24.0, {{0, {{24.0}, {6.0}}}}, &arena);
  BoundFactor joined = JoinBoundFactors(left, right, {0}, kOpen, &arena);
  EXPECT_DOUBLE_EQ(MfvOf(joined, 0)[0], 48.0);
  EXPECT_DOUBLE_EQ(joined.card, 96.0);  // Figure 5 again, through the join
}

TEST(FactorJoinStepTest, CarriedGroupRescaledAndMfvPropagated) {
  FactorArena arena;
  // Left has a second group (id 7) not involved in the join; its mass must be
  // rescaled to the new cardinality and its MFV multiplied by the right
  // side's max duplication.
  BoundFactor left = MakeFactor(0b01, 10.0,
                                {{0, {{10.0}, {2.0}}},
                                 {7, {{4.0, 6.0}, {3.0, 2.0}}}},
                                &arena);
  BoundFactor right = MakeFactor(0b10, 5.0, {{0, {{5.0}, {5.0}}}}, &arena);
  BoundFactor joined = JoinBoundFactors(left, right, {0}, kOpen, &arena);
  // card = min(10*5, 5*2) = 10.
  EXPECT_DOUBLE_EQ(joined.card, 10.0);
  std::vector<double> mass = MassOf(joined, 7);
  std::vector<double> mfv = MfvOf(joined, 7);
  EXPECT_NEAR(mass[0] + mass[1], 10.0, 1e-9);
  // Original ratio 4:6 preserved.
  EXPECT_NEAR(mass[0] / mass[1], 4.0 / 6.0, 1e-9);
  // MFV multiplied by right's max MFV (5), clamped by the result size (10):
  // 3*5 = 15 -> 10, 2*5 = 10 -> 10.
  EXPECT_DOUBLE_EQ(mfv[0], 10.0);
  EXPECT_DOUBLE_EQ(mfv[1], 10.0);
}

TEST(FactorJoinStepTest, ThreeWayStarMatchesSequentialBound) {
  FactorArena arena;
  // Star join A.id = B.aid = C.aid, one bin (appendix Case 2 shape).
  BoundFactor a = MakeFactor(0b001, 16.0, {{0, {{16.0}, {8.0}}}}, &arena);
  BoundFactor b = MakeFactor(0b010, 24.0, {{0, {{24.0}, {6.0}}}}, &arena);
  BoundFactor c = MakeFactor(0b100, 10.0, {{0, {{10.0}, {2.0}}}}, &arena);
  BoundFactor ab = JoinBoundFactors(a, b, {0}, kOpen, &arena);
  BoundFactor abc = JoinBoundFactors(ab, c, {0}, kOpen, &arena);
  // ab: card 96, mfv 48. abc: min(96*2, 10*48) = 192.
  EXPECT_DOUBLE_EQ(abc.card, 192.0);
  EXPECT_EQ(abc.alias_mask, 0b111u);
}

TEST(FactorJoinStepTest, ThrowsWithoutConnectingGroup) {
  FactorArena arena;
  BoundFactor a = MakeFactor(0b01, 5.0, {{0, {{5.0}, {1.0}}}}, &arena);
  BoundFactor b = MakeFactor(0b10, 5.0, {{1, {{5.0}, {1.0}}}}, &arena);
  EXPECT_THROW(JoinBoundFactors(a, b, {}, kOpen, &arena),
               std::invalid_argument);
}

TEST(FactorJoinStepTest, GroupIndexStaysSortedAfterJoin) {
  FactorArena arena;
  BoundFactor left = MakeFactor(0b01, 10.0,
                                {{1, {{10.0}, {2.0}}}, {5, {{10.0}, {1.0}}}},
                                &arena);
  BoundFactor right = MakeFactor(0b10, 8.0,
                                 {{1, {{8.0}, {2.0}}}, {3, {{8.0}, {4.0}}}},
                                 &arena);
  BoundFactor joined = JoinBoundFactors(left, right, {1}, kOpen, &arena);
  ASSERT_EQ(joined.groups.size(), 3u);
  EXPECT_EQ(joined.groups[0].gid, 1);
  EXPECT_EQ(joined.groups[1].gid, 3);
  EXPECT_EQ(joined.groups[2].gid, 5);
}

TEST(FactorJoinStepTest, ClosedGroupIsNotEmitted) {
  FactorArena arena;
  // Group 0 is joined on by aliases 0 and 1 only; group 1 also by alias 2.
  const std::vector<uint64_t> group_masks = {0b011, 0b101};
  BoundFactor left = MakeFactor(0b001, 10.0,
                                {{0, {{7.0, 3.0}, {2.0, 1.0}}},
                                 {1, {{6.0, 4.0}, {3.0, 2.0}}}},
                                &arena);
  BoundFactor right =
      MakeFactor(0b010, 8.0, {{0, {{5.0, 3.0}, {2.0, 3.0}}}}, &arena);
  BoundFactor closed = JoinBoundFactors(left, right, {0}, group_masks, &arena);
  BoundFactor open = JoinBoundFactors(left, right, {0}, kOpen, &arena);
  ASSERT_EQ(closed.groups.size(), 1u);
  EXPECT_EQ(closed.groups[0].gid, 1);
  EXPECT_EQ(open.groups.size(), 2u);
  EXPECT_EQ(closed.card, open.card);
  EXPECT_EQ(MassOf(closed, 1), MassOf(open, 1));
  EXPECT_EQ(MfvOf(closed, 1), MfvOf(open, 1));

  // Alias 2 joins on group 1 only: the eliminated group is never read.
  BoundFactor c =
      MakeFactor(0b100, 9.0, {{1, {{4.0, 5.0}, {2.0, 2.0}}}}, &arena);
  BoundFactor closed_abc = JoinBoundFactors(closed, c, {1}, group_masks,
                                            &arena);
  BoundFactor open_abc = JoinBoundFactors(open, c, {1}, kOpen, &arena);
  EXPECT_TRUE(closed_abc.groups.empty());
  EXPECT_EQ(closed_abc.card, open_abc.card);
}

TEST(FactorJoinStepTest, CyclicJoinPicksTheGroupJoinBoundWinner) {
  FactorArena arena;
  // Two connecting groups (a cyclic template): per-bin values chosen so
  // the bounds are not round numbers and group 1 is the tighter one.
  BoundFactor left = MakeFactor(0b01, 1e6,
                                {{0, {{20.3, 11.7, 9.1}, {4.0, 2.0, 3.0}}},
                                 {1, {{13.9, 21.1, 6.3}, {1.5, 3.0, 2.0}}}},
                                &arena);
  BoundFactor right = MakeFactor(0b10, 1e6,
                                 {{0, {{17.7, 8.2, 4.4}, {5.0, 2.0, 7.0}}},
                                  {1, {{9.9, 3.1, 12.7}, {1.0, 2.5, 1.5}}}},
                                 &arena);
  double bound0 = GroupJoinBound(*left.FindGroup(0), *right.FindGroup(0));
  double bound1 = GroupJoinBound(*left.FindGroup(1), *right.FindGroup(1));
  ASSERT_LT(bound1, bound0);
  BoundFactor joined = JoinBoundFactors(left, right, {0, 1}, kOpen, &arena);
  EXPECT_EQ(std::bit_cast<uint64_t>(joined.card),
            std::bit_cast<uint64_t>(bound1));
  // g* = group 1: its mass is its per-bin terms (unscaled, card == bound),
  // summing to the bound in bin order, and its MFVs multiply.
  std::vector<double> star_mass = MassOf(joined, 1);
  double sum = 0.0;
  for (double m : star_mass) sum += m;
  EXPECT_EQ(std::bit_cast<uint64_t>(sum), std::bit_cast<uint64_t>(bound1));
  EXPECT_EQ(MfvOf(joined, 1), (std::vector<double>{1.5, 7.5, 3.0}));
  // Group 0 is the other connecting group: both sides rescaled, MFVs
  // propagated by the other side's g* maximum (2.5 and 3.0), then min'ed.
  std::vector<double> mfv0 = MfvOf(joined, 0);
  EXPECT_EQ(mfv0, (std::vector<double>{10.0, 5.0, 7.5}));
}

// The join arena holds only the groups the joined factor keeps: the terms
// of the losing and of a closing connecting group, and the right view of a
// min-merged carried group, are read once and never reach it.
TEST(FactorJoinStepTest, ArenaHoldsOnlyTheKeptGroups) {
  FactorArena inputs;
  // Group 0 closes at this join and is the tighter bound (6 vs 34); group 1
  // is carried from both sides; group 2 from the left only.
  const std::vector<uint64_t> group_masks = {0b011, 0b111, 0b101};
  BoundFactor left = MakeFactor(0b01, 8.0,
                                {{0, {{5.0, 3.0}, {1.0, 1.0}}},
                                 {1, {{10.0, 10.0}, {2.0, 2.0}}},
                                 {2, {{4.0, 4.0, 4.0}, {1.0, 2.0, 1.0}}}},
                                &inputs);
  BoundFactor right = MakeFactor(0b10, 6.0,
                                 {{0, {{4.0, 2.0}, {1.0, 1.0}}},
                                  {1, {{8.0, 9.0}, {3.0, 3.0}}}},
                                 &inputs);
  FactorArena arena;
  BoundFactor joined =
      JoinBoundFactors(left, right, {0, 1}, group_masks, &arena);
  EXPECT_EQ(joined.card, 6.0);
  ASSERT_EQ(joined.groups.size(), 2u);
  EXPECT_EQ(joined.groups[0].gid, 1);
  EXPECT_EQ(joined.groups[1].gid, 2);
  size_t kept = 0;
  for (const GroupSpan& g : joined.groups) kept += 2 * size_t{g.bins};
  EXPECT_EQ(arena.allocated_doubles(), kept);
}

TEST(FactorJoinStepTest, IntraAliasMergeDropsSpanMemos) {
  FactorArena arena;
  GroupSpan merged = MakeGroupSpan(1, {9.0, 7.0}, {5.0, 6.0}, &arena);
  EXPECT_EQ(merged.mass_sum, 16.0);
  EXPECT_EQ(merged.mfv_max, 6.0);
  merged.MinWith(MakeGroupSpan(1, {3.0, 8.0}, {2.0, 5.0}, &arena));
  EXPECT_TRUE(std::isnan(merged.mass_sum));
  EXPECT_TRUE(std::isnan(merged.mfv_max));
  EXPECT_EQ(merged.MassSum(), 10.0);
  EXPECT_EQ(merged.MfvMax(), 5.0);
  GroupSpan fresh = MakeGroupSpan(1, {3.0, 7.0}, {2.0, 5.0}, &arena);

  // Carried across a join, the merged span rescales by its merged sum.
  auto carry = [&](const GroupSpan& span) {
    BoundFactor left = MakeFactor(0b01, 10.0, {{0, {{10.0}, {2.0}}}}, &arena);
    left.groups.push_back(span);
    BoundFactor right = MakeFactor(0b10, 5.0, {{0, {{5.0}, {5.0}}}}, &arena);
    return JoinBoundFactors(left, right, {0}, kOpen, &arena);
  };
  BoundFactor carried = carry(merged);
  EXPECT_EQ(MassOf(carried, 1), MassOf(carry(fresh), 1));
  EXPECT_EQ(carried.FindGroup(1)->MfvMax(),
            carry(fresh).FindGroup(1)->MfvMax());

  // As the g* of a join, it bounds the other side's duplication by its
  // merged maximum.
  auto star = [&](const GroupSpan& span) {
    BoundFactor left = MakeFactor(0b01, 12.0,
                                  {{1, {{6.0, 6.0}, {1.0, 1.0}}},
                                   {2, {{12.0}, {1.0}}}},
                                  &arena);
    BoundFactor right;
    right.alias_mask = 0b10;
    right.card = 10.0;
    right.groups.push_back(span);
    return JoinBoundFactors(left, right, {1}, kOpen, &arena);
  };
  EXPECT_EQ(MfvOf(star(merged), 2), MfvOf(star(fresh), 2));
  EXPECT_EQ(MfvOf(star(fresh), 2), (std::vector<double>{5.0}));
}

TEST(FactorArenaTest, SpansStayValidAcrossGrowth) {
  FactorArena arena;
  double* first = arena.Alloc(4);
  for (int i = 0; i < 4; ++i) first[i] = static_cast<double>(i);
  // Force several new blocks.
  for (int i = 0; i < 64; ++i) arena.Alloc(FactorArena::kBlockDoubles / 2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(first[i], static_cast<double>(i));
  }
  EXPECT_GT(arena.num_blocks(), 1u);
}

TEST(FactorArenaTest, ResetReusesTheBlocks) {
  FactorArena arena;
  double* first = arena.Alloc(4);
  for (int i = 0; i < 5; ++i) arena.Alloc(FactorArena::kBlockDoubles / 2);
  size_t blocks = arena.num_blocks();
  ASSERT_GT(blocks, 1u);
  arena.Reset();
  EXPECT_EQ(arena.allocated_doubles(), 0u);
  EXPECT_EQ(arena.Alloc(4), first);
  for (int i = 0; i < 5; ++i) arena.Alloc(FactorArena::kBlockDoubles / 2);
  EXPECT_EQ(arena.num_blocks(), blocks);
  EXPECT_EQ(arena.allocated_doubles(), 4 + 5 * FactorArena::kBlockDoubles / 2);
}

TEST(FactorArenaTest, OversizedAllocationGetsDedicatedBlock) {
  FactorArena arena;
  double* big = arena.AllocZeroed(FactorArena::kBlockDoubles * 3);
  EXPECT_NE(big, nullptr);
  EXPECT_DOUBLE_EQ(big[FactorArena::kBlockDoubles * 3 - 1], 0.0);
  EXPECT_EQ(arena.allocated_doubles(), FactorArena::kBlockDoubles * 3);
}

}  // namespace
}  // namespace fj
