// Bound factors: the quantities FactorJoin's approximate inference carries
// per (sub-plan, equivalent key group): a per-bin expected mass and a per-bin
// most-frequent-value bound V*.
//
// Joining two factors applies the probabilistic bound of Equation 5 per bin
// of each connecting key group and takes the tightest group (each group's
// bound is individually valid because dropping an equality predicate can only
// grow the result, so the minimum over groups is valid too — this is how
// cyclic join templates, appendix Case 5, are handled). The joined factor
// caches the new per-bin masses and MFV bounds, which is exactly the
// "joining factor graphs" step of the progressive sub-plan estimation
// (Section 5.2). A key group whose every alias is inside the joined factor
// is eliminated, as in variable elimination on the factor graph: no later
// join can connect on it, so its bound state could never be read again.
//
// Layout: a factor is a structure-of-arrays view into a FactorArena — each
// key group is a GroupSpan whose mass/mfv arrays live in arena memory owned
// by the enclosing Estimate/EstimateSubplans call or session, and the group
// ids form a small dense index sorted ascending. Copying a factor copies
// only the span headers (a few words per group), never the per-bin data;
// the spans stay valid until their arena is reset or destroyed. The
// per-bin arithmetic itself lives in kernels.h and is bit-identical to the
// former std::map<int, GroupBound> implementation (pinned by
// golden_estimates_test.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "factorjoin/arena.h"
#include "query/query.h"

namespace fj {

/// Per-key-group bound state inside a factor: contiguous per-bin arrays in
/// arena memory, plus two memos that let a join skip whole passes.
struct GroupSpan {
  static constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();

  /// Query-level key-group index.
  int gid = 0;
  /// Number of bins in both arrays.
  uint32_t bins = 0;
  /// mass[b]: expected number of tuples whose group key falls in bin b,
  /// conditioned on all filters of the factor's aliases. Sums to ~card.
  double* mass = nullptr;
  /// mfv[b]: upper bound on the count of any single key value in bin b
  /// (offline V* for leaf factors; products of V* after joins). >= 1.
  double* mfv = nullptr;
  /// kernels::Sum(mass, bins) where it is known exactly, else kUnknown.
  double mass_sum = kUnknown;
  /// kernels::MaxOr1(mfv, bins) where it is known, else kUnknown.
  double mfv_max = kUnknown;

  /// The in-order mass sum: the memo, or a pass over the bins.
  double MassSum() const;
  /// max(1, max_b mfv[b]): the memo, or a pass over the bins.
  double MfvMax() const;
  /// Computes both memos from the current arrays.
  void Memoize();
  /// Conjunction merge (two columns of one alias in the same group, or a
  /// group carried from both sides of a join): the elementwise minimum of
  /// both arrays over the shorter length. Drops both memos.
  void MinWith(const GroupSpan& other);
};

/// A factor over a set of aliases (identified by bitmask in the enclosing
/// query) carrying its cardinality bound and per-group bound state.
struct BoundFactor {
  uint64_t alias_mask = 0;
  /// Upper bound (probabilistic) on the sub-plan's cardinality.
  double card = 0.0;
  /// Sorted ascending by gid; small (one entry per key group the factor's
  /// aliases participate in that is still open).
  std::vector<GroupSpan> groups;

  /// The span for `gid`, or nullptr. Linear scan — the group count per
  /// factor is a handful, far below the break-even of a binary search.
  const GroupSpan* FindGroup(int gid) const {
    for (const GroupSpan& g : groups) {
      if (g.gid == gid) return &g;
    }
    return nullptr;
  }
  GroupSpan* FindGroup(int gid) {
    return const_cast<GroupSpan*>(
        static_cast<const BoundFactor*>(this)->FindGroup(gid));
  }
};

/// Builds a memoized GroupSpan in `arena` from explicit per-bin values
/// (tests and leaf construction; `mass` and `mfv` must have equal length).
GroupSpan MakeGroupSpan(int gid, const std::vector<double>& mass,
                        const std::vector<double>& mfv, FactorArena* arena);

/// Alias mask of each query key group (bit i = query.tables()[i] has a
/// member column in the group), indexed like `groups`.
std::vector<uint64_t> KeyGroupAliasMasks(
    const Query& query, const std::vector<QueryKeyGroup>& groups);

/// Equation 5 for one key group: sum over bins of
///   min(massL[b] * mfvR[b], massR[b] * mfvL[b]).
/// (Equivalent to min(massL/mfvL, massR/mfvR) * mfvL * mfvR.)
double GroupJoinBound(const GroupSpan& left, const GroupSpan& right);

/// Joins two factors, allocating the joined factor's per-bin arrays from
/// `arena` and nothing else there: arrays read only within the join go to
/// a per-thread scratch buffer. The inputs may live in other arenas (e.g.
/// shared leaf factors, or the previous decomposition level).
/// `connecting_groups` must be the key-group ids present in both factors
/// (at least one); `group_masks[gid]` is group gid's alias mask
/// (KeyGroupAliasMasks). Produces the joined factor:
///   card       = min over connecting groups of GroupJoinBound, further
///                clamped by the cross-product bound card_L * card_R;
///   closed groups (no alias outside the joined mask joins on them) are
///                not emitted;
///   g* (argmin) gets per-bin masses equal to its per-bin bound terms and
///                mfv = mfvL * mfvR;
///   other connecting groups get elementwise-min of both sides' rescaled
///                masses and the smaller of the two propagated MFV bounds;
///   one-sided groups get masses rescaled to the new cardinality and MFV
///                multiplied by the other side's maximal duplication factor
///                (max over bins of its g* MFV).
BoundFactor JoinBoundFactors(const BoundFactor& left, const BoundFactor& right,
                             const std::vector<int>& connecting_groups,
                             const std::vector<uint64_t>& group_masks,
                             FactorArena* arena);

}  // namespace fj
