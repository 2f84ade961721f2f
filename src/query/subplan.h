// Sub-plan query enumeration: all connected sub-join-graphs of a query.
// The optimizer needs a cardinality estimate for every one of these, which is
// what drives the paper's planning-latency comparisons (IMDB-JOB queries have
// up to ~10,000 sub-plan queries).
#pragma once

#include <cstdint>
#include <vector>

#include "query/query.h"

namespace fj {

/// True when the aliases in `mask` form a connected join graph under the
/// adjacency bitmasks `adj` (Query::AliasAdjacency). Every bit of `mask`
/// must be a valid index into `adj`; the empty mask is not connected.
bool ConnectedAliasMask(uint64_t mask, const std::vector<uint64_t>& adj);

/// The greedy left-deep join order of the bound estimators (FactorJoin's
/// Estimate, PessEst, JoinHist, UBlock): start at the leaf with the smallest
/// card, then repeatedly add the smallest remaining leaf adjacent to those
/// already joined; ties go to the lower index. `leaf_cards` and `adj` are
/// indexed by alias (at most 64). Throws std::invalid_argument("disconnected
/// join graph") when some leaf is unreachable.
std::vector<size_t> GreedyJoinOrder(const std::vector<double>& leaf_cards,
                                    const std::vector<uint64_t>& adj);

/// Bitmasks (over Query::tables() order) of all connected alias subsets with
/// at least `min_tables` members, ordered by popcount then value so that
/// smaller sub-plans come first (the order progressive estimation consumes).
std::vector<uint64_t> EnumerateConnectedSubsets(const Query& query,
                                                size_t min_tables = 2);

/// Convenience: materialized sub-queries for each connected subset.
struct SubplanSet {
  std::vector<uint64_t> masks;
  std::vector<Query> queries;  // parallel to masks
};

SubplanSet EnumerateSubplans(const Query& query, size_t min_tables = 2);

}  // namespace fj
