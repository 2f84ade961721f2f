// Sub-plan fingerprints from per-request part digests. The serving layer
// keys its cache by the fingerprint of every sub-plan an optimizer asks for;
// building each induced sub-query to digest it costs more than estimating
// the sub-plan cold, so the digest is assembled from parts.
#pragma once

#include <cstdint>
#include <vector>

#include "query/query.h"

namespace fj {

/// Fingerprints the sub-plans of one parent query without building them.
///
/// Construction digests every part once: one 128-bit digest per alias (its
/// alias, table and any non-TRUE filter) and one per join condition,
/// orientation-normalized and tagged with the bitmask of its endpoint
/// aliases. Of(mask) adds the digests of the aliases in the mask and of the
/// joins with both endpoints inside, lane-wise in 64-bit arithmetic, then
/// finalizes with the part count. Addition is order-independent, so
/// construction order cannot change a digest, and it keeps multiplicity:
/// two copies of one join condition do not cancel as they would under XOR.
///
/// Query::Fingerprint() is Of(every alias), so for every mask m
///   q.InducedSubquery(m).Fingerprint() == SubplanFingerprinter(q).Of(m).
class SubplanFingerprinter {
 public:
  explicit SubplanFingerprinter(const Query& query);

  /// Fingerprint of the sub-plan induced by `alias_mask` (bits in tables()
  /// order). Bits at or above NumTables() are ignored, as InducedSubquery
  /// ignores them. O(popcount + joins), allocation-free.
  QueryFingerprint Of(uint64_t alias_mask) const;

 private:
  uint64_t all_aliases_ = 0;
  std::vector<QueryFingerprint> alias_parts_;  // tables() order
  // Parallel, in joins() order: the bits of a join's endpoint aliases (one
  // bit for a same-alias condition such as a.x = a.y) and its digest.
  std::vector<uint64_t> join_endpoints_;
  std::vector<QueryFingerprint> join_parts_;
};

}  // namespace fj
