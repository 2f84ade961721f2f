#include "query/fingerprint.h"

#include <bit>
#include <string>
#include <string_view>
#include <utility>

#include "util/hash.h"

namespace fj {
namespace {

// Digest of one part, streamed over a tag and \x1f-separated fields (alias
// part "T", alias, table[, filter]; join part "J", left, right). Two
// independently seeded FNV-1a streams give the two lanes, and a full-avalanche
// mix closes each, so the lane-wise sums in Of() add well-spread values.
class PartDigest {
 public:
  explicit PartDigest(std::string_view tag) { Feed(tag); }

  PartDigest& Field(std::string_view field) {
    Feed("\x1f");
    Feed(field);
    return *this;
  }

  QueryFingerprint Finish() const { return {Mix64(lo_), Mix64(hi_)}; }

 private:
  void Feed(std::string_view bytes) {
    lo_ = Fnv1a64(bytes, lo_);
    hi_ = Fnv1a64(bytes, hi_);
  }

  uint64_t lo_ = 0xcbf29ce484222325ULL;
  uint64_t hi_ = 0x9ae16a3b2f90404fULL;
};

}  // namespace

SubplanFingerprinter::SubplanFingerprinter(const Query& query) {
  const std::vector<TableRef>& tables = query.tables();
  all_aliases_ = query.AllAliases();
  alias_parts_.reserve(tables.size());
  for (const TableRef& t : tables) {
    PartDigest part("T");
    part.Field(t.alias).Field(t.table);
    // A TRUE filter digests like an absent one.
    PredicatePtr filter = query.FilterFor(t.alias);
    if (filter->kind() != Predicate::Kind::kTrue) {
      part.Field(filter->ToString());
    }
    alias_parts_.push_back(part.Finish());
  }
  join_endpoints_.reserve(query.joins().size());
  join_parts_.reserve(query.joins().size());
  for (const JoinCondition& j : query.joins()) {
    join_endpoints_.push_back(
        (uint64_t{1} << query.AliasIndex(j.left.alias)) |
        (uint64_t{1} << query.AliasIndex(j.right.alias)));
    // Orientation-insensitive: a.x = b.y and b.y = a.x digest the same.
    std::string l = j.left.ToString(), r = j.right.ToString();
    if (r < l) std::swap(l, r);
    join_parts_.push_back(PartDigest("J").Field(l).Field(r).Finish());
  }
}

QueryFingerprint SubplanFingerprinter::Of(uint64_t alias_mask) const {
  uint64_t mask = alias_mask & all_aliases_;
  uint64_t lo = 0, hi = 0;
  uint64_t parts = static_cast<uint64_t>(std::popcount(mask));
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    const QueryFingerprint& part =
        alias_parts_[static_cast<size_t>(std::countr_zero(m))];
    lo += part.lo;
    hi += part.hi;
  }
  for (size_t j = 0; j < join_parts_.size(); ++j) {
    // Branch-free: whether a join lies inside changes from mask to mask, so
    // a branch here would mispredict. `inside` is all ones or all zeros.
    uint64_t inside =
        uint64_t{0} - static_cast<uint64_t>((join_endpoints_[j] & ~mask) == 0);
    lo += join_parts_[j].lo & inside;
    hi += join_parts_[j].hi & inside;
    parts += inside & 1;
  }
  return {Mix64(lo ^ Mix64(parts)), Mix64(hi + Mix64(parts))};
}

}  // namespace fj
