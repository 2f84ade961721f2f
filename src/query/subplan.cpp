#include "query/subplan.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace fj {

bool ConnectedAliasMask(uint64_t mask, const std::vector<uint64_t>& adj) {
  if (mask == 0) return false;
  uint64_t start = mask & (~mask + 1);  // lowest set bit
  uint64_t reached = start;
  uint64_t frontier = start;
  while (frontier != 0) {
    uint64_t next = 0;
    uint64_t f = frontier;
    while (f != 0) {
      size_t i = static_cast<size_t>(std::countr_zero(f));
      f &= f - 1;
      next |= adj[i] & mask;
    }
    frontier = next & ~reached;
    reached |= next;
  }
  return reached == mask;
}

std::vector<size_t> GreedyJoinOrder(const std::vector<double>& leaf_cards,
                                    const std::vector<uint64_t>& adj) {
  const size_t n = leaf_cards.size();
  std::vector<size_t> order;
  if (n == 0) return order;
  order.reserve(n);
  size_t next = 0;
  for (size_t i = 1; i < n; ++i) {
    if (leaf_cards[i] < leaf_cards[next]) next = i;
  }
  uint64_t joined = 0;
  uint64_t remaining = n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  for (;;) {
    order.push_back(next);
    joined |= uint64_t{1} << next;
    remaining &= ~(uint64_t{1} << next);
    if (remaining == 0) return order;
    next = n;  // none found yet
    for (uint64_t m = remaining; m != 0; m &= m - 1) {
      size_t a = static_cast<size_t>(std::countr_zero(m));
      if ((adj[a] & joined) == 0) continue;
      if (next == n || leaf_cards[a] < leaf_cards[next]) next = a;
    }
    if (next == n) throw std::invalid_argument("disconnected join graph");
  }
}

std::vector<uint64_t> EnumerateConnectedSubsets(const Query& query,
                                                size_t min_tables) {
  size_t n = query.NumTables();
  if (n > Query::kMaxTables) {
    // Query::AddTable already enforces the cap; this guards queries built by
    // future code paths so a too-wide query can never silently overflow the
    // uint64_t masks and return garbage subsets.
    throw std::invalid_argument(
        "EnumerateConnectedSubsets: " + std::to_string(n) +
        " aliases exceed the " + std::to_string(Query::kMaxTables) +
        "-bit mask width");
  }
  std::vector<uint64_t> adj = query.AliasAdjacency();
  std::vector<uint64_t> result;
  // Exhaustive 2^n enumeration is only tractable for moderate n; past this
  // cutoff (far above the paper's 17-way IMDB-JOB maximum) return no
  // sub-plans rather than looping for hours.
  if (n == 0 || n > 30) return result;

  uint64_t limit = uint64_t{1} << n;
  for (uint64_t mask = 1; mask < limit; ++mask) {
    size_t bits = static_cast<size_t>(std::popcount(mask));
    if (bits < min_tables) continue;
    if (ConnectedAliasMask(mask, adj)) result.push_back(mask);
  }
  std::stable_sort(result.begin(), result.end(),
                   [](uint64_t a, uint64_t b) {
                     int pa = std::popcount(a), pb = std::popcount(b);
                     if (pa != pb) return pa < pb;
                     return a < b;
                   });
  return result;
}

SubplanSet EnumerateSubplans(const Query& query, size_t min_tables) {
  SubplanSet set;
  set.masks = EnumerateConnectedSubsets(query, min_tables);
  set.queries.reserve(set.masks.size());
  for (uint64_t mask : set.masks) {
    set.queries.push_back(query.InducedSubquery(mask));
  }
  return set;
}

}  // namespace fj
