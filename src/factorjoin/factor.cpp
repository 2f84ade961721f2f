#include "factorjoin/factor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "factorjoin/kernels.h"

namespace fj {
namespace {

const GroupSpan& GroupOrThrow(const BoundFactor& f, int gid) {
  const GroupSpan* g = f.FindGroup(gid);
  if (g == nullptr) {
    throw std::out_of_range(
        "JoinBoundFactors: connecting group missing from a factor");
  }
  return *g;
}

/// The factor that rescales a span summing to `sum` so it sums to `target`;
/// 1.0 (masses left as they are) when the span sums to <= 0.
double RescaleFactor(double sum, double target) {
  return sum <= 0.0 ? 1.0 : target / sum;
}

/// A group carried across a join, built in one pass from its source into
/// `mass` and `mfv` (src.bins each): mass rescaled to the joined
/// cardinality, MFV multiplied by the other side's duplication bound and
/// clamped by the result size.
GroupSpan Carry(const GroupSpan& src, double card, double dup, double cap,
                double* mass, double* mfv) {
  GroupSpan g;
  g.gid = src.gid;
  g.bins = src.bins;
  g.mass = mass;
  g.mfv = mfv;
  double sum = src.MassSum();
  double f = RescaleFactor(sum, card);
  kernels::ScaleCarried(src.mass, src.mfv, src.bins, f, dup, cap, g.mass,
                        g.mfv);
  // x * 1.0 == x, so an unscaled copy keeps its source's exact sum.
  if (f == 1.0) g.mass_sum = sum;
  // The MFV map m -> min(max(m, 1) * dup, cap) is monotone (dup >= 1), so
  // the output's maximum is the map of the source's.
  if (g.bins > 0 && !std::isnan(src.mfv_max)) {
    g.mfv_max = std::min(src.mfv_max * dup, cap);
  }
  return g;
}

/// At least `n` doubles of this thread's join scratch: the per-bin arrays a
/// join reads and drops (terms of the connecting groups, the right side of
/// a min-merged carried group), so that the arena holds only the arrays of
/// groups the joined factor keeps. Valid until the next call on the thread.
double* JoinScratch(size_t n) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

}  // namespace

double GroupSpan::MassSum() const {
  return std::isnan(mass_sum) ? kernels::Sum(mass, bins) : mass_sum;
}

double GroupSpan::MfvMax() const {
  return std::isnan(mfv_max) ? kernels::MaxOr1(mfv, bins) : mfv_max;
}

void GroupSpan::Memoize() {
  mass_sum = kernels::Sum(mass, bins);
  mfv_max = kernels::MaxOr1(mfv, bins);
}

void GroupSpan::MinWith(const GroupSpan& other) {
  bins = std::min(bins, other.bins);
  kernels::MinInto(mass, other.mass, bins);
  kernels::MinInto(mfv, other.mfv, bins);
  mass_sum = kUnknown;
  mfv_max = kUnknown;
}

GroupSpan MakeGroupSpan(int gid, const std::vector<double>& mass,
                        const std::vector<double>& mfv, FactorArena* arena) {
  if (mass.size() != mfv.size()) {
    throw std::invalid_argument("MakeGroupSpan: mass/mfv length mismatch");
  }
  GroupSpan g;
  g.gid = gid;
  g.bins = static_cast<uint32_t>(mass.size());
  g.mass = arena->AllocCopy(mass.data(), mass.size());
  g.mfv = arena->AllocCopy(mfv.data(), mfv.size());
  g.Memoize();
  return g;
}

std::vector<uint64_t> KeyGroupAliasMasks(
    const Query& query, const std::vector<QueryKeyGroup>& groups) {
  std::vector<uint64_t> masks(groups.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const AliasColumn& member : groups[g].members) {
      masks[g] |= uint64_t{1} << query.AliasIndex(member.alias);
    }
  }
  return masks;
}

double GroupJoinBound(const GroupSpan& left, const GroupSpan& right) {
  size_t bins = std::min(left.bins, right.bins);
  std::vector<double> terms(bins);
  return kernels::JoinTerms(left.mass, left.mfv, right.mass, right.mfv, bins,
                            terms.data());
}

BoundFactor JoinBoundFactors(const BoundFactor& left, const BoundFactor& right,
                             const std::vector<int>& connecting_groups,
                             const std::vector<uint64_t>& group_masks,
                             FactorArena* arena) {
  if (connecting_groups.empty()) {
    throw std::invalid_argument("JoinBoundFactors: no connecting key group");
  }

  // Scratch layout, `width` doubles per slot: the best terms so far, the
  // candidate terms, and the mass and MFV of a min-merged right carry.
  uint32_t width = 0;
  for (const GroupSpan& g : left.groups) width = std::max(width, g.bins);
  for (const GroupSpan& g : right.groups) width = std::max(width, g.bins);
  double* scratch = JoinScratch(size_t{4} * width);
  double* star_terms = scratch;
  double* candidate = scratch + width;

  // Tightest connecting group wins (each is a valid bound on its own). Each
  // group's per-bin terms are computed once, into scratch; the winner's
  // become g*'s mass if g* stays open.
  int best_group = connecting_groups.front();
  double best_bound = -1.0;
  const GroupSpan* gl_star = nullptr;
  const GroupSpan* gr_star = nullptr;
  for (int g : connecting_groups) {
    const GroupSpan& l = GroupOrThrow(left, g);
    const GroupSpan& r = GroupOrThrow(right, g);
    uint32_t bins = std::min(l.bins, r.bins);
    double bound =
        kernels::JoinTerms(l.mass, l.mfv, r.mass, r.mfv, bins, candidate);
    if (best_bound < 0.0 || bound < best_bound) {
      best_bound = bound;
      best_group = g;
      gl_star = &l;
      gr_star = &r;
      std::swap(star_terms, candidate);
    }
  }
  double card = std::min(best_bound, left.card * right.card);
  card = std::max(card, 0.0);
  // No single key value can repeat more often than the whole result.
  const double cap = std::max(card, 1.0);

  BoundFactor out;
  out.alias_mask = left.alias_mask | right.alias_mask;
  out.card = card;
  out.groups.reserve(left.groups.size() + right.groups.size());

  // Duplication factors: joining on g*, one left tuple matches at most
  // max_b mfvR[b] right tuples and vice versa. Memoized on the spans.
  const double dup_from_right = gr_star->MfvMax();
  const double dup_from_left = gl_star->MfvMax();

  auto is_connecting = [&](int gid) {
    return std::find(connecting_groups.begin(), connecting_groups.end(),
                     gid) != connecting_groups.end();
  };
  const uint64_t outside = ~out.alias_mask;
  // A group the joined factor keeps, carried into the arena.
  auto carry = [&](const GroupSpan& src, double dup) {
    double* mass = arena->Alloc(src.bins);
    double* mfv = arena->Alloc(src.bins);
    return Carry(src, card, dup, cap, mass, mfv);
  };

  // Merge the two sorted group indexes; the output stays sorted by gid.
  size_t li = 0, ri = 0;
  while (li < left.groups.size() || ri < right.groups.size()) {
    const GroupSpan* lg =
        li < left.groups.size() ? &left.groups[li] : nullptr;
    const GroupSpan* rg =
        ri < right.groups.size() ? &right.groups[ri] : nullptr;
    int gid = lg != nullptr && (rg == nullptr || lg->gid <= rg->gid)
                  ? lg->gid
                  : rg->gid;
    bool on_left = lg != nullptr && lg->gid == gid;
    bool on_right = rg != nullptr && rg->gid == gid;
    if (on_left) ++li;
    if (on_right) ++ri;

    // Closed group: every alias joining on it is already inside.
    if ((group_masks.at(static_cast<size_t>(gid)) & outside) == 0) continue;

    if (gid == best_group) {
      // g*: the per-bin bound terms become the joined mass, rescaled to the
      // (possibly clamped) card; they sum to best_bound bit for bit. MFV
      // multiplies, clamped by the result size.
      GroupSpan g;
      g.gid = gid;
      g.bins = std::min(gl_star->bins, gr_star->bins);
      g.mass = arena->AllocCopy(star_terms, g.bins);
      double f = RescaleFactor(best_bound, card);
      if (f == 1.0) {
        g.mass_sum = best_bound;
      } else {
        kernels::Scale(g.mass, g.bins, f);
      }
      g.mfv = arena->Alloc(g.bins);
      g.mfv_max = kernels::JoinMfv(gl_star->mfv, gr_star->mfv, g.bins, cap,
                                   g.mfv);
      out.groups.push_back(g);
      continue;
    }
    if (on_left) {
      GroupSpan g = carry(*lg, dup_from_right);
      if (on_right && is_connecting(gid)) {
        // Present on both sides: take the elementwise min of both rescaled
        // views (each is an upper-bound-flavored estimate of the same
        // distribution in the join result). The right view is read once,
        // so it lives in scratch.
        g.MinWith(Carry(*rg, card, dup_from_left, cap, scratch + 2 * width,
                        scratch + 3 * width));
      }
      out.groups.push_back(g);
      continue;
    }
    // Right-only group: mass rescaled to the new cardinality, MFV
    // multiplied by the left side's maximal duplication factor.
    out.groups.push_back(carry(*rg, dup_from_left));
  }
  return out;
}

}  // namespace fj
