// Per-bin kernels of the bound-factor hot path. Every loop in
// MakeLeafFactor / JoinBoundFactors / GroupJoinBound that touches per-bin
// data lives here, operating on the contiguous arena spans of factor.h.
// They are neither branch-free nor vectorized: GCC 12 at -O3 compiles
// JoinTerms' mass clamps and its empty-bin test to compare-and-jump code,
// and the in-order sums the contract below requires keep the loops scalar.
//
// BIT-EXACTNESS CONTRACT: each kernel evaluates exactly the expression tree
// of the original per-bin implementation, bin by bin, and every sum
// accumulates strictly in bin order, so results are bit-identical to the old
// std::map<int, GroupBound> code path (pinned by golden_estimates_test.cpp).
// Do not reassociate the sums or "simplify" the min/max chains: a faster
// kernel that moves one ulp is a broken kernel. Two facts let the join skip
// passes without moving a bit:
//   - JoinTerms returns the in-order sum of the terms it writes, which is
//     the very sum a later Sum() over those terms would compute;
//   - a maximum does not round, so MaxOr1 may be taken in any order, fused
//     into a writing pass, or derived through a monotone map (ScaleCarried).
#pragma once

#include <cstddef>
#include <cstdint>

namespace fj::kernels {

/// Sum of x[0..n), accumulated strictly in index order.
double Sum(const double* x, size_t n);

/// max(1.0, max_b x[b]) — a factor's maximal duplication bound.
double MaxOr1(const double* x, size_t n);

/// Equation 5 for one key group over contiguous arrays, per bin:
///   terms[b] = min(min(mass_l*mfv_r, mass_r*mfv_l), mass_l*mass_r)
/// with masses clamped >= 0, MFVs clamped >= 1, and bins where either mass
/// is zero contributing exactly 0.0. Returns sum_b terms[b], accumulated in
/// bin order (the group's join bound).
double JoinTerms(const double* mass_l, const double* mfv_l,
                 const double* mass_r, const double* mfv_r, size_t n,
                 double* terms);

/// MFV bound of the winning (g*) group of a join:
///   out[b] = min(max(mfv_l[b], 1) * max(mfv_r[b], 1), cap)
/// where cap = max(card, 1) (no key value repeats more often than the whole
/// result). Returns MaxOr1(out, n).
double JoinMfv(const double* mfv_l, const double* mfv_r, size_t n, double cap,
               double* out);

/// x[b] *= f.
void Scale(double* x, size_t n, double f);

/// One pass over a group carried across a join, from its source span:
///   out_mass[b] = src_mass[b] * f
///   out_mfv[b]  = min(max(src_mfv[b], 1) * dup, cap)
/// f is the rescale factor to the joined cardinality (1.0 when the source
/// sums to <= 0, which leaves the masses as they are); dup is the other
/// side's maximal duplication bound. The output MFV's MaxOr1 equals
/// min(MaxOr1(src_mfv) * dup, cap) for n > 0: the map is monotone.
void ScaleCarried(const double* src_mass, const double* src_mfv, size_t n,
                  double f, double dup, double cap, double* out_mass,
                  double* out_mfv);

/// Elementwise a[b] = min(a[b], b_arr[b]) — the conjunction merge used for
/// intra-alias duplicate groups and two-sided carried groups.
void MinInto(double* a, const double* b_arr, size_t n);

/// Leaf-factor per-bin finalize over a column's bin summaries (contiguous
/// totals/mfvs arrays from ColumnBinStats):
///   mfv[b]  = max(mfvs[b], 1)                       (as double)
///   mass[b] = card * totals[b] / total_rows          when backing off
///             (mass_sum <= 0, card > 0, total_rows > 0: the single-table
///             estimator saw no matching rows — fall back to the key's
///             unconditioned shape scaled to the filtered cardinality)
///   mass[b] = min(mass[b], totals[b])                (per-bin clamp: the
///             estimate can never exceed the bin's exact total)
void LeafFinalize(double* mass, double* mfv, const uint64_t* totals,
                  const uint64_t* mfvs, size_t n, double mass_sum,
                  double card, uint64_t total_rows);

}  // namespace fj::kernels
