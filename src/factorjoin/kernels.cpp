#include "factorjoin/kernels.h"

#include <algorithm>

namespace fj::kernels {

double Sum(const double* x, size_t n) {
  // Strict index-order accumulation: the scalar dependency chain is the
  // price of bit-exactness (no reassociation), but the loop is still free
  // of branches and indirections.
  double sum = 0.0;
  for (size_t b = 0; b < n; ++b) sum += x[b];
  return sum;
}

double MaxOr1(const double* x, size_t n) {
  double m = 1.0;
  for (size_t b = 0; b < n; ++b) m = std::max(m, x[b]);
  return m;
}

double JoinTerms(const double* mass_l, const double* mfv_l,
                 const double* mass_r, const double* mfv_r, size_t n,
                 double* terms) {
  double bound = 0.0;
  for (size_t b = 0; b < n; ++b) {
    double ml = std::max(mass_l[b], 0.0);
    double mr = std::max(mass_r[b], 0.0);
    double vl = std::max(mfv_l[b], 1.0);
    double vr = std::max(mfv_r[b], 1.0);
    // Equation 5, additionally clamped by the per-bin cross product (always
    // a valid upper bound, and much tighter when a filter left only a few
    // rows in the bin while the offline MFV is large). An empty side
    // contributes exactly 0.0, preserving the old skip-the-bin sum.
    double term = (ml == 0.0 || mr == 0.0)
                      ? 0.0
                      : std::min(std::min(ml * vr, mr * vl), ml * mr);
    terms[b] = term;
    bound += term;
  }
  return bound;
}

double JoinMfv(const double* mfv_l, const double* mfv_r, size_t n, double cap,
               double* out) {
  double m = 1.0;
  for (size_t b = 0; b < n; ++b) {
    double v = std::min(std::max(mfv_l[b], 1.0) * std::max(mfv_r[b], 1.0),
                        cap);
    out[b] = v;
    m = std::max(m, v);
  }
  return m;
}

void Scale(double* x, size_t n, double f) {
  for (size_t b = 0; b < n; ++b) x[b] *= f;
}

void ScaleCarried(const double* src_mass, const double* src_mfv, size_t n,
                  double f, double dup, double cap, double* out_mass,
                  double* out_mfv) {
  for (size_t b = 0; b < n; ++b) {
    out_mass[b] = src_mass[b] * f;
    out_mfv[b] = std::min(std::max(src_mfv[b], 1.0) * dup, cap);
  }
}

void MinInto(double* a, const double* b_arr, size_t n) {
  for (size_t b = 0; b < n; ++b) a[b] = std::min(a[b], b_arr[b]);
}

void LeafFinalize(double* mass, double* mfv, const uint64_t* totals,
                  const uint64_t* mfvs, size_t n, double mass_sum,
                  double card, uint64_t total_rows) {
  for (size_t b = 0; b < n; ++b) {
    mfv[b] = static_cast<double>(std::max<uint64_t>(mfvs[b], 1));
  }
  // The backoff condition is bin-invariant; hoisting it keeps the test out
  // of the per-bin loops (the old code tested it inside the loop with the
  // same outcome every iteration).
  if (mass_sum <= 0.0 && card > 0.0 && total_rows > 0) {
    double rows = static_cast<double>(total_rows);
    for (size_t b = 0; b < n; ++b) {
      mass[b] = card * static_cast<double>(totals[b]) / rows;
    }
  }
  for (size_t b = 0; b < n; ++b) {
    mass[b] = std::min(mass[b], static_cast<double>(totals[b]));
  }
}

}  // namespace fj::kernels
