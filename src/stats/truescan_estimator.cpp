#include "stats/truescan_estimator.h"

#include "query/filter_eval.h"

namespace fj {

KeyDistResult TrueScanEstimator::EstimateKeyDists(
    const Predicate& filter, const std::vector<KeyDistRequest>& keys) const {
  KeyDistResult result;
  result.masses.resize(keys.size());
  std::vector<const Column*> cols(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    cols[i] = &table_->Col(keys[i].column);
    result.masses[i].assign(keys[i].binning->num_bins(), 0.0);
  }
  if (table_->num_rows() == 0) return result;
  CompiledPredicate compiled(*table_, filter);
  size_t hits = 0;
  compiled.SelectTable([&](const uint32_t* sel, size_t k) {
    hits += k;
    for (size_t i = 0; i < keys.size(); ++i) {
      const int64_t* codes = cols[i]->ints().data();
      double* mass = result.masses[i].data();
      for (size_t s = 0; s < k; ++s) {
        int64_t code = codes[sel[s]];
        if (code == kNullInt64) continue;
        mass[keys[i].binning->BinOf(code)] += 1.0;
      }
    }
  });
  // Counts below 2^53 are exact doubles: the same bits as adding 1.0 per row.
  result.filtered_rows = static_cast<double>(hits);
  return result;
}

}  // namespace fj
