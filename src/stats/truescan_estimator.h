// Exact single-table "estimator": scans and filters the full table at query
// time. Produces exact conditional key distributions, so FactorJoin with this
// estimator computes an exact (not probabilistic) upper bound — the TrueScan
// ablation row in Table 7 — at the cost of high estimation latency.
#pragma once

#include "stats/table_estimator.h"

namespace fj {

class TrueScanEstimator : public TableEstimator {
 public:
  explicit TrueScanEstimator(const Table& table) : table_(&table) {}

  KeyDistResult EstimateKeyDists(
      const Predicate& filter,
      const std::vector<KeyDistRequest>& keys) const override;
  void Refresh(const Table& table) override { table_ = &table; }

  /// No trained state: the snapshot payload is empty, and a loaded
  /// estimator scans the bound table exactly like the original.
  void Save(ByteWriter& /*w*/) const override {}
  void Load(ByteReader& /*r*/) override {}

  size_t MemoryBytes() const override { return 0; }  // no model state
  std::string Name() const override { return "truescan"; }

 private:
  const Table* table_;  // not owned
};

}  // namespace fj
