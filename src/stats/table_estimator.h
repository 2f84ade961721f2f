// Common interface for single-table cardinality estimators.
//
// FactorJoin is agnostic to the single-table model (Section 3.3) — it only
// requires conditional distributions of join keys given filter predicates.
// Implementations: SamplingEstimator (flexible, supports every predicate
// class incl. LIKE and disjunctions), BayesNetEstimator (BayesCard-like,
// accurate on conjunctive numeric/categorical filters), TrueScanEstimator
// (exact, slow — the paper's "TrueScan" ablation row).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "factorjoin/binning.h"
#include "query/predicate.h"
#include "storage/table.h"

namespace fj {

/// Request for the binned distribution of one join-key column.
struct KeyDistRequest {
  std::string column;
  const Binning* binning;  // not owned
};

/// Conditional binned distributions of the requested keys.
struct KeyDistResult {
  /// Estimated |Q(T)| (number of rows passing the filter).
  double filtered_rows = 0.0;
  /// masses[i][b] = estimated number of filtered rows whose key i falls in
  /// bin b. Each masses[i] sums to ~filtered_rows (minus nulls).
  std::vector<std::vector<double>> masses;
};

class ByteReader;
class ByteWriter;

class TableEstimator {
 public:
  virtual ~TableEstimator() = default;

  /// Conditional binned join-key distributions under `filter`, with the
  /// estimated number of rows satisfying it; `keys` may be empty when only
  /// that row count is wanted.
  virtual KeyDistResult EstimateKeyDists(
      const Predicate& filter,
      const std::vector<KeyDistRequest>& keys) const = 0;

  /// Re-trains / refreshes internal state after the underlying table changed
  /// (incremental update path, Section 4.3).
  virtual void Refresh(const Table& table) = 0;

  /// Appends the trained state to `w` (model snapshots; see
  /// CardinalityEstimator::Save for the contract). Default: throws
  /// std::logic_error.
  virtual void Save(ByteWriter& w) const;

  /// Replaces the trained state with a snapshot produced by Save() on an
  /// estimator over the same table. Default: throws std::logic_error.
  virtual void Load(ByteReader& r);

  virtual size_t MemoryBytes() const = 0;

  virtual std::string Name() const = 0;
};

/// Which single-table estimator FactorJoin plugs in (Table 7 ablation).
enum class TableEstimatorKind { kSampling, kBayesNet, kTrueScan };

const char* TableEstimatorKindName(TableEstimatorKind kind);

}  // namespace fj
