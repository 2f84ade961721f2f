// Interface every join-cardinality estimation method implements (FactorJoin
// and all baselines), so the optimizer harness can inject any of them.
//
// The interface has two halves with different concurrency contracts:
//
//  - Estimation (`Estimate`, `EstimateSubplans`) is const: a trained
//    estimator is an immutable model, safe to share across threads (the
//    EstimatorService serves one instance from a whole worker pool).
//  - Updates (`ApplyInsert`, `ApplyDelete`) are mutating and require
//    exclusive access: no estimate may run concurrently with an update.
//    Every successful update bumps the estimator's statistics epoch
//    (`StatsVersion`) — the estimator-side changelog counter. Note that
//    serving-layer cache invalidation is NOT driven by this counter: an
//    EstimatorService tracks its own per-table epochs and must be told
//    about updates explicitly via NotifyUpdate(table).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/query.h"

namespace fj {

class ByteReader;
class ByteWriter;

class CardinalityEstimator {
 public:
  CardinalityEstimator() = default;
  virtual ~CardinalityEstimator() = default;

  // Copies and moves carry the statistics epoch along (std::atomic members
  // would otherwise delete the implicit operations of every subclass).
  CardinalityEstimator(const CardinalityEstimator& o)
      : stats_version_(o.StatsVersion()) {}
  CardinalityEstimator& operator=(const CardinalityEstimator& o) {
    stats_version_.store(o.StatsVersion(), std::memory_order_release);
    return *this;
  }

  virtual std::string Name() const = 0;

  /// Estimated cardinality of a connected (sub-)query. Single-alias queries
  /// return the filtered base-table cardinality.
  ///
  /// Estimation is const: a trained estimator is an immutable model, safe to
  /// share across threads (the EstimatorService serves one instance from a
  /// whole worker pool). Implementations needing internal caches must make
  /// them thread-safe (see TrueCardEstimator).
  virtual double Estimate(const Query& query) const = 0;

  /// Estimates for all given sub-plan alias masks of `query` (masks use
  /// Query::tables() bit order and include single-alias masks): one
  /// PrepareSubplans session run over the whole mask set.
  std::unordered_map<uint64_t, double> EstimateSubplans(
      const Query& query, const std::vector<uint64_t>& masks) const {
    return PrepareSubplans(query)->EstimateSubplans(masks);
  }

  /// Per-query sub-plan estimation state (see PrepareSubplans): the
  /// mask-independent work — FactorJoin's leaf factors — is done once at
  /// construction and shared by every EstimateSubplans call on the session.
  class SubplanSession {
   public:
    virtual ~SubplanSession() = default;

    /// Estimates the given masks against the prepared state. Thread-safe:
    /// any number of threads may call concurrently on one session, and the
    /// values are bit-identical to a single EstimateSubplans(query, masks)
    /// call with any superset of the masks (the serving layer's cache
    /// mixes values from different batches relying on exactly this).
    virtual std::unordered_map<uint64_t, double> EstimateSubplans(
        const std::vector<uint64_t>& masks) const = 0;
  };

  /// The one batch hook: prepares what every sub-plan mask of `query`
  /// shares, so every EstimateSubplans call on the session reuses that
  /// work. Never returns null. The
  /// default session has no shared state and estimates each mask on its
  /// own, as Estimate(query.InducedSubquery(mask)); methods with shared
  /// computation (FactorJoin's progressive algorithm) override this. The
  /// session holds its own copy of `query` but borrows the estimator, which
  /// must outlive it; like estimation it must not run concurrently with
  /// ApplyInsert/ApplyDelete.
  virtual std::unique_ptr<SubplanSession> PrepareSubplans(
      const Query& query) const;

  /// Serialized statistics footprint (Figure 6 "model size"). For
  /// snapshot-capable estimators this is exact — the byte count a Save()
  /// would produce, measured with a counting ByteWriter. Estimators that
  /// cannot snapshot override this with their own (approximate) accounting
  /// or inherit the 0 default.
  virtual size_t ModelSizeBytes() const;

  /// Offline construction time (Figure 6 "training time").
  virtual double TrainSeconds() const { return 0.0; }

  // ----------------------------------------------------------- snapshots
  //
  // Trained-model persistence: Save serializes the estimator's complete
  // trained state (statistics, models, memo-free caches are rebuilt on
  // load) through the bounds-checked byte primitives of util/bytes.h; Load
  // replaces the estimator's state with a previously saved one, after
  // which Estimate / EstimateSubplans return values BIT-IDENTICAL to the
  // trained original (the golden-estimates test pins this). Estimators
  // must be bound to the same logical database on both sides: the snapshot
  // holds statistics *about* the data, not the data itself.
  //
  // Prefer the framed container in stats/snapshot.h (magic, format
  // version, estimator kind, checksum) over calling Save/Load directly —
  // it validates untrusted files and dispatches Load to the right
  // estimator type. Load requires exclusive access, like ApplyInsert; the
  // loaded model starts a fresh StatsVersion() changelog at 0.

  /// True when Save/Load are implemented. Methods whose state cannot be
  /// serialized (or that have nothing worth persisting) return false and
  /// throw from the snapshot entry points.
  virtual bool SupportsSnapshot() const { return false; }

  /// Appends the full trained state to `w`. Deterministic: equal trained
  /// states serialize to equal bytes (map-backed state is written in
  /// sorted order). Default: throws std::logic_error.
  virtual void Save(ByteWriter& w) const;

  /// Replaces the trained state with a snapshot produced by Save() on an
  /// estimator bound to the same logical database. Throws SerializeError
  /// on malformed input and std::invalid_argument when the snapshot
  /// references tables/columns the bound database does not have. Default:
  /// throws std::logic_error.
  virtual void Load(ByteReader& r);

  /// Exact serialized footprint: runs Save() against a counting ByteWriter
  /// and returns the byte count. Requires SupportsSnapshot().
  size_t SerializedModelSizeBytes() const;

  // ------------------------------------------------------------- updates
  //
  // Data-update protocol (paper Section 4.3 / Table 5, extended to deletes):
  //
  //   inserts:  append rows to the table, then call
  //             ApplyInsert(table, first_new_row);
  //   deletes:  Table::Truncate(first_deleted_row), then call
  //             ApplyDelete(table, first_deleted_row).
  //
  // Both calls require exclusive access to the estimator (quiesce in-flight
  // estimates first) and bump StatsVersion() exactly once on success. When
  // serving through an EstimatorService, follow the estimator update with
  // EstimatorService::NotifyUpdate(table) so cached estimates touching the
  // table are invalidated (see docs/ARCHITECTURE.md for the full protocol).

  /// True when ApplyInsert/ApplyDelete are implemented. Methods whose model
  /// fundamentally requires retraining (learned denormalized models such as
  /// MSCN) return false and throw from the update entry points.
  virtual bool SupportsUpdates() const { return false; }

  /// Folds rows [first_new_row, num_rows()) of `table_name` — already
  /// appended to the underlying table — into the statistics. Returns the
  /// update wall time in seconds. Requires exclusive access (no concurrent
  /// estimates). Default: throws std::logic_error.
  virtual double ApplyInsert(const std::string& table_name,
                             size_t first_new_row);

  /// Folds a tail deletion into the statistics: the underlying table has
  /// already been truncated to `first_deleted_row` rows (Table::Truncate).
  /// Returns the update wall time in seconds. Requires exclusive access (no
  /// concurrent estimates). Default: throws std::logic_error.
  virtual double ApplyDelete(const std::string& table_name,
                             size_t first_deleted_row);

  /// Monotonically increasing statistics epoch: 0 after training, bumped by
  /// every successful ApplyInsert/ApplyDelete. Thread-safe (atomic read).
  /// This is the estimator's own changelog (for tests, monitoring, and
  /// callers correlating model versions); it does NOT substitute for
  /// EstimatorService::NotifyUpdate, which drives cache invalidation.
  uint64_t StatsVersion() const {
    return stats_version_.load(std::memory_order_acquire);
  }

 protected:
  /// Called by implementations at the end of every successful update.
  void BumpStatsVersion() {
    stats_version_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  std::atomic<uint64_t> stats_version_{0};
};

}  // namespace fj
