// Tree-structured Bayesian-network single-table estimator (BayesCard-like,
// Sections 3.3 / 5.1): Chow-Liu structure over all columns, CPTs with Laplace
// smoothing, soft-evidence belief propagation for conditional join-key
// distributions.
//
// Join-key columns are discretized by their equivalence group's shared
// Binning so the BN's marginals are directly the binned distributions
// FactorJoin's factor graph consumes. Non-conjunctive filters and string
// pattern predicates fall back to an embedded sample (the paper's BayesCard
// likewise does not support those classes).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats/chow_liu.h"
#include "stats/discretizer.h"
#include "stats/sampling_estimator.h"
#include "stats/table_estimator.h"

namespace fj {

struct BayesNetOptions {
  uint32_t max_categories = 64;     // auto-discretization width
  double laplace_alpha = 0.1;       // CPT smoothing
  double fallback_sample_rate = 0.05;
  uint64_t seed = 7;
};

class BayesNetEstimator : public TableEstimator {
 public:
  /// `key_binnings`: join-key column name → shared group binning (not owned).
  BayesNetEstimator(const Table& table,
                    std::unordered_map<std::string, const Binning*> key_binnings,
                    BayesNetOptions options = {});

  /// Snapshot-loading path: binds to `table` and the shared group binnings
  /// without training — Load() must run before any estimate. The
  /// `key_binnings` map must cover the same join-key columns the saved
  /// estimator was trained with (Load validates).
  static std::unique_ptr<BayesNetEstimator> MakeUntrained(
      const Table& table,
      std::unordered_map<std::string, const Binning*> key_binnings);

  KeyDistResult EstimateKeyDists(
      const Predicate& filter,
      const std::vector<KeyDistRequest>& keys) const override;

  /// Full retrain on the (possibly changed) table.
  void Refresh(const Table& table) override;

  /// Incremental update (Section 4.3): folds rows [first_new_row, num_rows)
  /// into the CPT counts without relearning the tree structure.
  void IncrementalUpdate(const Table& table, size_t first_new_row);

  /// Serializes the learned structure, CPTs (counts AND normalized tables,
  /// both bit-exact), per-node discretizers, and the sampling fallback.
  /// The inference caches and no-evidence memos are NOT written: Load
  /// recomputes them from the loaded CPTs with the same deterministic
  /// loops, reproducing the trained doubles bit for bit.
  void Save(ByteWriter& w) const override;
  void Load(ByteReader& r) override;

  size_t MemoryBytes() const override;
  std::string Name() const override { return "bayescard"; }

  const ChowLiuTree& tree() const { return tree_; }
  double train_seconds() const { return train_seconds_; }

 private:
  struct UntrainedTag {};
  BayesNetEstimator(const Table& table,
                    std::unordered_map<std::string, const Binning*> key_binnings,
                    UntrainedTag);

  struct Node {
    std::string column;
    Discretizer discretizer;
    uint32_t cards = 0;
    // Raw counts: root prior counts, or joint counts with the parent
    // (row-major parent_card x card). Normalized on demand into `cpt`.
    std::vector<double> counts;
    std::vector<double> cpt;
  };

  void Train();
  void NormalizeCpts();
  /// Rebuilds the inference-structure caches below (pure functions of the
  /// learned tree and node cardinalities). Called at the end of Train();
  /// IncrementalUpdate keeps structure fixed, so the caches stay valid.
  void RebuildInferenceCaches();

  /// Per-node soft evidence from a conjunctive filter, flattened into one
  /// buffer of total_cards_ doubles (node v's slice starts at
  /// card_offset_[v]), plus a per-node flag marking which nodes the filter
  /// actually constrained; nullopt if the filter needs the sampling
  /// fallback.
  struct Evidence {
    std::vector<double> weights;   // flat, card_offset_ slices
    std::vector<uint8_t> touched;  // 1 iff some filter leaf hit the node
  };
  std::optional<Evidence> BuildEvidence(const Predicate& filter) const;

  /// Belief propagation: returns per-node unnormalized beliefs
  /// beliefs[card_offset_[v] + i] = P(v = i, evidence within v's tree
  /// component) and the per-component probability of evidence Z (aligned by
  /// component root).
  ///
  /// Bit-exact partial evaluation: messages, lambdas and beliefs of
  /// subtrees the filter does not touch are independent of the evidence, so
  /// they are precomputed once per training (msg0_/lambda0_/beliefs0_ —
  /// produced by the very same loops) and copied instead of recomputed.
  /// Only the touched "spine" of each tree component pays the CPT inner
  /// products; the produced doubles are identical to a full propagation.
  struct Beliefs {
    std::vector<double> beliefs;      // flat, card_offset_ slices
    std::vector<double> component_z;  // indexed by node: z of its component
    double total_z = 1.0;             // product over components
  };
  /// `target_nodes`, when non-null, lists the node ids whose beliefs the
  /// caller will read: the downward pass then visits only those nodes'
  /// ancestor chains (plus every component root, for Z) and leaves other
  /// belief slices zero — the values it does produce are bit-identical to a
  /// full pass, the skipped ones are simply never read.
  Beliefs Propagate(const Evidence& evidence,
                    const std::vector<size_t>* target_nodes = nullptr) const;

  /// Shared body of Propagate and the train-time no-evidence run:
  /// `subtree_touched` gates the memo shortcuts (all-ones disables them),
  /// `need_belief` gates the downward pass (nullptr computes everything);
  /// `lambda`/`msg_up` are caller-allocated flat scratch, returned filled so
  /// the train-time run can turn them into the memos.
  Beliefs PropagateImpl(const std::vector<double>& evidence,
                        const std::vector<uint8_t>& subtree_touched,
                        const std::vector<uint8_t>* need_belief,
                        std::vector<double>& lambda,
                        std::vector<double>& msg_up) const;

  const Table* table_;  // not owned
  std::unordered_map<std::string, const Binning*> key_binnings_;
  BayesNetOptions options_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, size_t> column_to_node_;
  ChowLiuTree tree_;
  std::unique_ptr<SamplingEstimator> fallback_;
  double train_seconds_ = 0.0;

  // Inference-structure caches (see RebuildInferenceCaches): the tree
  // traversal orders and flat-buffer offsets Propagate needs, precomputed
  // once instead of re-derived on every estimated leaf.
  std::vector<std::vector<int>> children_;
  std::vector<int> order_;           // parents precede children
  std::vector<int> component_root_;  // root node of v's tree component
  std::vector<size_t> card_offset_;  // start of v's slice in flat buffers
  std::vector<size_t> msg_offset_;   // start of v's parent-sized msg slice
  size_t total_cards_ = 0;
  size_t total_msg_ = 0;

  // No-evidence memos (bit-exact partial evaluation, see Propagate):
  // the lambda/message/belief state of a propagation run with all-ones
  // evidence. Rebuilt whenever the CPTs change (Train/IncrementalUpdate).
  std::vector<double> lambda0_;
  std::vector<double> msg0_;
  Beliefs beliefs0_;
};

}  // namespace fj
