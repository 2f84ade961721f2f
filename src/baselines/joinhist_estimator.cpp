#include "baselines/joinhist_estimator.h"

#include <algorithm>
#include <stdexcept>

#include "query/subplan.h"
#include "stats/bayes_net.h"
#include "stats/sampling_estimator.h"
#include "stats/truescan_estimator.h"
#include "util/timer.h"

namespace fj {

JoinHistEstimator::JoinHistEstimator(const Database& db,
                                     JoinHistOptions options)
    : db_(&db), options_(options) {
  WallTimer timer;
  std::vector<KeyGroup> groups = db.EquivalentKeyGroups();
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const ColumnRef& ref : groups[g].members) {
      column_to_group_[ref] = static_cast<int>(g);
    }
    std::vector<const Column*> cols;
    for (const ColumnRef& ref : groups[g].members) {
      cols.push_back(&db.GetTable(ref.table).Col(ref.column));
    }
    group_binnings_.push_back(
        BuildBinning(options_.binning, cols, options_.num_bins));
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const ColumnRef& ref : groups[g].members) {
      bin_stats_.emplace(ref,
                         ColumnBinStats(db.GetTable(ref.table).Col(ref.column),
                                        group_binnings_[g]));
    }
  }
  selectivity_ = std::make_unique<PostgresEstimator>(db);
  if (options_.use_conditional) {
    for (const std::string& name : db.TableNames()) {
      const Table& table = db.GetTable(name);
      switch (options_.conditional_estimator) {
        case TableEstimatorKind::kSampling:
          conditional_[name] = std::make_unique<SamplingEstimator>(
              table, options_.sampling_rate);
          break;
        case TableEstimatorKind::kTrueScan:
          conditional_[name] = std::make_unique<TrueScanEstimator>(table);
          break;
        case TableEstimatorKind::kBayesNet: {
          std::unordered_map<std::string, const Binning*> key_binnings;
          for (const auto& [ref, gid] : column_to_group_) {
            if (ref.table == name) {
              key_binnings[ref.column] =
                  &group_binnings_[static_cast<size_t>(gid)];
            }
          }
          conditional_[name] = std::make_unique<BayesNetEstimator>(
              table, std::move(key_binnings));
          break;
        }
      }
    }
  }
  train_seconds_ = timer.Seconds();
}

std::string JoinHistEstimator::Name() const {
  std::string name = "joinhist";
  if (options_.use_mfv_bound) name += "+bound";
  if (options_.use_conditional) name += "+conditional";
  return name;
}

JoinHistEstimator::HistFactor JoinHistEstimator::MakeLeaf(
    const Query& query, size_t alias_idx,
    const std::vector<QueryKeyGroup>& groups) const {
  const TableRef& ref = query.tables()[alias_idx];
  HistFactor f;
  f.alias_mask = uint64_t{1} << alias_idx;

  // Member key columns of this alias per query key group.
  struct Key {
    int group;
    ColumnRef cref;
    const Binning* binning;
  };
  std::vector<Key> keys;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const AliasColumn& m : groups[g].members) {
      if (m.alias != ref.alias) continue;
      ColumnRef cref{ref.table, m.column};
      auto it = column_to_group_.find(cref);
      if (it == column_to_group_.end()) {
        throw std::logic_error("join key not declared in schema: " +
                               cref.ToString());
      }
      keys.push_back({static_cast<int>(g), cref,
                      &group_binnings_[static_cast<size_t>(it->second)]});
    }
  }

  double rows = static_cast<double>(db_->GetTable(ref.table).num_rows());
  double sel = selectivity_->FilterSelectivity(query, ref.alias);
  f.card = std::max(rows * sel, 0.0);

  if (options_.use_conditional) {
    const TableEstimator& est = *conditional_.at(ref.table);
    std::vector<KeyDistRequest> requests;
    for (const Key& k : keys) requests.push_back({k.cref.column, k.binning});
    KeyDistResult dists = est.EstimateKeyDists(*query.FilterFor(ref.alias),
                                               requests);
    f.card = std::max(dists.filtered_rows, 0.0);
    for (size_t i = 0; i < keys.size(); ++i) {
      const ColumnBinStats& stats = bin_stats_.at(keys[i].cref);
      uint32_t bins = keys[i].binning->num_bins();
      std::vector<double> count(bins), ndv(bins), mfv(bins);
      for (uint32_t b = 0; b < bins; ++b) {
        count[b] = std::min(dists.masses[i][b],
                            static_cast<double>(stats.TotalCount(b)));
        ndv[b] = static_cast<double>(std::max<uint64_t>(stats.DistinctCount(b), 1));
        mfv[b] = static_cast<double>(std::max<uint64_t>(stats.MfvCount(b), 1));
      }
      f.count[keys[i].group] = std::move(count);
      f.ndv[keys[i].group] = std::move(ndv);
      f.mfv[keys[i].group] = std::move(mfv);
    }
  } else {
    // Attribute independence: scale the unconditioned per-bin counts by the
    // filter selectivity.
    for (const Key& k : keys) {
      const ColumnBinStats& stats = bin_stats_.at(k.cref);
      uint32_t bins = k.binning->num_bins();
      std::vector<double> count(bins), ndv(bins), mfv(bins);
      for (uint32_t b = 0; b < bins; ++b) {
        count[b] = static_cast<double>(stats.TotalCount(b)) * sel;
        ndv[b] = static_cast<double>(std::max<uint64_t>(stats.DistinctCount(b), 1));
        mfv[b] = static_cast<double>(std::max<uint64_t>(stats.MfvCount(b), 1));
      }
      f.count[k.group] = std::move(count);
      f.ndv[k.group] = std::move(ndv);
      f.mfv[k.group] = std::move(mfv);
    }
  }
  return f;
}

JoinHistEstimator::HistFactor JoinHistEstimator::JoinStep(
    const HistFactor& left, const HistFactor& right,
    const std::vector<int>& connecting) const {
  if (connecting.empty()) {
    throw std::invalid_argument("JoinHist: no connecting key group");
  }
  // Per-bin join size for the (first) connecting group; additional equality
  // conditions are ignored (classical join histograms handle one condition
  // per join step).
  int g = connecting.front();
  const auto& lc = left.count.at(g);
  const auto& rc = right.count.at(g);
  const auto& ln = left.ndv.at(g);
  const auto& rn = right.ndv.at(g);
  const auto& lm = left.mfv.at(g);
  const auto& rm = right.mfv.at(g);
  size_t bins = std::min(lc.size(), rc.size());

  HistFactor out;
  out.alias_mask = left.alias_mask | right.alias_mask;
  std::vector<double> jcount(bins), jndv(bins), jmfv(bins);
  double total = 0.0;
  for (size_t b = 0; b < bins; ++b) {
    double size;
    if (options_.use_mfv_bound) {
      size = (lc[b] <= 0.0 || rc[b] <= 0.0)
                 ? 0.0
                 : std::min(lc[b] * rm[b], rc[b] * lm[b]);
    } else {
      // In-bin uniformity: n_A * n_B / max(ndv_A, ndv_B).
      size = lc[b] * rc[b] / std::max(std::max(ln[b], rn[b]), 1.0);
    }
    jcount[b] = size;
    jndv[b] = std::min(ln[b], rn[b]);
    jmfv[b] = lm[b] * rm[b];
    total += size;
  }
  out.card = std::min(total, std::max(left.card, 0.0) * std::max(right.card, 0.0));
  out.count[g] = std::move(jcount);
  out.ndv[g] = std::move(jndv);
  out.mfv[g] = std::move(jmfv);

  // Carry the other groups, rescaled to the new cardinality.
  auto carry = [&](const HistFactor& src, double old_card) {
    for (const auto& [gid, count] : src.count) {
      if (out.count.count(gid) > 0) continue;
      std::vector<double> scaled = count;
      if (old_card > 0.0) {
        double factor = out.card / old_card;
        for (double& c : scaled) c *= factor;
      }
      out.count[gid] = std::move(scaled);
      out.ndv[gid] = src.ndv.at(gid);
      std::vector<double> mfv = src.mfv.at(gid);
      double dup = 1.0;
      for (double m : (&src == &left ? rm : lm)) dup = std::max(dup, m);
      for (double& m : mfv) m *= dup;
      out.mfv[gid] = std::move(mfv);
    }
  };
  carry(left, left.card);
  carry(right, right.card);
  return out;
}

double JoinHistEstimator::Estimate(const Query& query) const {
  if (query.NumTables() == 0) return 0.0;
  std::vector<QueryKeyGroup> groups = query.KeyGroups();
  std::vector<HistFactor> leaves;
  for (size_t i = 0; i < query.NumTables(); ++i) {
    leaves.push_back(MakeLeaf(query, i, groups));
  }
  if (query.NumTables() == 1) return std::max(leaves[0].card, 1.0);

  std::vector<double> cards;
  cards.reserve(leaves.size());
  for (const HistFactor& leaf : leaves) cards.push_back(leaf.card);
  std::vector<size_t> order = GreedyJoinOrder(cards, query.AliasAdjacency());
  HistFactor current = std::move(leaves[order[0]]);
  for (size_t i = 1; i < order.size(); ++i) {
    const HistFactor& next = leaves[order[i]];
    std::vector<int> connecting;
    for (const auto& [gid, _] : next.count) {
      if (current.count.count(gid) > 0) connecting.push_back(gid);
    }
    current = JoinStep(current, next, connecting);
  }
  return std::max(current.card, 1.0);
}

size_t JoinHistEstimator::ModelSizeBytes() const {
  size_t bytes = selectivity_->ModelSizeBytes();
  for (const auto& b : group_binnings_) bytes += b.MemoryBytes();
  for (const auto& [ref, stats] : bin_stats_) bytes += stats.MemoryBytes();
  for (const auto& [name, est] : conditional_) bytes += est->MemoryBytes();
  return bytes;
}

}  // namespace fj
