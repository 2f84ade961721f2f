#include "baselines/ublock_estimator.h"

#include <algorithm>

#include "factorjoin/binning.h"
#include "query/subplan.h"
#include "util/timer.h"

namespace fj {

UBlockEstimator::UBlockEstimator(const Database& db, UBlockOptions options)
    : db_(&db), options_(options) {
  WallTimer timer;
  std::vector<KeyGroup> groups = db.EquivalentKeyGroups();
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const ColumnRef& ref : groups[g].members) {
      column_to_group_[ref] = static_cast<int>(g);
      const Column& col = db.GetTable(ref.table).Col(ref.column);
      auto counts = ValueCounts(col);
      std::vector<std::pair<uint64_t, int64_t>> by_count;
      by_count.reserve(counts.size());
      for (const auto& [v, c] : counts) by_count.emplace_back(c, v);
      std::sort(by_count.rbegin(), by_count.rend());
      TopKStats s;
      for (size_t i = 0; i < by_count.size(); ++i) {
        if (i < options_.top_k) {
          s.top[by_count[i].second] = static_cast<double>(by_count[i].first);
        } else {
          s.rest_count += static_cast<double>(by_count[i].first);
          s.rest_max = std::max(s.rest_max,
                                static_cast<double>(by_count[i].first));
        }
      }
      stats_.emplace(ref, std::move(s));
    }
  }
  selectivity_ = std::make_unique<PostgresEstimator>(db);
  train_seconds_ = timer.Seconds();
}

double UBlockEstimator::MaxDegree(const TopKStats& s) {
  double m = s.rest_max;
  for (const auto& [v, c] : s.top) m = std::max(m, c);
  return std::max(m, 1.0);
}

double UBlockEstimator::PairBound(const TopKStats& a, const TopKStats& b) {
  // Top values of `a` join exactly-known or rest-bounded counts of `b`;
  // everything outside a's top is bounded by b's global max degree.
  double bound = 0.0;
  for (const auto& [v, ca] : a.top) {
    auto it = b.top.find(v);
    double cb = it != b.top.end() ? it->second : b.rest_max;
    bound += ca * cb;
  }
  bound += a.rest_count * MaxDegree(b);
  return bound;
}

UBlockEstimator::UFactor UBlockEstimator::MakeLeaf(
    const Query& query, size_t alias_idx,
    const std::vector<QueryKeyGroup>& groups) const {
  const TableRef& ref = query.tables()[alias_idx];
  UFactor f;
  f.alias_mask = uint64_t{1} << alias_idx;
  double rows = static_cast<double>(db_->GetTable(ref.table).num_rows());
  double sel = selectivity_->FilterSelectivity(query, ref.alias);
  f.card = std::max(rows * sel, 0.0);

  for (size_t g = 0; g < groups.size(); ++g) {
    for (const AliasColumn& m : groups[g].members) {
      if (m.alias != ref.alias) continue;
      ColumnRef cref{ref.table, m.column};
      auto it = stats_.find(cref);
      if (it == stats_.end()) {
        throw std::logic_error("ublock: join key not in schema: " +
                               cref.ToString());
      }
      // Filters scale the masses (independence) but cannot raise degrees, so
      // the per-value counts stay as offline upper bounds.
      TopKStats s = it->second;
      s.rest_count *= sel;
      f.groups[static_cast<int>(g)] = std::move(s);
    }
  }
  return f;
}

UBlockEstimator::UFactor UBlockEstimator::JoinStep(
    const UFactor& left, const UFactor& right,
    const std::vector<int>& connecting) const {
  if (connecting.empty()) {
    throw std::invalid_argument("ublock: no connecting key group");
  }
  // Tightest bound over the connecting groups.
  int best_group = connecting.front();
  double best = -1.0;
  for (int g : connecting) {
    double b = std::min(PairBound(left.groups.at(g), right.groups.at(g)),
                        PairBound(right.groups.at(g), left.groups.at(g)));
    if (best < 0.0 || b < best) {
      best = b;
      best_group = g;
    }
  }
  UFactor out;
  out.alias_mask = left.alias_mask | right.alias_mask;
  out.card = std::min(best, std::max(left.card, 0.0) * std::max(right.card, 0.0));

  const TopKStats& gl = left.groups.at(best_group);
  const TopKStats& gr = right.groups.at(best_group);
  // Joined group's top list: per-value products where both sides are known.
  TopKStats joined;
  double top_sum = 0.0;
  for (const auto& [v, ca] : gl.top) {
    auto it = gr.top.find(v);
    double cb = it != gr.top.end() ? it->second : gr.rest_max;
    joined.top[v] = ca * cb;
    top_sum += ca * cb;
  }
  joined.rest_count = std::max(out.card - top_sum, 0.0);
  joined.rest_max = gl.rest_max * MaxDegree(gr);
  out.groups[best_group] = std::move(joined);

  // Carry other groups, scaled, with degree bounds multiplied by the other
  // side's maximal duplication.
  auto carry = [&](const UFactor& src, double other_dup) {
    for (const auto& [gid, s] : src.groups) {
      if (out.groups.count(gid) > 0) continue;
      TopKStats c = s;
      double f = src.card > 0.0 ? out.card / src.card : 0.0;
      for (auto& [v, cnt] : c.top) cnt *= other_dup;
      c.rest_count *= f;
      c.rest_max *= other_dup;
      out.groups[gid] = std::move(c);
    }
  };
  carry(left, MaxDegree(gr));
  carry(right, MaxDegree(gl));
  return out;
}

double UBlockEstimator::Estimate(const Query& query) const {
  if (query.NumTables() == 0) return 0.0;
  std::vector<QueryKeyGroup> groups = query.KeyGroups();
  std::vector<UFactor> leaves;
  for (size_t i = 0; i < query.NumTables(); ++i) {
    leaves.push_back(MakeLeaf(query, i, groups));
  }
  if (query.NumTables() == 1) return std::max(leaves[0].card, 1.0);

  // Equal keys make the greedy order join the lowest-index connected alias
  // next, starting from alias 0.
  std::vector<size_t> order = GreedyJoinOrder(
      std::vector<double>(leaves.size(), 0.0), query.AliasAdjacency());
  UFactor current = leaves[order[0]];
  for (size_t i = 1; i < order.size(); ++i) {
    const UFactor& next = leaves[order[i]];
    std::vector<int> connecting;
    for (const auto& [gid, s] : next.groups) {
      if (current.groups.count(gid) > 0) connecting.push_back(gid);
    }
    current = JoinStep(current, next, connecting);
  }
  return std::max(current.card, 1.0);
}

size_t UBlockEstimator::ModelSizeBytes() const {
  size_t bytes = selectivity_->ModelSizeBytes();
  for (const auto& [ref, s] : stats_) {
    bytes += s.top.size() * (sizeof(int64_t) + sizeof(double) + sizeof(void*)) +
             2 * sizeof(double);
  }
  return bytes;
}

}  // namespace fj
