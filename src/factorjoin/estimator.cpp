#include "factorjoin/estimator.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "factorjoin/kernels.h"
#include "query/subplan.h"
#include "stats/sampling_estimator.h"
#include "stats/truescan_estimator.h"
#include "util/bytes.h"
#include "util/timer.h"

namespace fj {
namespace {

// Counts how often each global key group is exercised by a workload: a query
// contributes to a group when any of its join conditions equates members of
// that group (Section 4.2).
std::vector<uint64_t> GroupFrequencies(
    const std::vector<Query>& workload,
    const std::unordered_map<ColumnRef, int, ColumnRefHash>& column_to_group,
    size_t num_groups) {
  std::vector<uint64_t> freq(num_groups, 0);
  for (const Query& q : workload) {
    std::vector<bool> seen(num_groups, false);
    for (const auto& join : q.joins()) {
      ColumnRef ref{q.TableOf(join.left.alias), join.left.column};
      auto it = column_to_group.find(ref);
      if (it == column_to_group.end()) continue;
      if (!seen[static_cast<size_t>(it->second)]) {
        seen[static_cast<size_t>(it->second)] = true;
        ++freq[static_cast<size_t>(it->second)];
      }
    }
  }
  return freq;
}

}  // namespace

FactorJoinEstimator::FactorJoinEstimator(const Database& db,
                                         FactorJoinConfig config,
                                         const std::vector<Query>* workload)
    : db_(&db), config_(config) {
  WallTimer timer;

  // 1. Equivalent key groups from the schema.
  std::vector<KeyGroup> groups = db.EquivalentKeyGroups();
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const ColumnRef& ref : groups[g].members) {
      column_to_group_[ref] = static_cast<int>(g);
    }
  }

  // 2. Bin budget per group.
  std::vector<uint32_t> ks(groups.size(), config_.num_bins);
  if (config_.workload_aware_budget && workload != nullptr) {
    uint64_t total_budget =
        static_cast<uint64_t>(config_.num_bins) * groups.size();
    ks = AllocateBinBudget(total_budget,
                           GroupFrequencies(*workload, column_to_group_,
                                            groups.size()));
  }

  // 3. Binning per group + per-column bin summaries.
  group_binnings_.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<const Column*> cols;
    for (const ColumnRef& ref : groups[g].members) {
      cols.push_back(&db.GetTable(ref.table).Col(ref.column));
    }
    group_binnings_.push_back(BuildBinning(config_.binning, cols, ks[g]));
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const ColumnRef& ref : groups[g].members) {
      bin_stats_.emplace(ref,
                         ColumnBinStats(db.GetTable(ref.table).Col(ref.column),
                                        group_binnings_[g]));
    }
  }

  // 4. Single-table estimators.
  for (const std::string& name : db.TableNames()) {
    const Table& table = db.GetTable(name);
    switch (config_.estimator) {
      case TableEstimatorKind::kSampling:
        estimators_[name] = std::make_unique<SamplingEstimator>(
            table, config_.sampling_rate, config_.seed);
        break;
      case TableEstimatorKind::kTrueScan:
        estimators_[name] = std::make_unique<TrueScanEstimator>(table);
        break;
      case TableEstimatorKind::kBayesNet: {
        std::unordered_map<std::string, const Binning*> key_binnings;
        for (const auto& [ref, gid] : column_to_group_) {
          if (ref.table == name) {
            key_binnings[ref.column] =
                &group_binnings_[static_cast<size_t>(gid)];
          }
        }
        estimators_[name] = std::make_unique<BayesNetEstimator>(
            table, std::move(key_binnings), config_.bayes_net);
        break;
      }
    }
  }

  train_seconds_ = timer.Seconds();
}

const Binning* FactorJoinEstimator::BinningFor(const ColumnRef& ref) const {
  auto it = column_to_group_.find(ref);
  if (it == column_to_group_.end()) return nullptr;
  return &group_binnings_[static_cast<size_t>(it->second)];
}

const ColumnBinStats* FactorJoinEstimator::BinStatsFor(
    const ColumnRef& ref) const {
  auto it = bin_stats_.find(ref);
  if (it == bin_stats_.end()) return nullptr;
  return &it->second;
}

int FactorJoinEstimator::GlobalGroupOf(const Query& query,
                                       const QueryKeyGroup& group) const {
  for (const AliasColumn& member : group.members) {
    ColumnRef ref{query.TableOf(member.alias), member.column};
    auto it = column_to_group_.find(ref);
    if (it != column_to_group_.end()) return it->second;
  }
  throw std::logic_error(
      "query join key is not a declared join key in the schema: " +
      group.members.front().ToString());
}

BoundFactor FactorJoinEstimator::MakeLeafFactor(
    const Query& query, size_t alias_idx,
    const std::vector<QueryKeyGroup>& groups, FactorArena* arena) const {
  const TableRef& ref = query.tables()[alias_idx];
  const TableEstimator& est = *estimators_.at(ref.table);

  // Member columns of this alias per query key group.
  struct AliasKey {
    int query_group;
    std::string column;
    const Binning* binning;
    const ColumnBinStats* stats;
  };
  std::vector<AliasKey> keys;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const AliasColumn& member : groups[g].members) {
      if (member.alias != ref.alias) continue;
      int global = GlobalGroupOf(query, groups[g]);
      ColumnRef cref{ref.table, member.column};
      keys.push_back({static_cast<int>(g), member.column,
                      &group_binnings_[static_cast<size_t>(global)],
                      &bin_stats_.at(cref)});
    }
  }

  std::vector<KeyDistRequest> requests;
  requests.reserve(keys.size());
  for (const AliasKey& k : keys) requests.push_back({k.column, k.binning});
  KeyDistResult dists = est.EstimateKeyDists(*query.FilterFor(ref.alias),
                                             requests);

  BoundFactor factor;
  factor.alias_mask = uint64_t{1} << alias_idx;
  factor.card = std::max(dists.filtered_rows, 0.0);
  factor.groups.reserve(keys.size());

  // `keys` is ordered by ascending query_group (outer loop over groups), so
  // appending keeps factor.groups sorted; a repeated group id (two columns
  // of one alias in the same group) always finds its earlier span.
  for (size_t i = 0; i < keys.size(); ++i) {
    const AliasKey& k = keys[i];
    uint32_t bins = k.binning->num_bins();
    double* mass = arena->Alloc(bins);
    const std::vector<double>& src = dists.masses[i];
    size_t copy = std::min<size_t>(src.size(), bins);
    std::copy_n(src.data(), copy, mass);
    std::fill(mass + copy, mass + bins, 0.0);
    double mass_sum = kernels::Sum(mass, bins);
    double* mfv = arena->Alloc(bins);
    // Per-bin finalize against the column's contiguous bin summaries:
    // offline V* (>=1) as the MFV bound; back off to the key's
    // unconditioned shape scaled to the filtered-cardinality estimate when
    // the single-table estimator saw no matching rows (tiny sample +
    // selective filter); clamp each bin's mass by its exact total count
    // (tightens sampling noise without hurting validity).
    kernels::LeafFinalize(mass, mfv, k.stats->totals().data(),
                          k.stats->mfvs().data(), bins, mass_sum, factor.card,
                          k.stats->total_rows());
    GroupSpan span{k.query_group, bins, mass, mfv};
    GroupSpan* existing = factor.FindGroup(k.query_group);
    if (existing == nullptr) {
      factor.groups.push_back(span);
    } else {
      // Two columns of the same alias in one group (intra-alias equality):
      // keep the elementwise minimum, a valid bound for the conjunction.
      existing->MinWith(span);
    }
  }
  // Leaf spans never change within a request: memoize once, after merges.
  for (GroupSpan& g : factor.groups) g.Memoize();
  return factor;
}

FactorJoinEstimator::Leaves FactorJoinEstimator::MakeLeaves(
    const Query& query, FactorArena* arena) const {
  std::vector<QueryKeyGroup> groups = query.KeyGroups();
  Leaves leaves;
  leaves.factors.reserve(query.NumTables());
  for (size_t i = 0; i < query.NumTables(); ++i) {
    leaves.factors.push_back(MakeLeafFactor(query, i, groups, arena));
  }
  leaves.adj = query.AliasAdjacency();
  leaves.group_masks = KeyGroupAliasMasks(query, groups);
  return leaves;
}

namespace {

/// Mask -> factor memo of one decomposition: an open-addressing table
/// (linear probing, power-of-two capacity, Fibonacci hashing) over masks of
/// two or more aliases, so mask 0 marks an empty slot. A value indexes the
/// call's factor vector, or is kUndecomposable.
class FactorMemo {
 public:
  static constexpr uint32_t kUndecomposable = ~uint32_t{0};
  static constexpr uint32_t kAbsent = kUndecomposable - 1;

  /// Sized for `expected` entries; grows past them (a sparse mask set can
  /// need more on-demand ancestors than it has masks).
  explicit FactorMemo(size_t expected) {
    size_t capacity = 16;
    while (capacity * 3 < expected * 4) capacity *= 2;
    Rehash(capacity);
  }

  /// The value stored for `mask`, or kAbsent.
  uint32_t Find(uint64_t mask) const {
    for (size_t i = Home(mask);; i = (i + 1) & (entries_.size() - 1)) {
      if (entries_[i].mask == mask) return entries_[i].value;
      if (entries_[i].mask == 0) return kAbsent;
    }
  }

  /// Stores a mask that Find reported absent. Keeps the load <= 3/4.
  void Insert(uint64_t mask, uint32_t value) {
    if ((size_ + 1) * 4 > entries_.size() * 3) Rehash(entries_.size() * 2);
    Place(mask, value);
    ++size_;
  }

 private:
  struct Entry {
    uint64_t mask = 0;
    uint32_t value = 0;
  };

  size_t Home(uint64_t mask) const {
    return static_cast<size_t>((mask * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Place(uint64_t mask, uint32_t value) {
    size_t i = Home(mask);
    while (entries_[i].mask != 0) i = (i + 1) & (entries_.size() - 1);
    entries_[i] = {mask, value};
  }

  void Rehash(size_t capacity) {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(capacity, Entry{});
    shift_ = 64 - std::countr_zero(capacity);
    for (const Entry& e : old) {
      if (e.mask != 0) Place(e.mask, e.value);
    }
  }

  std::vector<Entry> entries_;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace

/// The one batch path: the leaves (and their arena) live as long as the
/// session; every EstimateSubplans call runs the canonical decomposition
/// against them with a private join arena, so concurrent chunked calls
/// never touch shared mutable state.
class FactorJoinEstimator::Session : public CardinalityEstimator::SubplanSession {
 public:
  Session(const FactorJoinEstimator* owner, Query query)
      : owner_(owner),
        query_(std::move(query)),
        leaves_(owner_->MakeLeaves(query_, &arena_)) {}

  std::unordered_map<uint64_t, double> EstimateSubplans(
      const std::vector<uint64_t>& masks) const override;

 private:
  const FactorJoinEstimator* owner_;  // not owned; must outlive the session
  Query query_;
  FactorArena arena_;  // owns the leaves' per-bin arrays
  Leaves leaves_;
};

std::unordered_map<uint64_t, double>
FactorJoinEstimator::Session::EstimateSubplans(
    const std::vector<uint64_t>& masks) const {
  // Joined factors are span headers over the call's own arena, held by
  // value. A pointer into `factors` stays valid until the next factor is
  // stored.
  FactorArena arena;
  std::vector<BoundFactor> factors;
  factors.reserve(masks.size());
  FactorMemo memo(masks.size());

  // Canonical decomposition, independent of which masks were requested: the
  // factor for a mask splits off the lowest-bit alias whose removal keeps
  // the remainder connected (computing that remainder recursively). A mask's
  // bound is therefore a function of (query, mask) alone — the serving
  // layer's cache can recompute an invalidated subset of a batch, and the
  // batch splitter can chunk one mask set across workers, both still
  // producing values bit-identical to a full-batch run.
  std::vector<int> connecting;  // reused across join steps
  auto factor_of = [&](auto&& self, uint64_t mask) -> const BoundFactor* {
    if (std::has_single_bit(mask)) {
      return &leaves_.factors[static_cast<size_t>(std::countr_zero(mask))];
    }
    if (mask == 0) return nullptr;
    uint32_t slot = memo.Find(mask);
    if (slot == FactorMemo::kUndecomposable) return nullptr;
    if (slot != FactorMemo::kAbsent) return &factors[slot];
    uint64_t m = mask;
    while (m != 0) {
      size_t a = static_cast<size_t>(std::countr_zero(m));
      m &= m - 1;
      uint64_t rest = mask & ~(uint64_t{1} << a);
      if ((leaves_.adj[a] & rest) == 0) continue;
      if (!ConnectedAliasMask(rest, leaves_.adj)) continue;
      const BoundFactor* rf = self(self, rest);
      if (rf == nullptr) continue;
      // Connecting query key groups: groups with bound state on both sides.
      const BoundFactor& leaf = leaves_.factors[a];
      connecting.clear();
      for (const GroupSpan& g : leaf.groups) {
        if (rf->FindGroup(g.gid) != nullptr) connecting.push_back(g.gid);
      }
      if (connecting.empty()) continue;
      BoundFactor joined = JoinBoundFactors(*rf, leaf, connecting,
                                            leaves_.group_masks, &arena);
      memo.Insert(mask, static_cast<uint32_t>(factors.size()));
      factors.push_back(std::move(joined));
      return &factors.back();
    }
    memo.Insert(mask, FactorMemo::kUndecomposable);
    return nullptr;
  };

  uint64_t all = query_.NumTables() >= 64
                     ? ~uint64_t{0}
                     : (uint64_t{1} << query_.NumTables()) - 1;
  std::unordered_map<uint64_t, double> out;
  out.reserve(masks.size());
  for (uint64_t mask : masks) {
    if ((mask & ~all) != 0) {
      throw std::out_of_range(
          "FactorJoin::EstimateSubplans: mask has bits past the query's "
          "alias count");
    }
    const BoundFactor* factor = factor_of(factor_of, mask);
    if (factor == nullptr) {
      // No pairwise decomposition (e.g. a disconnected requested mask):
      // estimate this mask standalone.
      out[mask] = owner_->Estimate(query_.InducedSubquery(mask));
      continue;
    }
    // Floor at one tuple: a zero bound reflects estimator blind spots (e.g.
    // sparse samples), not proven emptiness. Single aliases report their
    // filtered cardinality unfloored, as before.
    out[mask] = std::popcount(mask) == 1 ? factor->card
                                         : std::max(factor->card, 1.0);
  }
  return out;
}

std::unique_ptr<CardinalityEstimator::SubplanSession>
FactorJoinEstimator::PrepareSubplans(const Query& query) const {
  return std::make_unique<Session>(this, query);
}

double FactorJoinEstimator::Estimate(const Query& query) const {
  if (query.NumTables() == 0) return 0.0;
  if (query.NumTables() == 1) {
    const TableRef& ref = query.tables()[0];
    return estimators_.at(ref.table)
        ->EstimateFilteredRows(*query.FilterFor(ref.alias));
  }
  FactorArena arena;
  Leaves prepared = MakeLeaves(query, &arena);
  const std::vector<BoundFactor>& leaves = prepared.factors;
  std::vector<double> cards;
  cards.reserve(leaves.size());
  for (const BoundFactor& leaf : leaves) cards.push_back(leaf.card);

  // Greedy left-deep accumulation starting from the smallest leaf.
  std::vector<size_t> order = GreedyJoinOrder(cards, prepared.adj);
  BoundFactor current = leaves[order[0]];
  std::vector<int> connecting;
  for (size_t i = 1; i < order.size(); ++i) {
    const BoundFactor& next = leaves[order[i]];
    connecting.clear();
    for (const GroupSpan& g : next.groups) {
      if (current.FindGroup(g.gid) != nullptr) connecting.push_back(g.gid);
    }
    current = JoinBoundFactors(current, next, connecting, prepared.group_masks,
                               &arena);
  }
  return std::max(current.card, 1.0);
}

double FactorJoinEstimator::ApplyInsert(const std::string& table_name,
                                        size_t first_new_row) {
  WallTimer timer;
  const Table& table = db_->GetTable(table_name);
  if (first_new_row > table.num_rows()) {
    throw std::invalid_argument(
        "FactorJoin::ApplyInsert: first_new_row is past the end of " +
        table_name + " — rows must be appended before the call");
  }

  // Update bin summaries of this table's join-key columns.
  for (auto& [ref, stats] : bin_stats_) {
    if (ref.table != table_name) continue;
    const Column& col = table.Col(ref.column);
    std::vector<int64_t> new_values(col.ints().begin() + static_cast<long>(first_new_row),
                                    col.ints().end());
    stats.InsertValues(new_values,
                       group_binnings_[static_cast<size_t>(
                           column_to_group_.at(ref))]);
  }

  // Update the single-table model.
  TableEstimator* est = estimators_.at(table_name).get();
  if (auto* bn = dynamic_cast<BayesNetEstimator*>(est)) {
    bn->IncrementalUpdate(table, first_new_row);
  } else {
    est->Refresh(table);
  }
  BumpStatsVersion();
  return timer.Seconds();
}

double FactorJoinEstimator::ApplyDelete(const std::string& table_name,
                                        size_t first_deleted_row) {
  WallTimer timer;
  const Table& table = db_->GetTable(table_name);
  if (table.num_rows() > first_deleted_row) {
    throw std::invalid_argument(
        "FactorJoin::ApplyDelete: table must already be truncated to "
        "first_deleted_row rows (see Table::Truncate)");
  }

  // Rebuild this table's per-bin summaries from the retained rows: exact
  // (MFV/NDV per bin do not drift), table-local, and still no rebinning —
  // the group binnings stay fixed exactly as for inserts.
  for (auto& [ref, stats] : bin_stats_) {
    if (ref.table != table_name) continue;
    stats = ColumnBinStats(table.Col(ref.column),
                           group_binnings_[static_cast<size_t>(
                               column_to_group_.at(ref))]);
  }

  // Refresh the single-table model on the truncated table.
  estimators_.at(table_name)->Refresh(table);
  BumpStatsVersion();
  return timer.Seconds();
}

std::unique_ptr<FactorJoinEstimator> FactorJoinEstimator::MakeUntrained(
    const Database& db) {
  return std::unique_ptr<FactorJoinEstimator>(
      new FactorJoinEstimator(db, UntrainedTag{}));
}

void FactorJoinEstimator::Save(ByteWriter& w) const {
  w.U32(config_.num_bins);
  w.U8(static_cast<uint8_t>(config_.binning));
  w.U8(static_cast<uint8_t>(config_.estimator));
  w.F64(config_.sampling_rate);
  w.U8(config_.workload_aware_budget ? 1 : 0);
  w.U32(config_.bayes_net.max_categories);
  w.F64(config_.bayes_net.laplace_alpha);
  w.F64(config_.bayes_net.fallback_sample_rate);
  w.U64(config_.bayes_net.seed);
  w.U64(config_.seed);
  w.F64(train_seconds_);

  w.U32(static_cast<uint32_t>(group_binnings_.size()));
  for (const Binning& b : group_binnings_) b.Save(w);

  auto groups = SortedEntries(column_to_group_);
  w.U32(static_cast<uint32_t>(groups.size()));
  for (const auto* entry : groups) {
    w.Str(entry->first.table);
    w.Str(entry->first.column);
    w.I64(entry->second);
  }

  auto stats = SortedEntries(bin_stats_);
  w.U32(static_cast<uint32_t>(stats.size()));
  for (const auto* entry : stats) {
    w.Str(entry->first.table);
    w.Str(entry->first.column);
    entry->second.Save(w);
  }

  auto estimators = SortedEntries(estimators_);
  w.U32(static_cast<uint32_t>(estimators.size()));
  for (const auto* entry : estimators) {
    w.Str(entry->first);
    w.Str(entry->second->Name());
    entry->second->Save(w);
  }
}

void FactorJoinEstimator::Load(ByteReader& r) {
  // On any throw below the estimator is left partially loaded and must be
  // discarded — the snapshot container always loads into a freshly made
  // untrained instance, so nothing trained is ever corrupted.
  config_.num_bins = r.U32();
  uint8_t binning = r.U8();
  if (binning > static_cast<uint8_t>(BinningStrategy::kGbsa)) {
    throw SerializeError("unknown binning strategy in snapshot");
  }
  config_.binning = static_cast<BinningStrategy>(binning);
  uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(TableEstimatorKind::kTrueScan)) {
    throw SerializeError("unknown table-estimator kind in snapshot");
  }
  config_.estimator = static_cast<TableEstimatorKind>(kind);
  config_.sampling_rate = r.F64();
  config_.workload_aware_budget = r.U8() != 0;
  config_.bayes_net.max_categories = r.U32();
  config_.bayes_net.laplace_alpha = r.F64();
  config_.bayes_net.fallback_sample_rate = r.F64();
  config_.bayes_net.seed = r.U64();
  config_.seed = r.U64();
  train_seconds_ = r.F64();

  // Minimal encoded Binning: flag + num_bins + overflow + two zero counts.
  uint32_t n_groups = r.CountU32(1 + 4 * sizeof(uint32_t));
  group_binnings_.clear();
  group_binnings_.reserve(n_groups);
  for (uint32_t g = 0; g < n_groups; ++g) {
    group_binnings_.push_back(Binning::LoadFrom(r));
  }

  auto read_ref = [&]() {
    ColumnRef ref{r.Str(), r.Str()};
    if (!db_->HasTable(ref.table) ||
        !db_->GetTable(ref.table).HasColumn(ref.column)) {
      throw std::invalid_argument(
          "factorjoin snapshot references unknown column " + ref.ToString() +
          " — was it saved against a different schema?");
    }
    return ref;
  };

  uint32_t n_cols = r.CountU32(2 * sizeof(uint32_t) + sizeof(int64_t));
  column_to_group_.clear();
  column_to_group_.reserve(n_cols);
  for (uint32_t i = 0; i < n_cols; ++i) {
    ColumnRef ref = read_ref();
    int64_t group = r.I64();
    if (group < 0 || group >= static_cast<int64_t>(group_binnings_.size())) {
      throw SerializeError("snapshot key-group id out of range");
    }
    column_to_group_[std::move(ref)] = static_cast<int>(group);
  }

  uint32_t n_stats = r.CountU32(2 * sizeof(uint32_t));
  bin_stats_.clear();
  bin_stats_.reserve(n_stats);
  for (uint32_t i = 0; i < n_stats; ++i) {
    ColumnRef ref = read_ref();
    auto group = column_to_group_.find(ref);
    if (group == column_to_group_.end()) {
      throw SerializeError("snapshot bin summary for a non-key column " +
                           ref.ToString());
    }
    ColumnBinStats stats = ColumnBinStats::LoadFrom(r);
    if (stats.num_bins() !=
        group_binnings_[static_cast<size_t>(group->second)].num_bins()) {
      throw SerializeError("snapshot bin summary does not match its binning");
    }
    bin_stats_.emplace(std::move(ref), std::move(stats));
  }
  // The converse completeness check: training produces one bin summary per
  // key column, and MakeLeafFactor looks them up unconditionally — a gap
  // must fail here with a clear message, not later on a serving worker.
  for (const auto& [ref, gid] : column_to_group_) {
    (void)gid;
    if (bin_stats_.count(ref) == 0) {
      throw SerializeError("snapshot has no bin summary for key column " +
                           ref.ToString());
    }
  }

  uint32_t n_estimators = r.CountU32(2 * sizeof(uint32_t));
  estimators_.clear();
  for (uint32_t i = 0; i < n_estimators; ++i) {
    std::string table_name = r.Str();
    if (!db_->HasTable(table_name)) {
      throw std::invalid_argument(
          "factorjoin snapshot references unknown table " + table_name);
    }
    const Table& table = db_->GetTable(table_name);
    std::string kind_name = r.Str();
    std::unique_ptr<TableEstimator> est;
    if (kind_name == "sampling") {
      est = SamplingEstimator::MakeUntrained(table);
    } else if (kind_name == "truescan") {
      est = std::make_unique<TrueScanEstimator>(table);
    } else if (kind_name == "bayescard") {
      std::unordered_map<std::string, const Binning*> key_binnings;
      for (const auto& [ref, gid] : column_to_group_) {
        if (ref.table == table_name) {
          key_binnings[ref.column] =
              &group_binnings_[static_cast<size_t>(gid)];
        }
      }
      est = BayesNetEstimator::MakeUntrained(table, std::move(key_binnings));
    } else {
      throw SerializeError("unknown single-table estimator kind '" +
                           kind_name + "' in snapshot");
    }
    est->Load(r);
    estimators_[std::move(table_name)] = std::move(est);
  }
  // Every base table needs its single-table model (MakeLeafFactor does an
  // unconditional lookup); a mismatch means the snapshot belongs to a
  // different database.
  for (const std::string& name : db_->TableNames()) {
    if (estimators_.count(name) == 0) {
      throw std::invalid_argument(
          "factorjoin snapshot has no single-table model for table " + name);
    }
  }
}

}  // namespace fj
