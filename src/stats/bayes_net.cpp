#include "stats/bayes_net.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/bytes.h"
#include "util/timer.h"

namespace fj {
namespace {

// Collects conjunctive leaves; returns false on OR / NOT (unsupported here).
bool CollectConjunctiveLeaves(const Predicate& pred,
                              std::vector<const Predicate*>* leaves) {
  switch (pred.kind()) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kAnd:
      for (const auto& c : pred.children()) {
        if (!CollectConjunctiveLeaves(*c, leaves)) return false;
      }
      return true;
    case Predicate::Kind::kOr:
    case Predicate::Kind::kNot:
      return false;
    default:
      leaves->push_back(&pred);
      return true;
  }
}

}  // namespace

BayesNetEstimator::BayesNetEstimator(
    const Table& table,
    std::unordered_map<std::string, const Binning*> key_binnings,
    BayesNetOptions options)
    : table_(&table),
      key_binnings_(std::move(key_binnings)),
      options_(options) {
  Train();
}

BayesNetEstimator::BayesNetEstimator(
    const Table& table,
    std::unordered_map<std::string, const Binning*> key_binnings, UntrainedTag)
    : table_(&table), key_binnings_(std::move(key_binnings)) {}

std::unique_ptr<BayesNetEstimator> BayesNetEstimator::MakeUntrained(
    const Table& table,
    std::unordered_map<std::string, const Binning*> key_binnings) {
  return std::unique_ptr<BayesNetEstimator>(
      new BayesNetEstimator(table, std::move(key_binnings), UntrainedTag{}));
}

void BayesNetEstimator::Save(ByteWriter& w) const {
  w.U32(options_.max_categories);
  w.F64(options_.laplace_alpha);
  w.F64(options_.fallback_sample_rate);
  w.U64(options_.seed);
  w.F64(train_seconds_);
  w.U32(static_cast<uint32_t>(nodes_.size()));
  for (const Node& node : nodes_) {
    w.Str(node.column);
    node.discretizer.Save(w);
    w.U32(node.cards);
    w.U32(static_cast<uint32_t>(node.counts.size()));
    for (double c : node.counts) w.F64(c);
    w.U32(static_cast<uint32_t>(node.cpt.size()));
    for (double p : node.cpt) w.F64(p);
  }
  for (int p : tree_.parent) w.I64(p);
  for (double mi : tree_.edge_mi) w.F64(mi);
  fallback_->Save(w);
}

void BayesNetEstimator::Load(ByteReader& r) {
  options_.max_categories = r.U32();
  options_.laplace_alpha = r.F64();
  options_.fallback_sample_rate = r.F64();
  options_.seed = r.U64();
  train_seconds_ = r.F64();

  // Minimal encoded node: empty column string + minimal discretizer
  // (flag + num_categories + three zero counts) + cards + two zero counts.
  uint32_t n = r.CountU32(4 + (1 + 4 * sizeof(uint32_t)) + 3 * sizeof(uint32_t));
  nodes_.clear();
  column_to_node_.clear();
  nodes_.reserve(n);
  for (uint32_t v = 0; v < n; ++v) {
    Node node;
    node.column = r.Str();
    if (!table_->HasColumn(node.column)) {
      throw std::invalid_argument(
          "bayescard snapshot references unknown column " + table_->name() +
          "." + node.column);
    }
    auto kb = key_binnings_.find(node.column);
    node.discretizer = Discretizer::LoadFrom(
        r, kb != key_binnings_.end() ? kb->second : nullptr);
    node.cards = r.U32();
    if (node.cards != node.discretizer.num_categories()) {
      throw SerializeError("bayescard node cardinality mismatch");
    }
    uint32_t n_counts = r.CountU32(sizeof(double));
    node.counts.reserve(n_counts);
    for (uint32_t i = 0; i < n_counts; ++i) node.counts.push_back(r.F64());
    uint32_t n_cpt = r.CountU32(sizeof(double));
    if (n_cpt != n_counts) {
      throw SerializeError("bayescard CPT/count size mismatch");
    }
    node.cpt.reserve(n_cpt);
    for (uint32_t i = 0; i < n_cpt; ++i) node.cpt.push_back(r.F64());
    column_to_node_[node.column] = nodes_.size();
    nodes_.push_back(std::move(node));
  }

  tree_.parent.assign(n, -1);
  tree_.edge_mi.assign(n, 0.0);
  for (uint32_t v = 0; v < n; ++v) {
    int64_t p = r.I64();
    if (p < -1 || p >= static_cast<int64_t>(n) ||
        p == static_cast<int64_t>(v)) {
      throw SerializeError("bayescard tree parent out of range");
    }
    tree_.parent[v] = static_cast<int>(p);
  }
  for (uint32_t v = 0; v < n; ++v) tree_.edge_mi[v] = r.F64();
  if (tree_.TopologicalOrder().size() != n) {
    // A parent cycle would leave nodes outside every tree component and
    // make the propagation passes read uninitialized roots.
    throw SerializeError("bayescard tree contains a cycle");
  }

  // CPT shapes must match the loaded structure before any inference runs.
  for (uint32_t v = 0; v < n; ++v) {
    int parent = tree_.parent[v];
    size_t want = parent < 0
                      ? nodes_[v].cards
                      : static_cast<size_t>(
                            nodes_[static_cast<size_t>(parent)].cards) *
                            nodes_[v].cards;
    if (nodes_[v].counts.size() != want) {
      throw SerializeError("bayescard CPT shape does not match tree");
    }
  }

  fallback_ = SamplingEstimator::MakeUntrained(*table_);
  fallback_->Load(r);
  RebuildInferenceCaches();
}

void BayesNetEstimator::Train() {
  WallTimer timer;
  nodes_.clear();
  column_to_node_.clear();

  // One BN node per column; join keys use the shared group binning.
  for (const auto& col_ptr : table_->columns()) {
    const Column& col = *col_ptr;
    Node node;
    node.column = col.name();
    auto it = key_binnings_.find(col.name());
    if (it != key_binnings_.end()) {
      node.discretizer = Discretizer::FromBinning(col, it->second);
    } else {
      node.discretizer = Discretizer::AutoEqualDepth(col, options_.max_categories);
    }
    node.cards = node.discretizer.num_categories();
    column_to_node_[node.column] = nodes_.size();
    nodes_.push_back(std::move(node));
  }

  // Discretized data matrix.
  size_t rows = table_->num_rows();
  std::vector<std::vector<uint32_t>> data(nodes_.size());
  std::vector<uint32_t> cards(nodes_.size());
  for (size_t v = 0; v < nodes_.size(); ++v) {
    const Column& col = table_->Col(nodes_[v].column);
    data[v].resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      data[v][r] = nodes_[v].discretizer.CategoryOf(col.IntAt(r));
    }
    cards[v] = nodes_[v].cards;
  }

  tree_ = LearnChowLiuTree(data, cards);

  // CPT counts.
  for (size_t v = 0; v < nodes_.size(); ++v) {
    Node& node = nodes_[v];
    int parent = tree_.parent[v];
    if (parent < 0) {
      node.counts.assign(node.cards, 0.0);
      for (size_t r = 0; r < rows; ++r) node.counts[data[v][r]] += 1.0;
    } else {
      uint32_t pcard = nodes_[static_cast<size_t>(parent)].cards;
      node.counts.assign(static_cast<size_t>(pcard) * node.cards, 0.0);
      const auto& pdata = data[static_cast<size_t>(parent)];
      for (size_t r = 0; r < rows; ++r) {
        node.counts[static_cast<size_t>(pdata[r]) * node.cards + data[v][r]] += 1.0;
      }
    }
  }
  NormalizeCpts();
  RebuildInferenceCaches();

  fallback_ = std::make_unique<SamplingEstimator>(
      *table_, options_.fallback_sample_rate, options_.seed);
  train_seconds_ = timer.Seconds();
}

void BayesNetEstimator::NormalizeCpts() {
  double alpha = options_.laplace_alpha;
  for (size_t v = 0; v < nodes_.size(); ++v) {
    Node& node = nodes_[v];
    int parent = tree_.parent[v];
    node.cpt.assign(node.counts.size(), 0.0);
    if (parent < 0) {
      double total = 0.0;
      for (double c : node.counts) total += c + alpha;
      for (size_t i = 0; i < node.counts.size(); ++i) {
        node.cpt[i] = (node.counts[i] + alpha) / total;
      }
    } else {
      uint32_t pcard = nodes_[static_cast<size_t>(parent)].cards;
      for (uint32_t j = 0; j < pcard; ++j) {
        double total = 0.0;
        for (uint32_t i = 0; i < node.cards; ++i) {
          total += node.counts[static_cast<size_t>(j) * node.cards + i] + alpha;
        }
        for (uint32_t i = 0; i < node.cards; ++i) {
          node.cpt[static_cast<size_t>(j) * node.cards + i] =
              (node.counts[static_cast<size_t>(j) * node.cards + i] + alpha) / total;
        }
      }
    }
  }
}

void BayesNetEstimator::RebuildInferenceCaches() {
  size_t n = nodes_.size();
  children_ = tree_.Children();
  order_ = tree_.TopologicalOrder();
  component_root_.assign(n, -1);
  for (int vi : order_) {
    size_t v = static_cast<size_t>(vi);
    int parent = tree_.parent[v];
    component_root_[v] =
        parent < 0 ? vi : component_root_[static_cast<size_t>(parent)];
  }
  card_offset_.assign(n, 0);
  msg_offset_.assign(n, 0);
  total_cards_ = 0;
  total_msg_ = 0;
  for (size_t v = 0; v < n; ++v) {
    card_offset_[v] = total_cards_;
    total_cards_ += nodes_[v].cards;
    msg_offset_[v] = total_msg_;
    int parent = tree_.parent[v];
    if (parent >= 0) total_msg_ += nodes_[static_cast<size_t>(parent)].cards;
  }

  // No-evidence memos: run the full propagation once with all-ones evidence
  // (every subtree marked touched disables the memo shortcuts) and keep its
  // internal state. A query-time run reuses these for untouched subtrees —
  // the loops that would recompute them are deterministic, so the copied
  // doubles are bit-identical to what the full run would produce.
  std::vector<double> ones(total_cards_, 1.0);
  std::vector<uint8_t> all_touched(n, 1);
  lambda0_ = ones;
  msg0_.assign(total_msg_, 0.0);
  beliefs0_ = PropagateImpl(ones, all_touched, nullptr, lambda0_, msg0_);
}

std::optional<BayesNetEstimator::Evidence> BayesNetEstimator::BuildEvidence(
    const Predicate& filter) const {
  std::vector<const Predicate*> leaves;
  if (!CollectConjunctiveLeaves(filter, &leaves)) return std::nullopt;

  // Filters only constrain mentioned columns; unconstrained columns keep
  // weight 1 everywhere (and stay eligible for the no-evidence memos).
  Evidence evidence;
  evidence.weights.assign(total_cards_, 1.0);
  evidence.touched.assign(nodes_.size(), 0);
  for (const Predicate* leaf : leaves) {
    auto it = column_to_node_.find(leaf->column());
    if (it == column_to_node_.end()) return std::nullopt;
    size_t v = it->second;
    auto w = nodes_[v].discretizer.LeafEvidence(table_->Col(leaf->column()), *leaf);
    if (!w.has_value()) return std::nullopt;
    double* slice = evidence.weights.data() + card_offset_[v];
    for (size_t i = 0; i < w->size(); ++i) slice[i] *= (*w)[i];
    evidence.touched[v] = 1;
  }
  return evidence;
}

BayesNetEstimator::Beliefs BayesNetEstimator::Propagate(
    const Evidence& evidence, const std::vector<size_t>* target_nodes) const {
  size_t n = nodes_.size();
  // subtree_touched[v]: the filter constrains v or some descendant — the
  // gate for every memo shortcut. Children precede parents in reverse
  // topological order, so one backward sweep suffices.
  std::vector<uint8_t> subtree_touched = evidence.touched;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    size_t v = static_cast<size_t>(*it);
    for (int c : children_[v]) {
      if (subtree_touched[static_cast<size_t>(c)]) subtree_touched[v] = 1;
    }
  }
  // Downward-pass scope: the targets' ancestor chains plus every root
  // (component Z is a sum over root beliefs).
  std::vector<uint8_t> need_belief;
  if (target_nodes != nullptr) {
    need_belief.assign(n, 0);
    for (size_t v = 0; v < n; ++v) {
      if (tree_.parent[v] < 0) need_belief[v] = 1;
    }
    for (size_t t : *target_nodes) {
      for (int v = static_cast<int>(t); v >= 0; v = tree_.parent[static_cast<size_t>(v)]) {
        if (need_belief[static_cast<size_t>(v)]) break;  // chain already marked
        need_belief[static_cast<size_t>(v)] = 1;
      }
    }
  }
  std::vector<double> lambda = evidence.weights;
  std::vector<double> msg_up(total_msg_, 0.0);
  Beliefs out = PropagateImpl(evidence.weights, subtree_touched,
                              target_nodes != nullptr ? &need_belief : nullptr,
                              lambda, msg_up);
  // Untouched components never entered the passes: their beliefs and Z are
  // exactly the no-evidence memos.
  for (size_t v = 0; v < n; ++v) {
    if (subtree_touched[static_cast<size_t>(component_root_[v])]) continue;
    std::copy_n(beliefs0_.beliefs.begin() + static_cast<long>(card_offset_[v]),
                nodes_[v].cards,
                out.beliefs.begin() + static_cast<long>(card_offset_[v]));
  }
  return out;
}

BayesNetEstimator::Beliefs BayesNetEstimator::PropagateImpl(
    const std::vector<double>& evidence,
    const std::vector<uint8_t>& subtree_touched,
    const std::vector<uint8_t>* need_belief, std::vector<double>& lambda,
    std::vector<double>& msg_up) const {
  size_t n = nodes_.size();
  Beliefs out;
  out.beliefs.assign(total_cards_, 0.0);

  // Upward pass (reverse topological order, so every child is finalized
  // before its parent): lambda_v = evidence_v * prod(child messages), and
  // msg_up[c][j] = sum_i P(c=i | parent=j) * lambda_c(i). All scratch
  // buffers are flat slices (card_offset_ / msg_offset_); nodes of entirely
  // untouched components are skipped, untouched nodes inside a touched
  // component copy their memoized lambda/message instead of recomputing.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    size_t v = static_cast<size_t>(*it);
    if (!subtree_touched[static_cast<size_t>(component_root_[v])]) continue;
    if (!subtree_touched[v]) {
      std::copy_n(lambda0_.begin() + static_cast<long>(card_offset_[v]),
                  nodes_[v].cards,
                  lambda.begin() + static_cast<long>(card_offset_[v]));
      if (tree_.parent[v] >= 0) {
        size_t plen =
            nodes_[static_cast<size_t>(tree_.parent[v])].cards;
        std::copy_n(msg0_.begin() + static_cast<long>(msg_offset_[v]), plen,
                    msg_up.begin() + static_cast<long>(msg_offset_[v]));
      }
      continue;
    }
    for (int c : children_[v]) {
      size_t cc = static_cast<size_t>(c);
      double* msg = msg_up.data() + msg_offset_[cc];
      double* lambda_v = lambda.data() + card_offset_[v];
      uint32_t pcard = nodes_[v].cards;
      if (subtree_touched[cc]) {
        const double* cpt = nodes_[cc].cpt.data();
        const double* lambda_c = lambda.data() + card_offset_[cc];
        uint32_t card = nodes_[cc].cards;
        for (uint32_t j = 0; j < pcard; ++j) {
          double s = 0.0;
          const double* row = cpt + static_cast<size_t>(j) * card;
          for (uint32_t i = 0; i < card; ++i) {
            s += row[i] * lambda_c[i];
          }
          msg[j] = s;
        }
      }
      // else: msg already holds the memoized no-evidence message (copied
      // when the untouched child was visited — children precede parents).
      for (uint32_t j = 0; j < pcard; ++j) lambda_v[j] *= msg[j];
    }
  }

  // Downward pass (topological): pi and beliefs.
  std::vector<double> pi(total_cards_, 0.0);
  std::vector<double> excl;  // parent belief excluding v; reused per node
  out.component_z.assign(n, 1.0);
  for (int vi : order_) {
    size_t v = static_cast<size_t>(vi);
    if (!subtree_touched[static_cast<size_t>(component_root_[v])]) continue;
    // Downward scope: beliefs are only materialized for the caller's target
    // chains (pi of an ancestor is always computed before its descendants
    // because targets mark their whole ancestor chain).
    if (need_belief != nullptr && !(*need_belief)[v]) continue;
    int parent = tree_.parent[v];
    double* pi_v = pi.data() + card_offset_[v];
    if (parent < 0) {
      // Root prior.
      std::copy(nodes_[v].cpt.begin(), nodes_[v].cpt.end(), pi_v);
    } else {
      size_t p = static_cast<size_t>(parent);
      const double* pi_p = pi.data() + card_offset_[p];
      const double* ev_p = evidence.data() + card_offset_[p];
      // belief at parent excluding v's upward contribution.
      excl.assign(nodes_[p].cards, 0.0);
      for (uint32_t j = 0; j < nodes_[p].cards; ++j) {
        double b = pi_p[j] * ev_p[j];
        for (int s : children_[p]) {
          if (s == vi) continue;
          b *= msg_up[msg_offset_[static_cast<size_t>(s)] + j];
        }
        excl[j] = b;
      }
      const double* cpt = nodes_[v].cpt.data();
      uint32_t card = nodes_[v].cards;
      for (uint32_t j = 0; j < nodes_[p].cards; ++j) {
        if (excl[j] == 0.0) continue;
        const double* row = cpt + static_cast<size_t>(j) * card;
        for (uint32_t i = 0; i < card; ++i) {
          pi_v[i] += row[i] * excl[j];
        }
      }
    }
    const double* lambda_v = lambda.data() + card_offset_[v];
    double* belief_v = out.beliefs.data() + card_offset_[v];
    for (uint32_t i = 0; i < nodes_[v].cards; ++i) {
      belief_v[i] = pi_v[i] * lambda_v[i];
    }
  }

  // Component Z values: at each root, Z = sum of beliefs; descendants read
  // their component's Z through the cached component root.
  std::vector<double> z_of_root(n, 1.0);
  out.total_z = 1.0;
  for (size_t v = 0; v < n; ++v) {
    if (tree_.parent[v] < 0) {
      double z;
      if (!subtree_touched[v]) {
        // Untouched component (query path only; the train-time run marks
        // everything touched): its Z is the memoized no-evidence Z — the
        // same summation over the same doubles.
        z = beliefs0_.component_z[v];
      } else {
        z = 0.0;
        const double* belief_v = out.beliefs.data() + card_offset_[v];
        for (uint32_t i = 0; i < nodes_[v].cards; ++i) z += belief_v[i];
      }
      z_of_root[v] = z;
      out.total_z *= z;
    }
  }
  for (size_t v = 0; v < n; ++v) {
    out.component_z[v] = z_of_root[static_cast<size_t>(component_root_[v])];
  }
  return out;
}

KeyDistResult BayesNetEstimator::EstimateKeyDists(
    const Predicate& filter, const std::vector<KeyDistRequest>& keys) const {
  auto evidence = BuildEvidence(filter);
  if (!evidence.has_value()) return fallback_->EstimateKeyDists(filter, keys);

  // Restrict the downward pass to the requested key nodes (their ancestor
  // chains): other beliefs would never be read. With no key requested only
  // Z is consumed, and the pass stops at the roots.
  std::vector<size_t> targets;
  targets.reserve(keys.size());
  for (const KeyDistRequest& key : keys) {
    auto it = column_to_node_.find(key.column);
    if (it == column_to_node_.end()) {
      throw std::logic_error("BayesNetEstimator: unknown key column " +
                             key.column);
    }
    targets.push_back(it->second);
  }
  Beliefs beliefs = Propagate(*evidence, &targets);
  double n = static_cast<double>(table_->num_rows());

  KeyDistResult result;
  result.filtered_rows = beliefs.total_z * n;
  result.masses.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t v = targets[i];
    const Node& node = nodes_[v];
    if (!node.discretizer.is_external() ||
        node.cards != keys[i].binning->num_bins() + 1) {
      throw std::logic_error(
          "BayesNetEstimator: key column was not discretized by the "
          "requested binning: " + keys[i].column);
    }
    // belief[v][b] = P(v=b, evidence of v's component); scale to a mass by
    // multiplying by N and the Z of the *other* components.
    double other_z = beliefs.component_z[v] > 0.0
                         ? beliefs.total_z / beliefs.component_z[v]
                         : 0.0;
    const double* belief_v = beliefs.beliefs.data() + card_offset_[v];
    result.masses[i].assign(keys[i].binning->num_bins(), 0.0);
    for (uint32_t b = 0; b < keys[i].binning->num_bins(); ++b) {
      result.masses[i][b] = belief_v[b] * other_z * n;
    }
    // The null category (last) is dropped: nulls never join.
  }
  return result;
}

void BayesNetEstimator::Refresh(const Table& table) {
  table_ = &table;
  Train();
}

void BayesNetEstimator::IncrementalUpdate(const Table& table,
                                          size_t first_new_row) {
  table_ = &table;
  size_t rows = table.num_rows();
  if (first_new_row >= rows) return;
  // Fold new rows into the existing CPT counts; structure stays fixed.
  std::vector<const Column*> cols(nodes_.size());
  for (size_t v = 0; v < nodes_.size(); ++v) cols[v] = &table.Col(nodes_[v].column);
  for (size_t r = first_new_row; r < rows; ++r) {
    for (size_t v = 0; v < nodes_.size(); ++v) {
      Node& node = nodes_[v];
      uint32_t cat = node.discretizer.CategoryOf(cols[v]->IntAt(r));
      int parent = tree_.parent[v];
      if (parent < 0) {
        node.counts[cat] += 1.0;
      } else {
        uint32_t pcat = nodes_[static_cast<size_t>(parent)].discretizer.CategoryOf(
            cols[static_cast<size_t>(parent)]->IntAt(r));
        node.counts[static_cast<size_t>(pcat) * node.cards + cat] += 1.0;
      }
    }
  }
  NormalizeCpts();
  // CPTs changed, so the no-evidence propagation memos must be recomputed
  // (structure and offsets are unchanged, but the cached doubles are not).
  RebuildInferenceCaches();
  fallback_->Refresh(table);
}

size_t BayesNetEstimator::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& node : nodes_) {
    bytes += (node.counts.size() + node.cpt.size()) * sizeof(double);
    bytes += node.discretizer.MemoryBytes();
  }
  return bytes;
}

}  // namespace fj
