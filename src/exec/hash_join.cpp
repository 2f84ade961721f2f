#include "exec/hash_join.h"

#include <algorithm>
#include <unordered_map>

#include "query/filter_eval.h"

namespace fj {

Relation ScanFilter(const Database& db, const std::string& table_name,
                    const std::string& alias, const Predicate& filter,
                    ExecStats* stats) {
  const Table& table = db.GetTable(table_name);
  Relation rel({alias});
  *rel.mutable_data() = EvalSelection(table, filter);  // one id per tuple
  if (stats != nullptr) stats->rows_scanned += table.num_rows();
  return rel;
}

std::vector<JoinKeyPair> ConnectingKeys(
    const Query& query, const std::vector<std::string>& left_aliases,
    const std::vector<std::string>& right_aliases) {
  auto contains = [](const std::vector<std::string>& v, const std::string& a) {
    return std::find(v.begin(), v.end(), a) != v.end();
  };
  std::vector<JoinKeyPair> keys;
  for (const auto& j : query.joins()) {
    bool l_in_left = contains(left_aliases, j.left.alias);
    bool l_in_right = contains(right_aliases, j.left.alias);
    bool r_in_left = contains(left_aliases, j.right.alias);
    bool r_in_right = contains(right_aliases, j.right.alias);
    if (l_in_left && r_in_right) {
      keys.push_back({j.left, j.right});
    } else if (r_in_left && l_in_right) {
      keys.push_back({j.right, j.left});
    }
  }
  return keys;
}

Relation HashJoin(const Database& db, const Query& query, const Relation& left,
                  const Relation& right, const std::vector<JoinKeyPair>& keys,
                  ExecStats* stats, size_t max_output_tuples) {
  if (keys.empty()) {
    throw std::invalid_argument("HashJoin requires at least one key pair");
  }

  // Resolve each key pair to (tuple position, column pointer) on both sides.
  struct SideKey {
    int pos;
    const Column* col;
  };
  std::vector<SideKey> left_keys, right_keys;
  for (const auto& k : keys) {
    int lp = left.AliasPos(k.left.alias);
    int rp = right.AliasPos(k.right.alias);
    if (lp < 0 || rp < 0) {
      throw std::invalid_argument("join key alias not present in relation");
    }
    left_keys.push_back(
        {lp, &db.GetTable(query.TableOf(k.left.alias)).Col(k.left.column)});
    right_keys.push_back(
        {rp, &db.GetTable(query.TableOf(k.right.alias)).Col(k.right.column)});
  }

  // Build on the smaller input.
  const Relation* build = &left;
  const Relation* probe = &right;
  std::vector<SideKey>* build_keys = &left_keys;
  std::vector<SideKey>* probe_keys = &right_keys;
  bool swapped = false;
  if (right.size() < left.size()) {
    std::swap(build, probe);
    std::swap(build_keys, probe_keys);
    swapped = true;
  }

  // Composite keys are folded into a single 64-bit fingerprint with a strong
  // mix per component; the build side stores candidate tuple ids per
  // fingerprint and the probe verifies the actual key columns, so hash
  // collisions cannot produce wrong results.
  auto fold = [](const std::vector<int64_t>& parts) {
    uint64_t h = 1469598103934665603ull;
    for (int64_t v : parts) {
      h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ull;
      h *= 1099511628211ull;
    }
    return h;
  };

  std::unordered_map<uint64_t, std::vector<uint32_t>> table;
  table.reserve(build->size());
  std::vector<int64_t> key(keys.size());
  for (size_t t = 0; t < build->size(); ++t) {
    bool has_null = false;
    for (size_t i = 0; i < build_keys->size(); ++i) {
      int64_t code = (*build_keys)[i].col->IntAt(
          build->RowId(t, static_cast<size_t>((*build_keys)[i].pos)));
      if (code == kNullInt64) {
        has_null = true;
        break;
      }
      key[i] = code;
    }
    if (has_null) continue;  // nulls never join
    table[fold(key)].push_back(static_cast<uint32_t>(t));
  }
  if (stats != nullptr) stats->rows_built += build->size();

  // Verifier for probe matches (guards against fingerprint collisions).
  auto keys_match = [&](uint32_t build_tuple,
                        const std::vector<int64_t>& probe_key) {
    for (size_t i = 0; i < build_keys->size(); ++i) {
      int64_t code = (*build_keys)[i].col->IntAt(build->RowId(
          build_tuple, static_cast<size_t>((*build_keys)[i].pos)));
      if (code != probe_key[i]) return false;
    }
    return true;
  };

  // Output aliases: left tuple columns then right tuple columns (in the
  // caller-visible orientation, independent of the build-side swap).
  std::vector<std::string> out_aliases = left.aliases();
  out_aliases.insert(out_aliases.end(), right.aliases().begin(),
                     right.aliases().end());
  Relation out(std::move(out_aliases));

  std::vector<uint32_t> tuple(left.arity() + right.arity());
  size_t emitted = 0;
  for (size_t t = 0; t < probe->size(); ++t) {
    bool has_null = false;
    for (size_t i = 0; i < probe_keys->size(); ++i) {
      int64_t code = (*probe_keys)[i].col->IntAt(
          probe->RowId(t, static_cast<size_t>((*probe_keys)[i].pos)));
      if (code == kNullInt64) {
        has_null = true;
        break;
      }
      key[i] = code;
    }
    if (has_null) continue;
    auto it = table.find(fold(key));
    if (it == table.end()) continue;
    for (uint32_t bt : it->second) {
      if (!keys_match(bt, key)) continue;
      const uint32_t* l_tuple = swapped ? probe->Tuple(t) : build->Tuple(bt);
      const uint32_t* r_tuple = swapped ? build->Tuple(bt) : probe->Tuple(t);
      std::copy(l_tuple, l_tuple + left.arity(), tuple.begin());
      std::copy(r_tuple, r_tuple + right.arity(),
                tuple.begin() + static_cast<long>(left.arity()));
      out.Append(tuple.data());
      if (++emitted > max_output_tuples) {
        // Account for the work done before bailing out, so overflowing
        // (catastrophic) plans are charged for what they executed.
        if (stats != nullptr) {
          stats->rows_probed += t;
          stats->rows_output += emitted;
        }
        throw ExecutionOverflow(emitted);
      }
    }
  }
  if (stats != nullptr) {
    stats->rows_probed += probe->size();
    stats->rows_output += emitted;
  }
  return out;
}

}  // namespace fj

namespace fj {

Relation NestedLoopJoin(const Database& db, const Query& query,
                        const Relation& left, const Relation& right,
                        const std::vector<JoinKeyPair>& keys, ExecStats* stats,
                        size_t max_output_tuples, size_t max_pair_work) {
  if (keys.empty()) {
    throw std::invalid_argument("NestedLoopJoin requires at least one key");
  }
  struct SideKey {
    int pos;
    const Column* col;
  };
  std::vector<SideKey> left_keys, right_keys;
  for (const auto& k : keys) {
    int lp = left.AliasPos(k.left.alias);
    int rp = right.AliasPos(k.right.alias);
    if (lp < 0 || rp < 0) {
      throw std::invalid_argument("join key alias not present in relation");
    }
    left_keys.push_back(
        {lp, &db.GetTable(query.TableOf(k.left.alias)).Col(k.left.column)});
    right_keys.push_back(
        {rp, &db.GetTable(query.TableOf(k.right.alias)).Col(k.right.column)});
  }

  std::vector<std::string> out_aliases = left.aliases();
  out_aliases.insert(out_aliases.end(), right.aliases().begin(),
                     right.aliases().end());
  Relation out(std::move(out_aliases));

  size_t pairs = left.size() * right.size();
  bool truncated = pairs > max_pair_work;
  size_t probe_limit = truncated && left.size() > 0
                           ? max_pair_work / left.size()
                           : right.size();
  if (stats != nullptr) {
    stats->rows_probed += truncated ? max_pair_work : pairs;
  }

  std::vector<uint32_t> tuple(left.arity() + right.arity());
  size_t emitted = 0;
  for (size_t r = 0; r < probe_limit; ++r) {
    // Right-side key codes for this tuple.
    bool r_null = false;
    std::vector<int64_t> rkey(keys.size());
    for (size_t i = 0; i < right_keys.size(); ++i) {
      rkey[i] = right_keys[i].col->IntAt(
          right.RowId(r, static_cast<size_t>(right_keys[i].pos)));
      if (rkey[i] == kNullInt64) r_null = true;
    }
    if (r_null) continue;
    for (size_t l = 0; l < left.size(); ++l) {
      bool match = true;
      for (size_t i = 0; i < left_keys.size() && match; ++i) {
        int64_t code = left_keys[i].col->IntAt(
            left.RowId(l, static_cast<size_t>(left_keys[i].pos)));
        match = code != kNullInt64 && code == rkey[i];
      }
      if (!match) continue;
      const uint32_t* l_tuple = left.Tuple(l);
      const uint32_t* r_tuple = right.Tuple(r);
      std::copy(l_tuple, l_tuple + left.arity(), tuple.begin());
      std::copy(r_tuple, r_tuple + right.arity(),
                tuple.begin() + static_cast<long>(left.arity()));
      out.Append(tuple.data());
      if (++emitted > max_output_tuples) {
        if (stats != nullptr) stats->rows_output += emitted;
        throw ExecutionOverflow(emitted);
      }
    }
  }
  if (stats != nullptr) stats->rows_output += emitted;
  if (truncated) throw ExecutionOverflow(emitted);
  return out;
}

}  // namespace fj
