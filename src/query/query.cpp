#include "query/query.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "query/fingerprint.h"

namespace fj {

std::vector<std::string> QueryKeyGroup::TouchedAliases() const {
  std::vector<std::string> aliases;
  for (const auto& m : members) {
    if (std::find(aliases.begin(), aliases.end(), m.alias) == aliases.end()) {
      aliases.push_back(m.alias);
    }
  }
  return aliases;
}

Query& Query::AddTable(const std::string& table, const std::string& alias) {
  if (tables_.size() >= kMaxTables) {
    throw std::invalid_argument(
        "query exceeds " + std::to_string(kMaxTables) +
        " table occurrences; alias bitmasks would overflow");
  }
  std::string a = alias.empty() ? table : alias;
  if (alias_index_.count(a) > 0) {
    throw std::invalid_argument("duplicate alias " + a);
  }
  alias_index_[a] = tables_.size();
  tables_.push_back({a, table});
  return *this;
}

Query& Query::AddJoin(const std::string& alias1, const std::string& col1,
                      const std::string& alias2, const std::string& col2) {
  if (alias_index_.count(alias1) == 0 || alias_index_.count(alias2) == 0) {
    throw std::invalid_argument("join references unknown alias");
  }
  joins_.push_back({{alias1, col1}, {alias2, col2}});
  return *this;
}

Query& Query::SetFilter(const std::string& alias, PredicatePtr pred) {
  if (alias_index_.count(alias) == 0) {
    throw std::invalid_argument("filter references unknown alias " + alias);
  }
  filters_[alias] = std::move(pred);
  return *this;
}

PredicatePtr Query::FilterFor(const std::string& alias) const {
  auto it = filters_.find(alias);
  if (it == filters_.end()) return Predicate::True();
  return it->second;
}

size_t Query::AliasIndex(const std::string& alias) const {
  auto it = alias_index_.find(alias);
  if (it == alias_index_.end()) {
    throw std::out_of_range("unknown alias " + alias);
  }
  return it->second;
}

const std::string& Query::TableOf(const std::string& alias) const {
  return tables_[AliasIndex(alias)].table;
}

bool Query::HasAlias(const std::string& alias) const {
  return alias_index_.count(alias) > 0;
}

std::vector<QueryKeyGroup> Query::KeyGroups() const {
  // Union-find over the distinct AliasColumns appearing in join conditions.
  std::vector<AliasColumn> keys;
  std::unordered_map<AliasColumn, size_t, AliasColumnHash> index;
  auto intern = [&](const AliasColumn& c) {
    auto [it, inserted] = index.emplace(c, keys.size());
    if (inserted) keys.push_back(c);
    return it->second;
  };
  std::vector<size_t> parent;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& j : joins_) {
    size_t a = intern(j.left);
    size_t b = intern(j.right);
    while (parent.size() < keys.size()) parent.push_back(parent.size());
    parent[find(a)] = find(b);
  }
  while (parent.size() < keys.size()) parent.push_back(parent.size());

  std::unordered_map<size_t, size_t> root_to_group;
  std::vector<QueryKeyGroup> groups;
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t root = find(i);
    auto it = root_to_group.find(root);
    if (it == root_to_group.end()) {
      root_to_group[root] = groups.size();
      groups.push_back({});
      it = root_to_group.find(root);
    }
    groups[it->second].members.push_back(keys[i]);
  }
  return groups;
}

std::vector<uint64_t> Query::AliasAdjacency() const {
  std::vector<uint64_t> adj(tables_.size(), 0);
  for (const auto& j : joins_) {
    size_t a = AliasIndex(j.left.alias);
    size_t b = AliasIndex(j.right.alias);
    if (a == b) continue;  // self-join condition within one alias pair is
                           // handled by key groups, not adjacency
    adj[a] |= uint64_t{1} << b;
    adj[b] |= uint64_t{1} << a;
  }
  return adj;
}

std::vector<std::string> Query::BaseTables(uint64_t alias_mask) const {
  std::vector<std::string> out;
  for (size_t i = 0; i < tables_.size(); ++i) {
    if ((alias_mask & (uint64_t{1} << i)) == 0) continue;
    const std::string& table = tables_[i].table;
    if (std::find(out.begin(), out.end(), table) == out.end()) {
      out.push_back(table);
    }
  }
  return out;
}

bool Query::IsConnected() const {
  if (tables_.empty()) return false;
  if (tables_.size() == 1) return true;
  auto adj = AliasAdjacency();
  const uint64_t all = AllAliases();
  uint64_t reached = 1;
  uint64_t frontier = 1;
  while (frontier != 0) {
    uint64_t next = 0;
    for (size_t i = 0; i < tables_.size(); ++i) {
      if (frontier & (uint64_t{1} << i)) next |= adj[i];
    }
    frontier = next & ~reached;
    reached |= next;
  }
  return reached == all;
}

bool Query::IsCyclic() const {
  // Multigraph cycle check via a spanning-forest argument: the join template
  // is cyclic iff the number of distinct join conditions between distinct
  // aliases exceeds vertices - components. Two *different* conditions
  // between the same alias pair (e.g. A.id = B.Aid AND A.id2 = B.Aid2,
  // appendix Case 5) therefore count as a cycle, while exact duplicates of
  // one condition do not.
  std::vector<std::tuple<size_t, size_t, std::string>> edges;
  for (const auto& j : joins_) {
    size_t a = AliasIndex(j.left.alias);
    size_t b = AliasIndex(j.right.alias);
    if (a == b) continue;
    auto e = std::minmax(a, b);
    std::string cols = a <= b ? j.left.column + "|" + j.right.column
                              : j.right.column + "|" + j.left.column;
    edges.emplace_back(e.first, e.second, std::move(cols));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Union-find to count components among aliases.
  std::vector<size_t> parent(tables_.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  size_t merges = 0;
  for (const auto& [a, b, cols] : edges) {
    size_t ra = find(a), rb = find(b);
    if (ra != rb) {
      parent[ra] = rb;
      ++merges;
    }
  }
  size_t components = tables_.size() - merges;
  return edges.size() > tables_.size() - components;
}

bool Query::HasSelfJoin() const {
  std::vector<std::string> names;
  for (const auto& t : tables_) names.push_back(t.table);
  std::sort(names.begin(), names.end());
  return std::adjacent_find(names.begin(), names.end()) != names.end();
}

Query Query::InducedSubquery(uint64_t alias_mask) const {
  Query sub;
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (alias_mask & (uint64_t{1} << i)) {
      sub.AddTable(tables_[i].table, tables_[i].alias);
      auto it = filters_.find(tables_[i].alias);
      if (it != filters_.end()) sub.SetFilter(tables_[i].alias, it->second);
    }
  }
  for (const auto& j : joins_) {
    size_t a = AliasIndex(j.left.alias);
    size_t b = AliasIndex(j.right.alias);
    if ((alias_mask & (uint64_t{1} << a)) && (alias_mask & (uint64_t{1} << b))) {
      sub.AddJoin(j.left.alias, j.left.column, j.right.alias, j.right.column);
    }
  }
  return sub;
}

std::string QueryFingerprint::ToString() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

QueryFingerprint Query::Fingerprint() const {
  return SubplanFingerprinter(*this).Of(~uint64_t{0});
}

std::string Query::ToString() const {
  std::ostringstream out;
  out << "SELECT COUNT(*) FROM ";
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (i > 0) out << ", ";
    out << tables_[i].table;
    if (tables_[i].alias != tables_[i].table) out << " " << tables_[i].alias;
  }
  out << " WHERE ";
  bool first = true;
  for (const auto& j : joins_) {
    if (!first) out << " AND ";
    out << j.ToString();
    first = false;
  }
  for (const auto& t : tables_) {
    auto it = filters_.find(t.alias);
    if (it == filters_.end()) continue;
    if (it->second->kind() == Predicate::Kind::kTrue) continue;
    if (!first) out << " AND ";
    out << it->second->ToString();
    first = false;
  }
  return out.str();
}

}  // namespace fj
