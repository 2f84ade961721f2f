// Join query representation: aliased table references (so self joins are
// expressible), equi-join conditions, and per-alias filter predicates.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/predicate.h"
#include "storage/database.h"
#include "util/hash.h"

namespace fj {

/// One table occurrence in the FROM clause. Distinct aliases over the same
/// base table express self joins.
struct TableRef {
  std::string alias;
  std::string table;
};

/// Column of an aliased table occurrence ("mc.movie_id").
struct AliasColumn {
  std::string alias;
  std::string column;

  bool operator==(const AliasColumn& o) const {
    return alias == o.alias && column == o.column;
  }
  std::string ToString() const { return alias + "." + column; }
};

struct AliasColumnHash {
  size_t operator()(const AliasColumn& c) const {
    return static_cast<size_t>(
        HashCombine(Fnv1a64(c.alias), Fnv1a64(c.column)));
  }
};

/// Equi-join condition left = right.
struct JoinCondition {
  AliasColumn left;
  AliasColumn right;

  std::string ToString() const {
    return left.ToString() + " = " + right.ToString();
  }
};

/// A group of alias columns forced equal by the query's join conditions
/// ("equivalent key group variable", Section 3.1).
struct QueryKeyGroup {
  std::vector<AliasColumn> members;

  /// Aliases that own at least one member key.
  std::vector<std::string> TouchedAliases() const;
};

/// 128-bit canonical digest of a query's logical content (tables, joins,
/// filters), insensitive to the order in which they were added. Equal
/// sub-plans reached from different parent queries digest identically, which
/// is what makes it usable as a cross-query cache key in the serving layer.
struct QueryFingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const QueryFingerprint& o) const {
    return lo == o.lo && hi == o.hi;
  }
  bool operator!=(const QueryFingerprint& o) const { return !(*this == o); }

  /// Hex rendering for logs/debugging.
  std::string ToString() const;
};

struct QueryFingerprintHash {
  size_t operator()(const QueryFingerprint& f) const {
    return static_cast<size_t>(f.lo ^ Mix64(f.hi));
  }
};

class Query {
 public:
  /// Alias masks throughout the library are uint64_t bitmasks over tables()
  /// order, so a query holds at most 64 table occurrences; AddTable throws
  /// past that.
  static constexpr size_t kMaxTables = 64;

  Query() = default;

  /// Adds a table occurrence; alias defaults to the table name.
  Query& AddTable(const std::string& table, const std::string& alias = "");

  /// Adds the equi-join condition a1.c1 = a2.c2.
  Query& AddJoin(const std::string& alias1, const std::string& col1,
                 const std::string& alias2, const std::string& col2);

  /// Sets (replaces) the filter predicate for an alias.
  Query& SetFilter(const std::string& alias, PredicatePtr pred);

  const std::vector<TableRef>& tables() const { return tables_; }
  const std::vector<JoinCondition>& joins() const { return joins_; }

  /// The filter for an alias; Predicate::True() if none was set.
  PredicatePtr FilterFor(const std::string& alias) const;
  bool HasFilter(const std::string& alias) const {
    return filters_.count(alias) > 0;
  }

  size_t NumTables() const { return tables_.size(); }

  /// The alias mask of the whole query: bit i set for every tables()[i].
  uint64_t AllAliases() const {
    return tables_.size() == kMaxTables ? ~uint64_t{0}
                                        : (uint64_t{1} << tables_.size()) - 1;
  }

  /// Index of an alias in tables(); throws if unknown.
  size_t AliasIndex(const std::string& alias) const;
  const std::string& TableOf(const std::string& alias) const;
  bool HasAlias(const std::string& alias) const;

  /// Equivalent key groups induced by this query's join conditions
  /// (connected components over AliasColumns). Deterministic order.
  std::vector<QueryKeyGroup> KeyGroups() const;

  /// True when the join graph over aliases is connected (joins interpreted as
  /// edges between the aliases they touch).
  bool IsConnected() const;

  /// True when the alias-level join graph contains a cycle (counting parallel
  /// edges between the same alias pair only once), i.e. a cyclic join
  /// template.
  bool IsCyclic() const;

  /// True when two aliases reference the same base table.
  bool HasSelfJoin() const;

  /// The sub-query induced by a subset of aliases (bitmask over tables()
  /// order): those table refs, the joins with both endpoints inside, and the
  /// corresponding filters.
  Query InducedSubquery(uint64_t alias_mask) const;

  /// Adjacency bitmasks: adj[i] has bit j set iff some join condition links
  /// alias i and alias j.
  std::vector<uint64_t> AliasAdjacency() const;

  /// Distinct base-table names among the aliases selected by `alias_mask`
  /// (tables() bit order; the default mask selects every alias). Self-joined
  /// tables appear once, in first-occurrence order. This is what the serving
  /// layer tags cache entries with so a data update to one base table can
  /// invalidate exactly the cached sub-plans that touch it.
  std::vector<std::string> BaseTables(uint64_t alias_mask = ~uint64_t{0}) const;

  /// Canonical order-insensitive fingerprint of tables + joins + filters.
  /// Filters that are Predicate::True() digest the same as absent filters,
  /// and both orientations of a join condition digest identically; a
  /// repeated join condition counts once per occurrence. This is
  /// SubplanFingerprinter(*this).Of(every alias) (query/fingerprint.h), so
  /// an induced sub-query's fingerprint equals Of() of its mask.
  QueryFingerprint Fingerprint() const;

  std::string ToString() const;

 private:
  std::vector<TableRef> tables_;
  std::vector<JoinCondition> joins_;
  std::unordered_map<std::string, PredicatePtr> filters_;
  std::unordered_map<std::string, size_t> alias_index_;
};

}  // namespace fj
