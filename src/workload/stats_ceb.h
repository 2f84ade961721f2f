// Synthetic stand-in for the STATS-CEB benchmark (Han et al., VLDB'21):
// an 8-table Stack-Exchange-like schema with the same join-key structure
// (two equivalent key groups around users.Id and posts.Id, 13 join keys),
// Zipf-skewed foreign-key fan-outs, correlated attributes, and a query
// workload of star/chain templates with numeric/categorical filters.
//
// Substitution note (docs/BENCHMARKS.md): the real STATS dump is not available
// offline; this generator reproduces the properties the paper's evaluation
// depends on — key skew, attribute correlation, template variety and a wide
// true-cardinality range — at a configurable scale.
#pragma once

#include <memory>
#include <vector>

#include "query/query.h"
#include "storage/database.h"

namespace fj {

struct StatsCebOptions {
  /// Rows scale: 1.0 gives ~10k users / ~22k posts / ~80k votes.
  double scale = 1.0;
  size_t num_queries = 146;
  size_t num_templates = 70;
  size_t max_tables_per_query = 6;
  /// Queries whose true result exceeds this are rejected at generation time
  /// (they would be inexecutable under any plan on the harness; the paper's
  /// testbed equivalent is queries that run for hours).
  uint64_t max_true_cardinality = 6'000'000;
  uint64_t seed = 2023;
};

struct Workload {
  std::string name;
  Database db;
  std::vector<Query> queries;
};

/// Builds the database and query workload. Deterministic per seed.
std::unique_ptr<Workload> MakeStatsCeb(const StatsCebOptions& options = {});

}  // namespace fj
