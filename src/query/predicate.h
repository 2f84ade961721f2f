// Filter predicate AST over a single table.
//
// Supports the predicate classes exercised by the paper's benchmarks:
// comparisons and ranges on numeric/categorical attributes (STATS-CEB),
// plus IN lists, disjunctions and string LIKE patterns (IMDB-JOB).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/column.h"

namespace fj {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// A literal constant in a predicate; resolved against the column's actual
/// type at evaluation time (strings through the column's dictionary).
struct Literal {
  ColumnType type = ColumnType::kInt64;
  int64_t i = 0;
  double d = 0.0;
  std::string s;

  static Literal Int(int64_t v);
  static Literal Double(double v);
  static Literal Str(std::string v);

  std::string ToString() const;
};

/// A closed range [lo, hi] of column codes (Column::IntAt); empty when
/// lo > hi.
struct CodeRange {
  int64_t lo = 1;
  int64_t hi = 0;

  bool empty() const { return lo > hi; }
  bool Contains(int64_t code) const { return lo <= code && code <= hi; }
};

/// The codes c of `col` for which `c op lit` holds: the one literal-to-code
/// coercion of every reader of codes (the row-at-a-time filter and the
/// compiled kernel on int columns, the column histogram and the BayesNet
/// discretizer on every column). kNe is answered as kEq: its matches are
/// the non-null codes outside the range.
///
/// A numeric literal in the code space keeps its code (llround on an int
/// column, Column::DoubleToCode on a double column). One beyond it (or the
/// null code itself) compares by its sign: above every code or below every
/// code. NaN matches no code, so only kNe holds for it, as on a double
/// column's values. A string column resolves a string literal through its
/// dictionary (-1, a code no row has, when absent); any other literal
/// matches no code there.
CodeRange LiteralCodes(const Column& col, CmpOp op, const Literal& lit);

/// The codes of `col` in [lo, hi]: LiteralCodes(kGe, lo) ∩ LiteralCodes(kLe,
/// hi).
CodeRange BetweenCodes(const Column& col, const Literal& lo,
                       const Literal& hi);

/// Immutable predicate node. Build via the static factory functions; share
/// freely via PredicatePtr.
class Predicate {
 public:
  enum class Kind {
    kTrue,     // matches every row
    kCompare,  // column op literal
    kBetween,  // lo <= column <= hi
    kIn,       // column in {literals}
    kLike,     // column LIKE pattern
    kNotLike,  // column NOT LIKE pattern
    kIsNull,
    kIsNotNull,
    kAnd,
    kOr,
    kNot,
  };

  static PredicatePtr True();
  static PredicatePtr Cmp(std::string column, CmpOp op, Literal value);
  static PredicatePtr Between(std::string column, Literal lo, Literal hi);
  static PredicatePtr In(std::string column, std::vector<Literal> values);
  static PredicatePtr Like(std::string column, std::string pattern);
  static PredicatePtr NotLike(std::string column, std::string pattern);
  static PredicatePtr IsNull(std::string column);
  static PredicatePtr IsNotNull(std::string column);
  static PredicatePtr And(std::vector<PredicatePtr> children);
  static PredicatePtr Or(std::vector<PredicatePtr> children);
  static PredicatePtr Not(PredicatePtr child);

  Kind kind() const { return kind_; }
  const std::string& column() const { return column_; }
  CmpOp op() const { return op_; }
  const Literal& value() const { return value_; }
  const Literal& lo() const { return value_; }
  const Literal& hi() const { return hi_; }
  const std::vector<Literal>& set() const { return set_; }
  const std::string& pattern() const { return pattern_; }
  const std::vector<PredicatePtr>& children() const { return children_; }

  /// Columns mentioned anywhere in the tree (deduplicated).
  std::vector<std::string> ReferencedColumns() const;

  /// True when the tree contains only conjunctions of leaf predicates (the
  /// class Bayesian-network estimators support directly).
  bool IsConjunctive() const;

  /// True when the tree contains any LIKE / NOT LIKE leaf.
  bool HasStringPattern() const;

  std::string ToString() const;

 private:
  explicit Predicate(Kind kind) : kind_(kind) {}

  void CollectColumns(std::vector<std::string>* out) const;

  Kind kind_;
  std::string column_;
  CmpOp op_ = CmpOp::kEq;
  Literal value_;
  Literal hi_;
  std::vector<Literal> set_;
  std::string pattern_;
  std::vector<PredicatePtr> children_;
};

}  // namespace fj
