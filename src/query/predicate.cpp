#include "query/predicate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace fj {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

Literal Literal::Int(int64_t v) {
  Literal l;
  l.type = ColumnType::kInt64;
  l.i = v;
  return l;
}

Literal Literal::Double(double v) {
  Literal l;
  l.type = ColumnType::kDouble;
  l.d = v;
  l.i = Column::DoubleToCode(v);
  return l;
}

Literal Literal::Str(std::string v) {
  Literal l;
  l.type = ColumnType::kString;
  l.s = std::move(v);
  return l;
}

CodeRange LiteralCodes(const Column& col, CmpOp op, const Literal& lit) {
  constexpr int64_t kMinCode = kNullInt64 + 1;
  constexpr int64_t kMaxCode = std::numeric_limits<int64_t>::max();
  const CodeRange kNone;
  // The literal's code, or the side of the code space it lies beyond.
  enum class Place { kCode, kBelow, kAbove } place = Place::kCode;
  int64_t x = 0;
  if (col.type() == ColumnType::kString) {
    if (lit.type != ColumnType::kString || col.pool() == nullptr) return kNone;
    x = col.pool()->Lookup(lit.s);
  } else if (col.type() == ColumnType::kInt64 &&
             lit.type == ColumnType::kInt64) {
    x = lit.i;
    if (x == kNullInt64) place = Place::kBelow;
  } else {
    double v = lit.type == ColumnType::kDouble ? lit.d
                                               : static_cast<double>(lit.i);
    if (std::isnan(v)) return kNone;
    if (col.type() == ColumnType::kDouble) {
      x = Column::DoubleToCode(v);
    } else if (v > -0x1p63 && v < 0x1p63) {  // 0x1p63 is 2^63
      x = std::llround(v);
    } else {
      x = kNullInt64;
    }
    if (x == kNullInt64) place = v > 0 ? Place::kAbove : Place::kBelow;
  }
  switch (op) {
    case CmpOp::kEq:
    case CmpOp::kNe:
      return place == Place::kCode ? CodeRange{x, x} : kNone;
    case CmpOp::kLt:
    case CmpOp::kLe:
      if (place != Place::kCode) {
        return place == Place::kAbove ? CodeRange{kMinCode, kMaxCode} : kNone;
      }
      // x - 1 cannot overflow: x is a code, so x >= kMinCode.
      return {kMinCode, op == CmpOp::kLt ? x - 1 : x};
    case CmpOp::kGt:
    case CmpOp::kGe:
      if (place != Place::kCode) {
        return place == Place::kBelow ? CodeRange{kMinCode, kMaxCode} : kNone;
      }
      if (op == CmpOp::kGe) return {x, kMaxCode};
      return x == kMaxCode ? kNone : CodeRange{x + 1, kMaxCode};
  }
  return kNone;
}

CodeRange BetweenCodes(const Column& col, const Literal& lo,
                       const Literal& hi) {
  CodeRange ge = LiteralCodes(col, CmpOp::kGe, lo);
  CodeRange le = LiteralCodes(col, CmpOp::kLe, hi);
  return {std::max(ge.lo, le.lo), std::min(ge.hi, le.hi)};
}

std::string Literal::ToString() const {
  switch (type) {
    case ColumnType::kInt64: return std::to_string(i);
    case ColumnType::kDouble: return std::to_string(d);
    case ColumnType::kString: return "'" + s + "'";
  }
  return "?";
}

PredicatePtr Predicate::True() {
  return PredicatePtr(new Predicate(Kind::kTrue));
}

PredicatePtr Predicate::Cmp(std::string column, CmpOp op, Literal value) {
  auto p = new Predicate(Kind::kCompare);
  p->column_ = std::move(column);
  p->op_ = op;
  p->value_ = std::move(value);
  return PredicatePtr(p);
}

PredicatePtr Predicate::Between(std::string column, Literal lo, Literal hi) {
  auto p = new Predicate(Kind::kBetween);
  p->column_ = std::move(column);
  p->value_ = std::move(lo);
  p->hi_ = std::move(hi);
  return PredicatePtr(p);
}

PredicatePtr Predicate::In(std::string column, std::vector<Literal> values) {
  auto p = new Predicate(Kind::kIn);
  p->column_ = std::move(column);
  p->set_ = std::move(values);
  return PredicatePtr(p);
}

PredicatePtr Predicate::Like(std::string column, std::string pattern) {
  auto p = new Predicate(Kind::kLike);
  p->column_ = std::move(column);
  p->pattern_ = std::move(pattern);
  return PredicatePtr(p);
}

PredicatePtr Predicate::NotLike(std::string column, std::string pattern) {
  auto p = new Predicate(Kind::kNotLike);
  p->column_ = std::move(column);
  p->pattern_ = std::move(pattern);
  return PredicatePtr(p);
}

PredicatePtr Predicate::IsNull(std::string column) {
  auto p = new Predicate(Kind::kIsNull);
  p->column_ = std::move(column);
  return PredicatePtr(p);
}

PredicatePtr Predicate::IsNotNull(std::string column) {
  auto p = new Predicate(Kind::kIsNotNull);
  p->column_ = std::move(column);
  return PredicatePtr(p);
}

PredicatePtr Predicate::And(std::vector<PredicatePtr> children) {
  if (children.empty()) return True();
  if (children.size() == 1) return children[0];
  auto p = new Predicate(Kind::kAnd);
  p->children_ = std::move(children);
  return PredicatePtr(p);
}

PredicatePtr Predicate::Or(std::vector<PredicatePtr> children) {
  if (children.empty()) return True();
  if (children.size() == 1) return children[0];
  auto p = new Predicate(Kind::kOr);
  p->children_ = std::move(children);
  return PredicatePtr(p);
}

PredicatePtr Predicate::Not(PredicatePtr child) {
  auto p = new Predicate(Kind::kNot);
  p->children_.push_back(std::move(child));
  return PredicatePtr(p);
}

void Predicate::CollectColumns(std::vector<std::string>* out) const {
  if (!column_.empty()) out->push_back(column_);
  for (const auto& c : children_) c->CollectColumns(out);
}

std::vector<std::string> Predicate::ReferencedColumns() const {
  std::vector<std::string> cols;
  CollectColumns(&cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

bool Predicate::IsConjunctive() const {
  switch (kind_) {
    case Kind::kOr:
    case Kind::kNot:
      return false;
    case Kind::kAnd:
      return std::all_of(children_.begin(), children_.end(),
                         [](const PredicatePtr& c) { return c->IsConjunctive(); });
    default:
      return true;
  }
}

bool Predicate::HasStringPattern() const {
  if (kind_ == Kind::kLike || kind_ == Kind::kNotLike) return true;
  return std::any_of(children_.begin(), children_.end(),
                     [](const PredicatePtr& c) { return c->HasStringPattern(); });
}

std::string Predicate::ToString() const {
  std::ostringstream out;
  switch (kind_) {
    case Kind::kTrue:
      out << "TRUE";
      break;
    case Kind::kCompare:
      out << column_ << " " << CmpOpName(op_) << " " << value_.ToString();
      break;
    case Kind::kBetween:
      out << column_ << " BETWEEN " << value_.ToString() << " AND "
          << hi_.ToString();
      break;
    case Kind::kIn: {
      out << column_ << " IN (";
      for (size_t i = 0; i < set_.size(); ++i) {
        if (i > 0) out << ", ";
        out << set_[i].ToString();
      }
      out << ")";
      break;
    }
    case Kind::kLike:
      out << column_ << " LIKE '" << pattern_ << "'";
      break;
    case Kind::kNotLike:
      out << column_ << " NOT LIKE '" << pattern_ << "'";
      break;
    case Kind::kIsNull:
      out << column_ << " IS NULL";
      break;
    case Kind::kIsNotNull:
      out << column_ << " IS NOT NULL";
      break;
    case Kind::kAnd:
    case Kind::kOr: {
      const char* sep = kind_ == Kind::kAnd ? " AND " : " OR ";
      out << "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out << sep;
        out << children_[i]->ToString();
      }
      out << ")";
      break;
    }
    case Kind::kNot:
      out << "NOT (" << children_[0]->ToString() << ")";
      break;
  }
  return out.str();
}

}  // namespace fj
