#include "query/filter_eval.h"

#include <algorithm>
#include <functional>
#include <string_view>

#include "util/like_match.h"

namespace fj {
namespace {

// Compares row r of `col` against `lit` under `op`. Null never matches a
// comparison (SQL three-valued logic collapsed to false).
bool CompareLeaf(const Column& col, size_t r, CmpOp op, const Literal& lit) {
  if (col.IsNull(r)) return false;
  // Strings compare by dictionary code for equality and by text otherwise;
  // equality is the common case in the benchmarks.
  if (col.type() == ColumnType::kString) {
    if (op == CmpOp::kEq || op == CmpOp::kNe) {
      int64_t code = col.pool()->Lookup(lit.s);
      bool eq = code >= 0 && col.IntAt(r) == code;
      return op == CmpOp::kEq ? eq : !eq;
    }
    int cmp = col.StringAt(r).compare(lit.s);
    switch (op) {
      case CmpOp::kLt: return cmp < 0;
      case CmpOp::kLe: return cmp <= 0;
      case CmpOp::kGt: return cmp > 0;
      case CmpOp::kGe: return cmp >= 0;
      default: return false;
    }
  }
  if (col.type() == ColumnType::kDouble) {
    double v = col.DoubleAt(r);
    double x = lit.type == ColumnType::kDouble ? lit.d
                                               : static_cast<double>(lit.i);
    switch (op) {
      case CmpOp::kEq: return v == x;
      case CmpOp::kNe: return v != x;
      case CmpOp::kLt: return v < x;
      case CmpOp::kLe: return v <= x;
      case CmpOp::kGt: return v > x;
      case CmpOp::kGe: return v >= x;
    }
    return false;
  }
  bool inside = LiteralCodes(col, op, lit).Contains(col.IntAt(r));
  return op == CmpOp::kNe ? !inside : inside;
}

}  // namespace

bool EvalRow(const Table& table, const Predicate& pred, size_t r) {
  using Kind = Predicate::Kind;
  switch (pred.kind()) {
    case Kind::kTrue:
      return true;
    case Kind::kCompare:
      return CompareLeaf(table.Col(pred.column()), r, pred.op(), pred.value());
    case Kind::kBetween: {
      const Column& col = table.Col(pred.column());
      return CompareLeaf(col, r, CmpOp::kGe, pred.lo()) &&
             CompareLeaf(col, r, CmpOp::kLe, pred.hi());
    }
    case Kind::kIn: {
      const Column& col = table.Col(pred.column());
      for (const Literal& lit : pred.set()) {
        if (CompareLeaf(col, r, CmpOp::kEq, lit)) return true;
      }
      return false;
    }
    case Kind::kLike: {
      const Column& col = table.Col(pred.column());
      if (col.IsNull(r) || col.type() != ColumnType::kString) return false;
      return LikeMatch(col.StringAt(r), pred.pattern());
    }
    case Kind::kNotLike: {
      const Column& col = table.Col(pred.column());
      if (col.IsNull(r) || col.type() != ColumnType::kString) return false;
      return !LikeMatch(col.StringAt(r), pred.pattern());
    }
    case Kind::kIsNull:
      return table.Col(pred.column()).IsNull(r);
    case Kind::kIsNotNull:
      return !table.Col(pred.column()).IsNull(r);
    case Kind::kAnd:
      for (const auto& c : pred.children()) {
        if (!EvalRow(table, *c, r)) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& c : pred.children()) {
        if (EvalRow(table, *c, r)) return true;
      }
      return false;
    case Kind::kNot:
      return !EvalRow(table, *pred.children()[0], r);
  }
  return false;
}

CompiledPredicate::CompiledPredicate(const Table& table,
                                     const Predicate& pred)
    : num_rows_(table.num_rows()) {
  nodes_.reserve(4);
  Compile(table, pred);
}

uint32_t CompiledPredicate::Compile(const Table& table, const Predicate& pred) {
  using Kind = Predicate::Kind;
  uint32_t idx = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  Node n;  // built locally: recursion below may reallocate nodes_
  n.kind = pred.kind();

  // Mirrors CompareLeaf's per-row literal coercion, done once: int columns
  // select the codes in [i, i_hi] (LiteralCodes), double columns widen int
  // literals, string equality resolves the literal to its dictionary code
  // (-1 when the value never occurs — such a comparison can only match
  // negatively).
  auto widen = [](const Literal& lit) {
    return lit.type == ColumnType::kDouble ? lit.d
                                           : static_cast<double>(lit.i);
  };

  switch (pred.kind()) {
    case Kind::kTrue:
      break;
    case Kind::kCompare: {
      n.col = &table.Col(pred.column());
      n.op = pred.op();
      const Literal& lit = pred.value();
      if (n.col->type() == ColumnType::kInt64) {
        CodeRange codes = LiteralCodes(*n.col, n.op, lit);
        n.i = codes.lo;
        n.i_hi = codes.hi;
      } else if (n.col->type() == ColumnType::kDouble) {
        n.d = widen(lit);
      } else if (n.op == CmpOp::kEq || n.op == CmpOp::kNe) {
        n.i = n.col->pool()->Lookup(lit.s);
      } else {
        n.text = lit.s;
      }
      break;
    }
    case Kind::kBetween:
      n.col = &table.Col(pred.column());
      if (n.col->type() == ColumnType::kInt64) {
        CodeRange codes = BetweenCodes(*n.col, pred.lo(), pred.hi());
        n.i = codes.lo;
        n.i_hi = codes.hi;
      } else if (n.col->type() == ColumnType::kDouble) {
        n.d = widen(pred.lo());
        n.d_hi = widen(pred.hi());
      } else {
        n.text = pred.lo().s;
        n.text_hi = pred.hi().s;
      }
      break;
    case Kind::kIn:
      n.col = &table.Col(pred.column());
      for (const Literal& lit : pred.set()) {
        if (n.col->type() == ColumnType::kDouble) {
          n.set_doubles.push_back(widen(lit));
          continue;
        }
        int64_t code = 0;
        if (n.col->type() == ColumnType::kInt64) {
          // A literal with no code (beyond the code space, or NaN) can
          // never be equal, so it is dropped.
          CodeRange codes = LiteralCodes(*n.col, CmpOp::kEq, lit);
          if (codes.empty()) continue;
          code = codes.lo;
        } else {
          // A string literal absent from the dictionary (code -1) can never
          // match (CompareLeaf's `code >= 0` guard), so it is dropped.
          code = n.col->pool()->Lookup(lit.s);
          if (code < 0) continue;
        }
        n.set_ints.push_back(code);
      }
      break;
    case Kind::kLike:
    case Kind::kNotLike:
      n.col = &table.Col(pred.column());
      ClassifyLike(pred.pattern(), *n.col, &n);
      break;
    case Kind::kIsNull:
    case Kind::kIsNotNull:
      n.col = &table.Col(pred.column());
      break;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot: {
      std::vector<uint32_t> kids;
      kids.reserve(pred.children().size());
      for (const auto& c : pred.children()) {
        kids.push_back(Compile(table, *c));
      }
      // Short-circuit the cheap tests first: predicates are pure, so the
      // evaluation ORDER of an AND/OR's children never changes the result —
      // but running integer compares before LIKE scans means most rows
      // never reach the string matcher. Stable sort keeps compile
      // deterministic among equal-cost children.
      if (pred.kind() != Kind::kNot) {
        std::stable_sort(kids.begin(), kids.end(),
                         [this](uint32_t a, uint32_t b) {
                           return EvalCost(a) < EvalCost(b);
                         });
      }
      n.child_begin = static_cast<uint32_t>(children_.size());
      n.child_count = static_cast<uint32_t>(kids.size());
      children_.insert(children_.end(), kids.begin(), kids.end());
      // OR keeps four block buffers (child hits, rows left, matches so far
      // and the merge target), NOT one (its child's hits).
      if (pred.kind() != Kind::kAnd) {
        n.scratch = static_cast<uint32_t>(scratch_.size());
        scratch_.resize(scratch_.size() +
                        (pred.kind() == Kind::kOr ? 4 : 1) * kBlockRows);
      }
      break;
    }
  }
  // String leaves that compare text are decided once per dictionary code.
  bool by_code = false;
  if (n.col != nullptr && n.col->type() == ColumnType::kString) {
    switch (n.kind) {
      case Kind::kCompare:
        by_code = n.op != CmpOp::kEq && n.op != CmpOp::kNe;
        break;
      case Kind::kBetween:
        by_code = true;
        break;
      case Kind::kLike:
      case Kind::kNotLike:
        by_code = n.like_class != LikeClass::kAnyText &&
                  n.like_class != LikeClass::kExact;
        break;
      default:
        break;
    }
  }
  if (by_code) n.memo.assign(n.col->pool()->size(), 0);
  nodes_[idx] = std::move(n);
  return idx;
}

void CompiledPredicate::ClassifyLike(const std::string& pattern,
                                     const Column& col, Node* n) {
  n->like_class = LikeClass::kGenericLike;
  n->text = pattern;  // generic fallback keeps the full pattern
  if (pattern.find('_') != std::string::npos) return;
  size_t first = pattern.find('%');
  if (first == std::string::npos) {
    // No wildcards at all: LIKE degenerates to string equality, which on a
    // dictionary column is one integer compare against the resolved code.
    n->like_class = LikeClass::kExact;
    n->i = col.type() == ColumnType::kString && col.pool() != nullptr
               ? col.pool()->Lookup(pattern)
               : -1;
    return;
  }
  size_t last = pattern.rfind('%');
  std::string head = pattern.substr(0, first);
  std::string tail = pattern.substr(last + 1);
  // Everything between the outermost '%'s must be wildcard-free and either
  // empty or a single run bounded by '%' on both sides ("%needle%") for the
  // fast classes; anything else (e.g. "a%b%c") stays generic.
  std::string middle = pattern.substr(first, last - first + 1);
  size_t inner_segments = 0;
  std::string needle;
  for (size_t i = 0; i < middle.size();) {
    if (middle[i] == '%') {
      ++i;
      continue;
    }
    size_t j = middle.find('%', i);
    if (j == std::string::npos) return;  // cannot happen (middle ends in %)
    ++inner_segments;
    needle = middle.substr(i, j - i);
    i = j;
  }
  if (inner_segments > 1) return;
  if (inner_segments == 1) {
    if (!head.empty() || !tail.empty()) return;  // "a%b%c" shapes
    n->like_class = LikeClass::kContains;
    n->text = std::move(needle);
    return;
  }
  if (head.empty() && tail.empty()) {
    n->like_class = LikeClass::kAnyText;
  } else if (tail.empty()) {
    n->like_class = LikeClass::kPrefix;
    n->text = std::move(head);
  } else if (head.empty()) {
    n->like_class = LikeClass::kSuffix;
    n->text = std::move(tail);
  } else {
    n->like_class = LikeClass::kEdges;
    n->text = std::move(head);
    n->text_hi = std::move(tail);
  }
}

int CompiledPredicate::EvalCost(uint32_t idx) const {
  using Kind = Predicate::Kind;
  const Node& n = nodes_[idx];
  switch (n.kind) {
    case Kind::kTrue:
      return 0;
    case Kind::kIsNull:
    case Kind::kIsNotNull:
      return 1;
    case Kind::kCompare:
      // String equality is an integer code compare after resolution; string
      // ordering walks the text per row.
      if (n.col->type() == ColumnType::kString && n.op != CmpOp::kEq &&
          n.op != CmpOp::kNe) {
        return 8;
      }
      return 1;
    case Kind::kBetween:
      return n.col->type() == ColumnType::kString ? 10 : 2;
    case Kind::kIn:
      return 3;
    case Kind::kLike:
    case Kind::kNotLike:
      switch (n.like_class) {
        case LikeClass::kAnyText:
        case LikeClass::kExact:
          return 1;
        case LikeClass::kGenericLike:
          return 20;
        default:
          return 6;  // one find/starts_with/ends_with pass over the text
      }
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot: {
      int cost = 2;
      for (uint32_t c = 0; c < n.child_count; ++c) {
        cost += EvalCost(children_[n.child_begin + c]);
      }
      return cost;
    }
  }
  return 100;
}

namespace {

// One pass over a block: keeps the rows for which `test` holds, in order.
// `out` may be `rows`: entry j is read before any write at an index <= j.
template <typename Test>
size_t Keep(const uint32_t* rows, size_t n, uint32_t* out, Test test) {
  size_t k = 0;
  for (size_t j = 0; j < n; ++j) {
    uint32_t r = rows[j];
    out[k] = r;
    k += test(r) ? 1 : 0;
  }
  return k;
}

// Rows whose non-null code lies in [lo, hi] or, with `inside` false,
// outside it; `ints` is the column's code array (kNullInt64 marks a null).
size_t KeepCodes(const uint32_t* rows, size_t n, uint32_t* out,
                 const int64_t* ints, int64_t lo, int64_t hi, bool inside) {
  return Keep(rows, n, out, [=](uint32_t r) {
    int64_t v = ints[r];
    return (v != kNullInt64) & (((v >= lo) & (v <= hi)) == inside);
  });
}

// Rows whose non-null value compares `op` to `x`; `ints` is the column's
// code array (kNullInt64 marks a null) and `vals` its values.
template <typename T>
size_t KeepCompare(const uint32_t* rows, size_t n, uint32_t* out,
                   const int64_t* ints, const T* vals, CmpOp op, T x) {
  auto keep = [&](auto cmp) {
    return Keep(rows, n, out, [=](uint32_t r) {
      return (ints[r] != kNullInt64) & cmp(vals[r], x);
    });
  };
  switch (op) {
    case CmpOp::kEq: return keep(std::equal_to<T>());
    case CmpOp::kNe: return keep(std::not_equal_to<T>());
    case CmpOp::kLt: return keep(std::less<T>());
    case CmpOp::kLe: return keep(std::less_equal<T>());
    case CmpOp::kGt: return keep(std::greater<T>());
    case CmpOp::kGe: return keep(std::greater_equal<T>());
  }
  return 0;
}

// Rows whose non-null string satisfies `decide`, each dictionary code
// decided at most once: memo[c] is 0 until code c is decided, then 1 (no
// match) or 2 (match).
template <typename Decide>
size_t KeepByCode(const uint32_t* rows, size_t n, uint32_t* out,
                  const Column& col, std::vector<uint8_t>* memo,
                  Decide decide) {
  const int64_t* codes = col.ints().data();
  const StringPool& pool = *col.pool();
  uint8_t* m = memo->data();
  return Keep(rows, n, out, [&](uint32_t r) {
    int64_t c = codes[r];
    if (c == kNullInt64) return false;
    if (m[c] == 0) m[c] = decide(pool.Get(c)) ? 2 : 1;
    return m[c] == 2;
  });
}

// True iff a three-way string comparison result satisfies ordering `op`.
bool Ordered(int cmp, CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
    default: return false;
  }
}

// rows[0, n) without its subsequence sub[0, k), written to `out` (which
// may be `rows`).
size_t Without(const uint32_t* rows, size_t n, const uint32_t* sub, size_t k,
               uint32_t* out) {
  size_t w = 0, p = 0;
  for (size_t j = 0; j < n; ++j) {
    uint32_t r = rows[j];
    if (p < k && sub[p] == r) {
      ++p;
    } else {
      out[w++] = r;
    }
  }
  return w;
}

}  // namespace

size_t CompiledPredicate::SelectNode(uint32_t idx, const uint32_t* rows,
                                     size_t n, uint32_t* out) {
  using Kind = Predicate::Kind;
  Node& node = nodes_[idx];
  switch (node.kind) {
    case Kind::kTrue:
      if (out != rows) std::copy_n(rows, n, out);
      return n;
    case Kind::kCompare:
      return SelectCompare(node, rows, n, out);
    case Kind::kBetween:
      return SelectBetween(node, rows, n, out);
    case Kind::kIn:
      return SelectIn(node, rows, n, out);
    case Kind::kLike:
    case Kind::kNotLike:
      return SelectLike(node, rows, n, out);
    case Kind::kIsNull: {
      const int64_t* ints = node.col->ints().data();
      return Keep(rows, n, out,
                  [=](uint32_t r) { return ints[r] == kNullInt64; });
    }
    case Kind::kIsNotNull: {
      const int64_t* ints = node.col->ints().data();
      return Keep(rows, n, out,
                  [=](uint32_t r) { return ints[r] != kNullInt64; });
    }
    case Kind::kAnd: {
      // Each child narrows the survivors of the previous one, in place.
      const uint32_t* in = rows;
      for (uint32_t c = 0; c < node.child_count && n > 0; ++c) {
        n = SelectNode(children_[node.child_begin + c], in, n, out);
        in = out;
      }
      if (in != out) std::copy_n(in, n, out);  // an AND of no children
      return n;
    }
    case Kind::kOr:
      return SelectOr(node, rows, n, out);
    case Kind::kNot: {
      uint32_t* hits = scratch_.data() + node.scratch;
      size_t h = SelectNode(children_[node.child_begin], rows, n, hits);
      return Without(rows, n, hits, h, out);
    }
  }
  return 0;
}

size_t CompiledPredicate::SelectOr(const Node& node, const uint32_t* rows,
                                   size_t n, uint32_t* out) {
  // `out` may be `rows`, so the matches are gathered in scratch and copied
  // out once every child has read its input.
  uint32_t* hits = scratch_.data() + node.scratch;
  uint32_t* rest = hits + kBlockRows;
  uint32_t* acc = rest + kBlockRows;
  uint32_t* spare = acc + kBlockRows;
  const uint32_t* left = rows;
  size_t num_left = n, k = 0;
  for (uint32_t c = 0; c < node.child_count && num_left > 0; ++c) {
    size_t h = SelectNode(children_[node.child_begin + c], left, num_left,
                          hits);
    if (h == 0) continue;
    k = static_cast<size_t>(std::merge(acc, acc + k, hits, hits + h, spare) -
                            spare);
    std::swap(acc, spare);
    if (c + 1 < node.child_count) {
      num_left = Without(left, num_left, hits, h, rest);
      left = rest;
    }
  }
  std::copy_n(acc, k, out);
  return k;
}

size_t CompiledPredicate::SelectCompare(Node& node, const uint32_t* rows,
                                        size_t n, uint32_t* out) {
  const Column& col = *node.col;
  const int64_t* ints = col.ints().data();
  switch (col.type()) {
    case ColumnType::kInt64:
      return KeepCodes(rows, n, out, ints, node.i, node.i_hi,
                       node.op != CmpOp::kNe);
    case ColumnType::kDouble:
      return KeepCompare(rows, n, out, ints, col.doubles().data(), node.op,
                         node.d);
    case ColumnType::kString:
      break;
  }
  // Equality compares dictionary codes (-1: literal absent, never equal);
  // ordering compares text, once per code.
  int64_t code = node.i;
  if (node.op == CmpOp::kEq) {
    if (code < 0) return 0;
    return Keep(rows, n, out, [=](uint32_t r) { return ints[r] == code; });
  }
  if (node.op == CmpOp::kNe) {
    return Keep(rows, n, out, [=](uint32_t r) {
      return (ints[r] != kNullInt64) & (ints[r] != code);
    });
  }
  const std::string& lit = node.text;
  CmpOp op = node.op;
  return KeepByCode(rows, n, out, col, &node.memo,
                    [&](const std::string& s) {
                      return Ordered(s.compare(lit), op);
                    });
}

size_t CompiledPredicate::SelectBetween(Node& node, const uint32_t* rows,
                                        size_t n, uint32_t* out) {
  const Column& col = *node.col;
  const int64_t* ints = col.ints().data();
  switch (col.type()) {
    case ColumnType::kInt64:
      return KeepCodes(rows, n, out, ints, node.i, node.i_hi, true);
    case ColumnType::kDouble: {
      const double* vals = col.doubles().data();
      double lo = node.d, hi = node.d_hi;
      return Keep(rows, n, out, [=](uint32_t r) {
        double v = vals[r];
        return (ints[r] != kNullInt64) & (v >= lo) & (v <= hi);
      });
    }
    case ColumnType::kString:
      break;
  }
  const std::string& lo = node.text;
  const std::string& hi = node.text_hi;
  return KeepByCode(rows, n, out, col, &node.memo,
                    [&](const std::string& s) {
                      return s.compare(lo) >= 0 && s.compare(hi) <= 0;
                    });
}

size_t CompiledPredicate::SelectIn(const Node& node, const uint32_t* rows,
                                   size_t n, uint32_t* out) const {
  const Column& col = *node.col;
  const int64_t* ints = col.ints().data();
  if (col.type() == ColumnType::kDouble) {
    const double* vals = col.doubles().data();
    const std::vector<double>& set = node.set_doubles;
    return Keep(rows, n, out, [&](uint32_t r) {
      return ints[r] != kNullInt64 &&
             std::find(set.begin(), set.end(), vals[r]) != set.end();
    });
  }
  // Int values, or the dictionary codes of the literals present.
  const std::vector<int64_t>& set = node.set_ints;
  return Keep(rows, n, out, [&](uint32_t r) {
    int64_t v = ints[r];
    return v != kNullInt64 && std::find(set.begin(), set.end(), v) != set.end();
  });
}

size_t CompiledPredicate::SelectLike(Node& node, const uint32_t* rows,
                                     size_t n, uint32_t* out) {
  const Column& col = *node.col;
  if (col.type() != ColumnType::kString) return 0;
  const int64_t* codes = col.ints().data();
  bool negate = node.kind == Predicate::Kind::kNotLike;
  switch (node.like_class) {
    case LikeClass::kAnyText:
      if (negate) return 0;
      return Keep(rows, n, out,
                  [=](uint32_t r) { return codes[r] != kNullInt64; });
    case LikeClass::kExact: {
      int64_t code = node.i;  // -1: pattern absent from the dictionary
      if (negate) {
        return Keep(rows, n, out, [=](uint32_t r) {
          return (codes[r] != kNullInt64) & (codes[r] != code);
        });
      }
      if (code < 0) return 0;
      return Keep(rows, n, out, [=](uint32_t r) { return codes[r] == code; });
    }
    default:
      break;
  }
  auto like = [&node](std::string_view s) {
    switch (node.like_class) {
      case LikeClass::kPrefix:
        return s.starts_with(node.text);
      case LikeClass::kSuffix:
        return s.ends_with(node.text);
      case LikeClass::kContains:
        return s.find(node.text) != std::string_view::npos;
      case LikeClass::kEdges:
        return s.size() >= node.text.size() + node.text_hi.size() &&
               s.starts_with(node.text) && s.ends_with(node.text_hi);
      default:
        return LikeMatch(s, node.text);
    }
  };
  return KeepByCode(rows, n, out, col, &node.memo,
                    [&](const std::string& s) { return like(s) != negate; });
}

std::vector<uint32_t> EvalSelection(const Table& table, const Predicate& pred) {
  std::vector<uint32_t> out;
  if (table.num_rows() == 0) return out;
  CompiledPredicate compiled(table, pred);
  compiled.SelectTable([&](const uint32_t* sel, size_t k) {
    out.insert(out.end(), sel, sel + k);
  });
  return out;
}

size_t CountMatches(const Table& table, const Predicate& pred) {
  size_t n = 0;
  if (table.num_rows() == 0) return n;
  CompiledPredicate compiled(table, pred);
  compiled.SelectTable([&](const uint32_t*, size_t k) { n += k; });
  return n;
}

}  // namespace fj
