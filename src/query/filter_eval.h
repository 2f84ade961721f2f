// Predicate evaluation against a Table: row-at-a-time checks, full-table
// selection vectors and counts, and a compiled block-at-a-time form that
// every scan runs through.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "query/predicate.h"
#include "storage/table.h"

namespace fj {

/// Returns true iff row `r` of `table` satisfies `pred`.
bool EvalRow(const Table& table, const Predicate& pred, size_t r);

/// A predicate resolved against a fixed table for block-at-a-time scans:
/// column names are bound to Column pointers, string literals to dictionary
/// codes, and literal type coercions are done ONCE at compile time instead
/// of per row — EvalRow redoes a string-keyed column lookup (and, for
/// string equality, a dictionary probe) per predicate node per row.
///
/// Select() takes a block of ascending row ids and returns the matching
/// ones: AND narrows the selection child by child (cheapest first), OR
/// runs each child on the rows no earlier child matched and merges, NOT
/// complements within its input, and each leaf is one loop with its column
/// type and operator fixed outside it. String LIKE / NOT LIKE, ordering and
/// BETWEEN leaves decide each dictionary code once per compiled predicate
/// (a one-byte memo per dictionary entry); a null never matches.
///
/// The selection is exactly {r in rows : EvalRow(table, pred, r)} (the
/// differential and golden estimate tests pin this). The compiled form
/// borrows the table's columns (the table must outlive it) and copies
/// everything it needs from the predicate. Select() fills memos and
/// scratch buffers, so one instance serves one scan on one thread.
class CompiledPredicate {
 public:
  /// Most row ids one Select() call takes.
  static constexpr size_t kBlockRows = 1024;

  /// Resolves `pred` against `table`; throws std::out_of_range on a column
  /// name the table does not have (EvalRow would throw the same on the
  /// first evaluated row).
  CompiledPredicate(const Table& table, const Predicate& pred);

  /// Writes the ids among rows[0, n) that satisfy the predicate to `out`,
  /// in ascending order, and returns their count. `rows` is strictly
  /// ascending, n <= kBlockRows, and `out` holds n ids; it may be `rows`.
  size_t Select(const uint32_t* rows, size_t n, uint32_t* out) {
    return n == 0 ? 0 : SelectNode(0, rows, n, out);
  }

  /// Selects among rows[0, n) (strictly ascending, any n) one block at a
  /// time and calls fn(first, sel, k) per block: `first` is the index in
  /// `rows` of the block's first row, sel[0, k) are its matches.
  template <typename Fn>
  void SelectBlocks(const uint32_t* rows, size_t n, Fn&& fn) {
    uint32_t sel[kBlockRows];
    for (size_t first = 0; first < n; first += kBlockRows) {
      size_t len = std::min(kBlockRows, n - first);
      fn(first, sel, Select(rows + first, len, sel));
    }
  }

  /// Selects among all rows of the table one block at a time and calls
  /// fn(sel, k) per block with its matches sel[0, k), ascending.
  template <typename Fn>
  void SelectTable(Fn&& fn) {
    uint32_t sel[kBlockRows];
    for (size_t first = 0; first < num_rows_; first += kBlockRows) {
      size_t len = std::min(kBlockRows, num_rows_ - first);
      for (size_t j = 0; j < len; ++j) {
        sel[j] = static_cast<uint32_t>(first + j);
      }
      fn(sel, Select(sel, len, sel));
    }
  }

 private:
  /// Compile-time classification of a LIKE pattern into the common shapes
  /// that admit an O(|text|) (or O(1)) check; kGenericLike falls back to
  /// the full backtracking matcher. Every class is boolean-identical to
  /// LikeMatch on the original pattern.
  enum class LikeClass : uint8_t {
    kGenericLike,  // pattern has '_' or an unhandled '%' structure
    kAnyText,      // "%", "%%", ... — matches every non-null string
    kExact,        // no wildcards — dictionary-code equality
    kPrefix,       // "needle%..%"
    kSuffix,       // "%..%needle"
    kContains,     // "%..%needle%..%"
    kEdges,        // "head%..%tail"
  };

  struct Node {
    Predicate::Kind kind = Predicate::Kind::kTrue;
    CmpOp op = CmpOp::kEq;
    LikeClass like_class = LikeClass::kGenericLike;
    const Column* col = nullptr;  // borrowed from the table
    // Resolved right-hand sides (which are used depends on kind and column
    // type): `i`/`i_hi` for the code range an int comparison selects
    // (LiteralCodes; kNe keeps the codes outside it) and for string
    // equality codes (`i` only; -1 = literal absent from the dictionary,
    // never matches), `d`/`d_hi` for double comparisons, `text`/`text_hi`
    // for string ordering comparisons and LIKE patterns.
    int64_t i = 0, i_hi = 0;
    double d = 0.0, d_hi = 0.0;
    std::string text, text_hi;
    std::vector<int64_t> set_ints;   // IN: int values or present string codes
    std::vector<double> set_doubles; // IN over a double column
    uint32_t child_begin = 0, child_count = 0;  // kAnd/kOr/kNot
    // String leaves decided per dictionary code: 0 = not yet, 1 = no
    // match, 2 = match; one byte per dictionary entry.
    std::vector<uint8_t> memo;
    uint32_t scratch = 0;  // kOr/kNot: offset of its buffers in scratch_
  };

  uint32_t Compile(const Table& table, const Predicate& pred);
  /// Static per-row cost rank of a compiled subtree, used to order AND/OR
  /// children cheapest-first (a pure-predicate reordering: the selected
  /// SET is order-independent, only the work done per row changes).
  int EvalCost(uint32_t idx) const;
  static void ClassifyLike(const std::string& pattern, const Column& col,
                           Node* n);
  size_t SelectNode(uint32_t idx, const uint32_t* rows, size_t n,
                    uint32_t* out);
  size_t SelectCompare(Node& n, const uint32_t* rows, size_t count,
                       uint32_t* out);
  size_t SelectBetween(Node& n, const uint32_t* rows, size_t count,
                       uint32_t* out);
  size_t SelectIn(const Node& n, const uint32_t* rows, size_t count,
                  uint32_t* out) const;
  size_t SelectLike(Node& n, const uint32_t* rows, size_t count,
                    uint32_t* out);
  size_t SelectOr(const Node& n, const uint32_t* rows, size_t count,
                  uint32_t* out);

  std::vector<Node> nodes_;       // nodes_[0] is the root
  std::vector<uint32_t> children_;
  std::vector<uint32_t> scratch_;  // kBlockRows-id buffers for OR and NOT
  size_t num_rows_ = 0;            // the table's, at compile time
};

/// Matching row ids in ascending order.
std::vector<uint32_t> EvalSelection(const Table& table, const Predicate& pred);

/// Number of matching rows.
size_t CountMatches(const Table& table, const Predicate& pred);

}  // namespace fj
