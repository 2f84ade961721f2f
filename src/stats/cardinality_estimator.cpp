#include "stats/cardinality_estimator.h"

#include <stdexcept>

#include "util/bytes.h"

namespace fj {

namespace {

/// The default session: nothing shared, every mask estimated on its own.
class IndependentSession : public CardinalityEstimator::SubplanSession {
 public:
  IndependentSession(const CardinalityEstimator* owner, Query query)
      : owner_(owner), query_(std::move(query)) {}

  std::unordered_map<uint64_t, double> EstimateSubplans(
      const std::vector<uint64_t>& masks) const override {
    std::unordered_map<uint64_t, double> out;
    out.reserve(masks.size());
    for (uint64_t mask : masks) {
      out[mask] = owner_->Estimate(query_.InducedSubquery(mask));
    }
    return out;
  }

 private:
  const CardinalityEstimator* owner_;  // not owned; must outlive the session
  Query query_;
};

}  // namespace

std::unique_ptr<CardinalityEstimator::SubplanSession>
CardinalityEstimator::PrepareSubplans(const Query& query) const {
  return std::make_unique<IndependentSession>(this, query);
}

double CardinalityEstimator::ApplyInsert(const std::string& table_name,
                                         size_t /*first_new_row*/) {
  throw std::logic_error(Name() +
                         " does not support incremental inserts (table " +
                         table_name + "); retrain instead");
}

double CardinalityEstimator::ApplyDelete(const std::string& table_name,
                                         size_t /*first_deleted_row*/) {
  throw std::logic_error(Name() +
                         " does not support incremental deletes (table " +
                         table_name + "); retrain instead");
}

size_t CardinalityEstimator::ModelSizeBytes() const {
  return SupportsSnapshot() ? SerializedModelSizeBytes() : 0;
}

void CardinalityEstimator::Save(ByteWriter& /*w*/) const {
  throw std::logic_error(Name() + " does not support model snapshots");
}

void CardinalityEstimator::Load(ByteReader& /*r*/) {
  throw std::logic_error(Name() + " does not support model snapshots");
}

size_t CardinalityEstimator::SerializedModelSizeBytes() const {
  ByteWriter counter = ByteWriter::Counting();
  Save(counter);
  return counter.size();
}

}  // namespace fj
