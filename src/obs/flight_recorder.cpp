#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "obs/metrics_registry.h"

namespace fj::obs {
namespace {

void AppendRecordJson(std::string* out, const FlightRecord& r) {
  AppendF(out,
          "{\"seq\":%" PRIu64 ",\"t_us\":%" PRIu64 ",\"total_us\":%" PRIu64,
          r.seq, r.t_micros, r.total_micros);
  AppendF(out, ",\"fp\":\"%016" PRIx64 "%016" PRIx64 "\",\"masks\":%u",
          r.fp_hi, r.fp_lo, r.masks);
  AppendF(out, ",\"dominant_stage\":\"%s\",\"stages\":{",
          StageName(r.DominantStage()));
  bool first = true;
  for (size_t i = 0; i < kNumStages; ++i) {
    if (r.stage_micros[i] == 0) continue;
    if (!first) *out += ',';
    first = false;
    AppendF(out, "\"%s\":%" PRIu64, StageName(static_cast<Stage>(i)),
            r.stage_micros[i]);
  }
  *out += "}}";
}

/// Renders records (as from Recent/Slowest) to a JSON array body.
void AppendRecordsJson(std::string* out,
                       const std::vector<FlightRecord>& records) {
  *out += '[';
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) *out += ',';
    AppendRecordJson(out, records[i]);
  }
  *out += ']';
}

/// Spins for a slot's one-byte lock: only a reader copying this exact slot
/// (or its next appender) ever holds it, and only for a ~100-byte copy.
void LockSlot(std::atomic<uint8_t>& lock) {
  uint8_t expected = 0;
  while (!lock.compare_exchange_weak(expected, 1,
                                     std::memory_order_acquire)) {
    expected = 0;
  }
}

}  // namespace

Stage FlightRecord::DominantStage() const {
  size_t best = 0;
  for (size_t i = 1; i < kNumStages; ++i) {
    if (stage_micros[i] > stage_micros[best]) best = i;
  }
  return static_cast<Stage>(best);
}

FlightRecorder::FlightRecorder(std::string model, uint64_t slow_micros,
                               std::FILE* sink,
                               std::function<uint64_t()> clock)
    : model_(model.empty() ? "default" : std::move(model)),
      slow_micros_(slow_micros),
      sink_(sink != nullptr ? sink : stderr),
      clock_(clock ? std::move(clock) : MonotonicMicros) {}

bool FlightRecorder::Record(const Query& query, size_t masks,
                            const RequestTrace& trace) {
  uint64_t offered = offered_.fetch_add(1, std::memory_order_relaxed);
  bool offender = slow_micros_ > 0 && trace.total_micros >= slow_micros_;
  if (!offender && offered % kFlightSampleEvery != 0) return false;

  FlightRecord record;
  // Ticket 0 is reserved as "slot never written".
  record.seq = ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.t_micros = clock_();
  record.total_micros = trace.total_micros;
  record.stage_micros = trace.stage_micros;
  // Fingerprinted only here: never for a request the recorder drops.
  QueryFingerprint fp = query.Fingerprint();
  record.fp_lo = fp.lo;
  record.fp_hi = fp.hi;
  record.masks = static_cast<uint32_t>(masks);
  Append(record);
  if (offender) WriteSlowLine(record);
  return true;
}

void FlightRecorder::Append(const FlightRecord& record) {
  Slot& slot = slots_[(record.seq - 1) % kFlightCapacity];
  LockSlot(slot.lock);
  slot.record = record;
  slot.lock.store(0, std::memory_order_release);

  // Slowest-per-window reservoir. The relaxed pre-check rejects the
  // common case (not the window's worst so far) without touching the
  // mutex; a stale best from a recycled slot only costs a spurious trip.
  uint64_t window_id = record.t_micros / kFlightWindowMicros;
  size_t w = static_cast<size_t>(window_id % kFlightWindowSlots);
  bool fresh_window =
      window_ids_[w].load(std::memory_order_relaxed) != window_id;
  if (fresh_window ||
      record.total_micros > window_best_[w].load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(window_mu_);
    WindowSlot& ws = windows_[w];
    if (ws.window_id != window_id ||
        record.total_micros > ws.record.total_micros) {
      ws.window_id = window_id;
      ws.record = record;
      window_ids_[w].store(window_id, std::memory_order_relaxed);
      window_best_[w].store(record.total_micros, std::memory_order_relaxed);
    }
  }
}

void FlightRecorder::WriteSlowLine(const FlightRecord& record) {
  // Build the line outside the lock; hold it only for the bucket update and
  // the single write.
  std::string line = "fj_slow_request model=" + model_;
  AppendF(&line, " fp=%016" PRIx64 "%016" PRIx64 " masks=%u total_us=%" PRIu64,
          record.fp_hi, record.fp_lo, record.masks, record.total_micros);
  for (size_t i = 0; i < kNumStages; ++i) {
    if (record.stage_micros[i] == 0) continue;
    AppendF(&line, " %s_us=%" PRIu64, StageName(static_cast<Stage>(i)),
            record.stage_micros[i]);
  }
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    uint64_t now = clock_();
    if (last_refill_micros_ == 0) last_refill_micros_ = now;
    if (now > last_refill_micros_) {
      tokens_ += static_cast<double>(now - last_refill_micros_) / 1e6 *
                 kSlowLogLinesPerSecond;
      if (tokens_ > kSlowLogBurst) tokens_ = kSlowLogBurst;
      last_refill_micros_ = now;
    }
    if (tokens_ < 1.0) {
      ++pending_suppressed_;
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    tokens_ -= 1.0;
    // Acknowledge any gap the limiter created before resuming, so the line
    // stream accounts for every offender.
    if (pending_suppressed_ > 0) {
      std::fprintf(sink_,
                   "fj_slow_request_suppressed model=%s suppressed=%" PRIu64
                   "\n",
                   model_.c_str(), pending_suppressed_);
      pending_suppressed_ = 0;
    }
    std::fprintf(sink_, "%s\n", line.c_str());
    std::fflush(sink_);
  }
  logged_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FlightRecord> FlightRecorder::Recent(size_t last_n) const {
  std::vector<FlightRecord> out;
  out.reserve(std::min(kFlightCapacity, last_n));
  uint64_t newest = ticket_.load(std::memory_order_relaxed);
  // Walk tickets newest → oldest; each slot is copied under its spinlock.
  for (uint64_t t = newest; t > 0 && out.size() < last_n &&
                            newest - t < kFlightCapacity;
       --t) {
    const Slot& slot = slots_[(t - 1) % kFlightCapacity];
    LockSlot(slot.lock);
    FlightRecord copy = slot.record;
    slot.lock.store(0, std::memory_order_release);
    // The slot may have been lapped (overwritten by a newer ticket) or not
    // yet written by its appender; keep only real records. Order stays
    // newest-first by construction even when lapped records slip in.
    if (copy.seq != 0) out.push_back(copy);
  }
  return out;
}

std::vector<FlightRecord> FlightRecorder::Slowest() const {
  std::lock_guard<std::mutex> lock(window_mu_);
  std::vector<FlightRecord> out;
  out.reserve(windows_.size());
  for (const WindowSlot& ws : windows_) {
    if (ws.record.seq != 0) out.push_back(ws.record);
  }
  // Newest window first.
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.t_micros > b.t_micros;
            });
  return out;
}

std::string FlightRecorder::DumpJson(size_t max_recent) const {
  std::string out = "{\"model\":\"" + Escape(model_) + "\"";
  AppendF(&out, ",\"appended\":%" PRIu64 ",\"recent\":", appended());
  AppendRecordsJson(&out, Recent(max_recent));
  out += ",\"slowest\":";
  AppendRecordsJson(&out, Slowest());
  out += '}';
  return out;
}

}  // namespace fj::obs
