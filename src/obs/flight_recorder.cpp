#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

#include "obs/metrics_registry.h"

namespace fj::obs {
namespace {

void CopyName(char* dst, size_t dst_size, const char* src) {
  std::strncpy(dst, src != nullptr ? src : "", dst_size - 1);
  dst[dst_size - 1] = '\0';
}

void AppendRecordJson(std::string* out, const FlightRecord& r) {
  AppendF(out,
          "{\"seq\":%" PRIu64 ",\"t_us\":%" PRIu64 ",\"total_us\":%" PRIu64,
          r.seq, r.t_micros, r.total_micros);
  AppendF(out, ",\"model\":\"%s\"", r.model);
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
std::string RenderFlightRecordsJson(const std::vector<FlightRecord>& records) {
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ',';
    AppendRecordJson(&out, records[i]);
  }
  out += "]";
  return out;
}

}  // namespace

Stage FlightRecord::DominantStage() const {
  size_t best = 0;
  for (size_t i = 1; i < kNumStages; ++i) {
    if (stage_micros[i] > stage_micros[best]) best = i;
  }
  return static_cast<Stage>(best);
}

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(capacity > 0 ? capacity : 1) {}

void FlightRecorder::Append(const QueryFingerprint& fingerprint, size_t masks,
                            const char* model, const RequestTrace& trace) {
  FlightRecord record;
  // Ticket 0 is reserved as "slot never written".
  record.seq = ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.t_micros = MonotonicMicros();
  record.total_micros = trace.total_micros;
  record.stage_micros = trace.stage_micros;
  record.fp_lo = fingerprint.lo;
  record.fp_hi = fingerprint.hi;
  record.masks = static_cast<uint32_t>(masks);
  CopyName(record.model, sizeof(record.model), model);

  Slot& slot = slots_[(record.seq - 1) % slots_.size()];
  uint8_t expected = 0;
  // Only a reader copying this exact slot ever holds the lock, and only
  // for a ~120-byte memcpy — spin, don't yield.
  while (!slot.lock.compare_exchange_weak(expected, 1,
                                          std::memory_order_acquire)) {
    expected = 0;
  }
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

std::vector<FlightRecord> FlightRecorder::Recent(size_t last_n) const {
  std::vector<FlightRecord> out;
  out.reserve(slots_.size() < last_n ? slots_.size() : last_n);
  uint64_t newest = ticket_.load(std::memory_order_relaxed);
  // Walk tickets newest → oldest; each slot is copied under its spinlock.
  // A slot being overwritten right now is skipped on contention grounds
  // only if its appender holds the lock for the copy — we spin like the
  // writer does, the critical section is tiny.
  for (uint64_t t = newest; t > 0 && out.size() < last_n &&
                            newest - t < slots_.size();
       --t) {
    const Slot& slot = slots_[(t - 1) % slots_.size()];
    uint8_t expected = 0;
    while (!slot.lock.compare_exchange_weak(expected, 1,
                                            std::memory_order_acquire)) {
      expected = 0;
    }
    FlightRecord copy = slot.record;
    slot.lock.store(0, std::memory_order_release);
    // The slot may have been lapped (overwritten by a newer ticket) or
    // never written; keep only real records, order stays newest-first by
    // construction even when lapped records slip in.
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
  std::string out;
  AppendF(&out, "{\"appended\":%" PRIu64 ",\"recent\":",
          appended());
  out += RenderFlightRecordsJson(Recent(max_recent));
  out += ",\"slowest\":";
  out += RenderFlightRecordsJson(Slowest());
  out += "}";
  return out;
}

}  // namespace fj::obs
