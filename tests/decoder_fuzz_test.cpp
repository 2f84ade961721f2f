// Seeded mutation test of the decoders that read bytes from a peer or a
// file: the wire codecs a server or client runs on received frames, and the
// open-loop trace format. Each decoder starts from one valid encoding; a
// fixed number of mutants (byte flips, truncations and splices) is derived
// from it with fj::Rng under a fixed seed. Every mutant must either decode
// or throw SerializeError (net::ProtocolError is the same type) — any other
// exception, a crash, or (in a sanitized build) a memory or UB report is a
// decoder bug. Deterministic: the same mutants on every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "obs/request_trace.h"
#include "query/query.h"
#include "service/service_stats.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "workload/loadgen.h"

namespace fj {
namespace {

constexpr uint64_t kSeed = 7919;
constexpr size_t kMutants = 20'000;

// One mutant of `good`: 1-4 byte flips, a truncation, or a splice (a slice
// of the encoding copied over, or inserted at, another offset).
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& good, Rng& rng) {
  std::vector<uint8_t> m = good;
  if (m.empty()) return m;
  switch (rng.Below(4)) {
    case 0: {
      uint64_t flips = 1 + rng.Below(4);
      for (uint64_t f = 0; f < flips; ++f) {
        m[rng.Below(m.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
      }
      break;
    }
    case 1:
      m.resize(rng.Below(m.size()));
      break;
    case 2: {  // overwrite: good[from, from + len) lands at `to`
      size_t from = rng.Below(good.size());
      size_t to = rng.Below(m.size());
      size_t len = 1 + rng.Below(std::min<size_t>(16, good.size() - from));
      for (size_t i = 0; i < len && to + i < m.size(); ++i) {
        m[to + i] = good[from + i];
      }
      break;
    }
    default: {  // insert: good[from, from + len) is inserted at `to`
      size_t from = rng.Below(good.size());
      size_t to = rng.Below(m.size() + 1);
      size_t len = 1 + rng.Below(std::min<size_t>(16, good.size() - from));
      m.insert(m.begin() + static_cast<long>(to),
               good.begin() + static_cast<long>(from),
               good.begin() + static_cast<long>(from + len));
      break;
    }
  }
  return m;
}

// Feeds `mutants` mutants of `good` to `decode`; fails on the first one
// that throws anything but SerializeError.
void FuzzDecoder(const std::vector<uint8_t>& good,
                 const std::function<void(const std::vector<uint8_t>&)>& decode,
                 size_t mutants = kMutants) {
  ASSERT_NO_THROW(decode(good)) << "the seed encoding must decode";
  Rng rng(kSeed);
  size_t rejected = 0;
  for (size_t i = 0; i < mutants; ++i) {
    std::vector<uint8_t> m = Mutate(good, rng);
    try {
      decode(m);
    } catch (const SerializeError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw a non-SerializeError: " << e.what();
    }
  }
  // Most mutants of a tight encoding are malformed; a decoder that rejects
  // none is not reading what it is given.
  EXPECT_GT(rejected, 0u);
}

// A filtered three-alias chain query.
Query ThreeAliasQuery() {
  Query q;
  q.AddTable("users", "u").AddTable("orders", "o").AddTable("items", "i");
  q.AddJoin("u", "id", "o", "user_id");
  q.AddJoin("o", "item_id", "i", "id");
  q.SetFilter("u", Predicate::And(
                       {Predicate::Cmp("age", CmpOp::kGt, Literal::Int(30)),
                        Predicate::In("city", {Literal::Str("Oslo"),
                                               Literal::Str("Lima")})}));
  q.SetFilter("o", Predicate::Between("amount", Literal::Double(1.5),
                                      Literal::Double(250.0)));
  q.SetFilter("i", Predicate::Like("name", "%phone%"));
  return q;
}

obs::RequestTrace SomeTrace() {
  obs::RequestTrace trace;
  trace.total_micros = 1234;
  trace.Add(obs::Stage::kQueueWait, 10);
  trace.Add(obs::Stage::kCacheProbe, 200);
  trace.Add(obs::Stage::kEstimate, 1000);
  return trace;
}

TEST(DecoderFuzzTest, Hello) {
  FuzzDecoder(net::EncodeHello({}),
              [](const auto& b) { net::DecodeHello(b); });
}

TEST(DecoderFuzzTest, SubplansRequest) {
  Query q = ThreeAliasQuery();
  FuzzDecoder(net::EncodeSubplansReq("m1", q, {1, 3, 6, 7}, true),
              [](const auto& b) { net::DecodeSubplansReq(b); },
              2 * kMutants);
}

TEST(DecoderFuzzTest, NotifyUpdateRequest) {
  FuzzDecoder(net::EncodeNotifyUpdateReq("m1", "orders"),
              [](const auto& b) { net::DecodeNotifyUpdateReq(b); });
}

TEST(DecoderFuzzTest, SubplansResponseWithTrace) {
  std::vector<uint8_t> body =
      net::EncodeSubplansRespBody({{1, 10.0}, {3, 2.5e6}, {7, 0.5}});
  obs::RequestTrace trace = SomeTrace();
  net::AppendRespTrace(&body, &trace);
  FuzzDecoder(body, [](const auto& b) { net::DecodeSubplansRespFull(b); });
}

TEST(DecoderFuzzTest, ServiceStats) {
  ServiceStats stats;
  uint64_t value = 1;
  for (const ServiceCounter& counter : kServiceCounters) {
    counter.Of(stats) = value *= 3;
  }
  obs::LatencyHistogram latency;
  for (uint64_t v : {5, 80, 900, 40000}) latency.Record(v);
  stats.latency = latency.Snapshot();
  stats.stages[static_cast<size_t>(obs::Stage::kEstimate)] =
      latency.Snapshot();
  FuzzDecoder(net::EncodeServiceStats(stats),
              [](const auto& b) { net::DecodeServiceStats(b); });
}

TEST(DecoderFuzzTest, LoadTrace) {
  Trace trace;
  trace.workload = "stats";
  trace.seed = 42;
  trace.theta = 0.99;
  trace.schedule = ArrivalSchedule::Constant(1000).ToString();
  trace.ops = {{0, LoadOpKind::kRead, 3, 0},
               {1000, LoadOpKind::kInsert, 1, 256},
               {2000, LoadOpKind::kDelete, 2, 64},
               {3000, LoadOpKind::kRead, 0, 0}};
  FuzzDecoder(SerializeTrace(trace),
              [](const auto& b) { DeserializeTrace(b); });
}

}  // namespace
}  // namespace fj
