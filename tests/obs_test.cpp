// src/obs/ unit tests: histogram bucket geometry and quantile accuracy
// (against a sorted-vector oracle), snapshot merge/delta algebra,
// lock-free recording under concurrency, the trace and histogram wire
// codecs (including hostile input), the flight recorder's slow-line format,
// and the metrics registry + HTTP endpoint.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"
#include "obs/metrics_http.h"
#include "obs/metrics_registry.h"
#include "obs/request_trace.h"
#include "query/query.h"
#include "util/bytes.h"

namespace fj::obs {
namespace {

// ------------------------------------------------------- bucket geometry

TEST(HistogramBucketsTest, LowValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < HistogramBuckets::kSubBuckets; ++v) {
    size_t i = HistogramBuckets::Index(v);
    EXPECT_EQ(i, static_cast<size_t>(v));
    EXPECT_EQ(HistogramBuckets::LowerBound(i), v);
    EXPECT_EQ(HistogramBuckets::UpperBound(i), v);
  }
}

TEST(HistogramBucketsTest, EveryBucketContainsItsOwnBounds) {
  for (size_t i = 0; i < HistogramBuckets::kNumBuckets; ++i) {
    uint64_t lo = HistogramBuckets::LowerBound(i);
    uint64_t hi = HistogramBuckets::UpperBound(i);
    EXPECT_LE(lo, hi) << "bucket " << i;
    EXPECT_EQ(HistogramBuckets::Index(lo), i) << "bucket " << i;
    EXPECT_EQ(HistogramBuckets::Index(hi), i) << "bucket " << i;
  }
}

TEST(HistogramBucketsTest, BucketsTileTheValueRangeWithoutGaps) {
  // Bucket i+1 starts exactly one past bucket i's inclusive upper bound.
  for (size_t i = 0; i + 1 < HistogramBuckets::kNumBuckets; ++i) {
    EXPECT_EQ(HistogramBuckets::LowerBound(i + 1),
              HistogramBuckets::UpperBound(i) + 1)
        << "bucket " << i;
  }
  EXPECT_EQ(HistogramBuckets::UpperBound(HistogramBuckets::kNumBuckets - 1),
            HistogramBuckets::kMaxValue);
}

TEST(HistogramBucketsTest, IndexIsMonotoneAcrossBucketEdges) {
  // Exhaustive over the first few octaves, then spot-check edges above.
  size_t prev = 0;
  for (uint64_t v = 0; v < (uint64_t{1} << 12); ++v) {
    size_t i = HistogramBuckets::Index(v);
    EXPECT_GE(i, prev) << "value " << v;
    prev = i;
  }
  for (size_t b = 0; b < HistogramBuckets::kNumBuckets - 1; ++b) {
    EXPECT_EQ(HistogramBuckets::Index(HistogramBuckets::UpperBound(b)) + 1,
              HistogramBuckets::Index(HistogramBuckets::UpperBound(b) + 1));
  }
}

TEST(HistogramBucketsTest, OversizedValuesClampIntoTopBucket) {
  EXPECT_EQ(HistogramBuckets::Index(HistogramBuckets::kMaxValue),
            HistogramBuckets::kNumBuckets - 1);
  EXPECT_EQ(HistogramBuckets::Index(HistogramBuckets::kMaxValue + 1),
            HistogramBuckets::kNumBuckets - 1);
  EXPECT_EQ(HistogramBuckets::Index(UINT64_MAX),
            HistogramBuckets::kNumBuckets - 1);
}

TEST(HistogramBucketsTest, BucketWidthIsWithinRelativeErrorBound) {
  // Width <= lower/16 for every bucket past the exact region: the +6.25%
  // quantile error contract.
  for (size_t i = HistogramBuckets::kSubBuckets;
       i < HistogramBuckets::kNumBuckets; ++i) {
    uint64_t lo = HistogramBuckets::LowerBound(i);
    uint64_t width = HistogramBuckets::UpperBound(i) - lo + 1;
    EXPECT_LE(width, lo / HistogramBuckets::kSubBuckets + 1) << "bucket " << i;
  }
}

// ----------------------------------------------------- quantiles / oracle

TEST(LatencyHistogramTest, QuantilesMatchSortedVectorOracle) {
  std::mt19937_64 rng(42);
  // Log-uniform-ish samples spanning the exact region and several octaves.
  std::vector<uint64_t> samples;
  LatencyHistogram hist;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng() % (uint64_t{1} << (rng() % 22));
    samples.push_back(v);
    hist.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, samples.size());

  for (double q : {0.0, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
    if (rank < 1) rank = 1;
    if (rank > samples.size()) rank = samples.size();
    double truth = static_cast<double>(samples[rank - 1]);
    double est = snap.ValueAtQuantile(q);
    EXPECT_GE(est, truth) << "q=" << q;
    EXPECT_LE(est, truth * 1.0625 + 1.0) << "q=" << q;
  }
  EXPECT_EQ(snap.max, samples.back());
  EXPECT_EQ(snap.ValueAtQuantile(1.0), static_cast<double>(samples.back()));
}

TEST(LatencyHistogramTest, EmptyAndSingleSample) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Snapshot().ValueAtQuantile(0.99), 0.0);
  EXPECT_EQ(hist.Snapshot().Mean(), 0.0);
  hist.Record(37);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 37u);
  EXPECT_EQ(snap.max, 37u);
  EXPECT_EQ(snap.ValueAtQuantile(0.5), 37.0);
  EXPECT_EQ(snap.ValueAtQuantile(1.0), 37.0);
}

// --------------------------------------------------------- merge / delta

HistogramSnapshot SnapOf(std::initializer_list<uint64_t> values) {
  LatencyHistogram h;
  for (uint64_t v : values) h.Record(v);
  return h.Snapshot();
}

TEST(HistogramSnapshotTest, MergeIsAssociativeAndCommutative) {
  HistogramSnapshot a = SnapOf({1, 2, 3, 500});
  HistogramSnapshot b = SnapOf({40, 40, 9000});
  HistogramSnapshot c = SnapOf({123456, 7});

  HistogramSnapshot ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  HistogramSnapshot bc = b;
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  HistogramSnapshot b_ac = b;
  b_ac.Merge(a);
  b_ac.Merge(c);

  for (const HistogramSnapshot* s : {&a_bc, &b_ac}) {
    EXPECT_EQ(ab_c.count, s->count);
    EXPECT_EQ(ab_c.sum, s->sum);
    EXPECT_EQ(ab_c.max, s->max);
    EXPECT_EQ(ab_c.buckets, s->buckets);
  }
  EXPECT_EQ(ab_c.count, 9u);
  EXPECT_EQ(ab_c.max, 123456u);
}

TEST(HistogramSnapshotTest, DeltaSinceRecoversTheInterval) {
  LatencyHistogram hist;
  hist.Record(10);
  hist.Record(300);
  HistogramSnapshot before = hist.Snapshot();
  hist.Record(10);
  hist.Record(7777);
  HistogramSnapshot delta = hist.Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 10u + 7777u);
  HistogramSnapshot expect = SnapOf({10, 7777});
  EXPECT_EQ(delta.buckets, expect.buckets);
  // Delta of a snapshot against itself is empty; never underflows.
  HistogramSnapshot zero = before.DeltaSince(hist.Snapshot());
  EXPECT_EQ(zero.count, 0u);
  EXPECT_EQ(zero.sum, 0u);
}

// ---------------------------------------------------- concurrent recording

TEST(LatencyHistogramTest, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  LatencyHistogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t * 1000 + i % 997));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t expected_sum = 0;
  uint64_t expected_max = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      uint64_t v = static_cast<uint64_t>(t * 1000 + i % 997);
      expected_sum += v;
      expected_max = std::max(expected_max, v);
    }
  }
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.max, expected_max);
}

// ------------------------------------------------------------ wire codecs

TEST(HistogramCodecTest, RoundTripsSparsely) {
  HistogramSnapshot snap = SnapOf({0, 1, 15, 16, 17, 1000, 1000, 999999});
  ByteWriter w;
  EncodeHistogramSnapshot(snap, &w);
  // Sparse: header (3×u64 + u32) plus 10 bytes per non-empty bucket.
  size_t nonzero = 0;
  for (uint64_t c : snap.buckets) nonzero += (c != 0) ? 1 : 0;
  EXPECT_EQ(w.bytes().size(), 28 + 10 * nonzero);

  ByteReader r(w.bytes());
  HistogramSnapshot back = DecodeHistogramSnapshot(&r);
  EXPECT_EQ(back.count, snap.count);
  EXPECT_EQ(back.sum, snap.sum);
  EXPECT_EQ(back.max, snap.max);
  EXPECT_EQ(back.buckets, snap.buckets);
}

TEST(HistogramCodecTest, RejectsHostileInput) {
  auto encode = [](uint64_t count, std::vector<std::pair<uint16_t, uint64_t>>
                                       entries) {
    ByteWriter w;
    w.U64(count);
    w.U64(0);  // sum
    w.U64(0);  // max
    w.U32(static_cast<uint32_t>(entries.size()));
    for (auto [index, c] : entries) {
      w.U16(index);
      w.U64(c);
    }
    return w.Take();
  };
  {
    // Bucket index past the table.
    auto bytes = encode(1, {{static_cast<uint16_t>(
                                 HistogramSnapshot::kNumBuckets),
                             1}});
    ByteReader r(bytes);
    EXPECT_THROW(DecodeHistogramSnapshot(&r), SerializeError);
  }
  {
    // Duplicate bucket index.
    auto bytes = encode(2, {{5, 1}, {5, 1}});
    ByteReader r(bytes);
    EXPECT_THROW(DecodeHistogramSnapshot(&r), SerializeError);
  }
  {
    // Header count disagrees with the bucket sum.
    auto bytes = encode(3, {{5, 1}});
    ByteReader r(bytes);
    EXPECT_THROW(DecodeHistogramSnapshot(&r), SerializeError);
  }
  {
    // Truncated buffer.
    auto bytes = encode(1, {{5, 1}});
    bytes.pop_back();
    ByteReader r(bytes);
    EXPECT_THROW(DecodeHistogramSnapshot(&r), SerializeError);
  }
}

TEST(TraceCodecTest, RoundTripsElidingZeroStages) {
  RequestTrace trace;
  trace.total_micros = 1234;
  trace.Add(Stage::kQueueWait, 5);
  trace.Add(Stage::kEstimate, 1200);
  ByteWriter w;
  EncodeRequestTrace(trace, &w);
  // u64 total + u8 n + 2 × (u8 + u64): zero stages take no space.
  EXPECT_EQ(w.bytes().size(), 8u + 1 + 2 * 9);

  ByteReader r(w.bytes());
  RequestTrace back = DecodeRequestTrace(&r);
  EXPECT_EQ(back.total_micros, 1234u);
  EXPECT_EQ(back.stage_micros, trace.stage_micros);
}

TEST(TraceCodecTest, RejectsOutOfRangeStage) {
  ByteWriter w;
  w.U64(10);
  w.U8(1);
  w.U8(static_cast<uint8_t>(kNumStages));  // first invalid stage id
  w.U64(10);
  ByteReader r(w.bytes());
  EXPECT_THROW(DecodeRequestTrace(&r), SerializeError);
}

TEST(TraceTest, StageNamesAreStableSnakeCase) {
  EXPECT_STREQ(StageName(Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(StageName(Stage::kCacheProbe), "cache_probe");
  EXPECT_STREQ(StageName(Stage::kEstimate), "estimate");
  EXPECT_STREQ(StageName(Stage::kRespond), "respond");
  EXPECT_STREQ(StageName(Stage::kDecode), "decode");
  EXPECT_STREQ(StageName(Stage::kEncode), "encode");
  EXPECT_STREQ(StageName(Stage::kSocketWrite), "socket_write");
}

// ------------------------------------------------------------- slow lines

// The slow log is the flight recorder's formatter: these run at the
// recorder level, where a line sink and a test clock can be injected.

// Reads and closes an open_memstream sink.
std::string CloseSink(std::FILE* sink, char* const& buf, const size_t& size) {
  std::fclose(sink);
  std::string out(buf, size);
  free(buf);
  return out;
}

Query SlowTestQuery() {
  Query q;
  q.AddTable("t");
  return q;
}

TEST(SlowLineTest, LogsOffendersInStableFormat) {
  char* buf = nullptr;
  size_t buf_size = 0;
  std::FILE* sink = open_memstream(&buf, &buf_size);
  ASSERT_NE(sink, nullptr);
  Query q = SlowTestQuery();
  {
    FlightRecorder recorder("m1", 100, sink);
    // The first request offered is a sampled one: kept, but not logged.
    RequestTrace fast;
    fast.total_micros = 99;
    EXPECT_TRUE(recorder.Record(q, 7, fast));
    EXPECT_FALSE(recorder.Record(q, 7, fast));
    EXPECT_EQ(recorder.logged(), 0u);

    RequestTrace slow;
    slow.total_micros = 250;
    slow.Add(Stage::kQueueWait, 10);
    slow.Add(Stage::kEstimate, 230);
    EXPECT_TRUE(recorder.Record(q, 7, slow));
    EXPECT_EQ(recorder.logged(), 1u);
    EXPECT_EQ(recorder.appended(), 2u);
  }
  std::string line = CloseSink(sink, buf, buf_size);

  EXPECT_NE(line.find("fj_slow_request model=m1 fp=" +
                      q.Fingerprint().ToString()),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("masks=7 total_us=250"), std::string::npos) << line;
  EXPECT_NE(line.find("queue_wait_us=10"), std::string::npos) << line;
  EXPECT_NE(line.find("estimate_us=230"), std::string::npos) << line;
  // Zero stages elided.
  EXPECT_EQ(line.find("cache_probe_us"), std::string::npos) << line;
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST(SlowLineTest, ZeroThresholdDisables) {
  char* buf = nullptr;
  size_t buf_size = 0;
  std::FILE* sink = open_memstream(&buf, &buf_size);
  ASSERT_NE(sink, nullptr);
  {
    FlightRecorder recorder("", 0, sink);
    RequestTrace trace;
    trace.total_micros = UINT64_MAX;
    // Only the sampled requests are kept; none is an offender.
    for (uint64_t i = 0; i < 2 * kFlightSampleEvery; ++i) {
      recorder.Record(SlowTestQuery(), 0, trace);
    }
    EXPECT_EQ(recorder.appended(), 2u);
    EXPECT_EQ(recorder.logged(), 0u);
    EXPECT_EQ(recorder.suppressed(), 0u);
  }
  EXPECT_EQ(CloseSink(sink, buf, buf_size), "");
}

TEST(SlowLineTest, TokenBucketSuppressesAndSummarizes) {
  char* buf = nullptr;
  size_t buf_size = 0;
  std::FILE* sink = open_memstream(&buf, &buf_size);
  ASSERT_NE(sink, nullptr);
  uint64_t now = 1'000'000;  // injectable clock: the test owns time
  const int burst = static_cast<int>(kSlowLogBurst);
  {
    FlightRecorder recorder("m1", 100, sink, [&now] { return now; });
    RequestTrace slow;
    slow.total_micros = 500;
    Query q = SlowTestQuery();

    // The bucket banks kSlowLogBurst tokens: that many lines pass, then
    // suppression. A suppressed offender is still recorded.
    for (int i = 0; i < burst + 5; ++i) {
      EXPECT_TRUE(recorder.Record(q, 0, slow));
    }
    EXPECT_EQ(recorder.logged(), static_cast<uint64_t>(burst));
    EXPECT_EQ(recorder.suppressed(), 5u);
    EXPECT_EQ(recorder.appended(), static_cast<uint64_t>(burst) + 5);

    // One token refills every 1/kSlowLogLinesPerSecond seconds; the emitted
    // line must be preceded by the suppressed=N summary so the gap is
    // accounted for.
    now += static_cast<uint64_t>(1e6 / kSlowLogLinesPerSecond);
    recorder.Record(q, 0, slow);
    EXPECT_EQ(recorder.logged(), static_cast<uint64_t>(burst) + 1);
    EXPECT_EQ(recorder.suppressed(), 5u);

    // Refill is capped at the burst: a minute of quiet banks 20 tokens,
    // not 600.
    now += 60'000'000;
    for (int i = 0; i < burst + 1; ++i) recorder.Record(q, 0, slow);
    EXPECT_EQ(recorder.logged(), 2 * static_cast<uint64_t>(burst) + 1);
    EXPECT_EQ(recorder.suppressed(), 6u);
  }
  std::string out = CloseSink(sink, buf, buf_size);
  EXPECT_NE(out.find("fj_slow_request_suppressed model=m1 suppressed=5"),
            std::string::npos)
      << out;
  // The summary precedes the line that broke the silence.
  EXPECT_LT(out.find("fj_slow_request_suppressed"),
            out.rfind("fj_slow_request model=m1"))
      << out;
}

// ------------------------------------------------------- metrics registry

TEST(MetricsRegistryTest, RendersPrometheusExposition) {
  MetricsRegistry registry;
  LatencyHistogram hist;
  for (uint64_t v : {1, 1, 3, 70, 5000}) hist.Record(v);
  registry.AddCollector([&hist](std::vector<MetricSample>* out) {
    out->push_back(Counter("fj_test_total", "A counter.", {{"model", "m1"}},
                           42));
    out->push_back(Gauge("fj_test_gauge", "A gauge.", {}, 1.5));
    out->push_back(
        Histogram("fj_test_latency", "A histogram.", {}, hist.Snapshot()));
  });

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP fj_test_total A counter.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fj_test_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("fj_test_total{model=\"m1\"} 42\n"), std::string::npos);
  EXPECT_NE(text.find("fj_test_gauge 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fj_test_latency histogram\n"),
            std::string::npos);
  // Cumulative le buckets: 2 samples <= 1, 3 <= 4 (and 16, 64), 4 <= 256...
  EXPECT_NE(text.find("fj_test_latency_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("fj_test_latency_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("fj_test_latency_bucket{le=\"256\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("fj_test_latency_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("fj_test_latency_sum 5075\n"), std::string::npos);
  EXPECT_NE(text.find("fj_test_latency_count 5\n"), std::string::npos);
}

TEST(MetricsRegistryTest, CumulativeBucketsAreMonotone) {
  MetricsRegistry registry;
  LatencyHistogram hist;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5000; ++i) hist.Record(rng() % 2000000);
  registry.AddCollector([&hist](std::vector<MetricSample>* out) {
    out->push_back(Histogram("h", "", {}, hist.Snapshot()));
  });
  std::string text = registry.RenderPrometheus();

  uint64_t prev = 0;
  uint64_t count = hist.Snapshot().count;
  size_t pos = 0;
  size_t bucket_lines = 0;
  while ((pos = text.find("h_bucket{le=", pos)) != std::string::npos) {
    size_t space = text.find(' ', pos);
    uint64_t value = std::stoull(text.substr(space + 1));
    EXPECT_GE(value, prev);
    prev = value;
    ++bucket_lines;
    pos = space;
  }
  EXPECT_EQ(bucket_lines,
            MetricsRegistry::PrometheusLeBoundaries().size() + 1);
  EXPECT_EQ(prev, count);  // +Inf bucket equals the total count
}

TEST(MetricsRegistryTest, DumpJsonCarriesQuantiles) {
  MetricsRegistry registry;
  LatencyHistogram hist;
  for (uint64_t v = 0; v < 100; ++v) hist.Record(v);
  registry.AddCollector([&hist](std::vector<MetricSample>* out) {
    out->push_back(
        Histogram("fj_test_latency", "", {{"model", "m"}}, hist.Snapshot()));
  });
  std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"name\":\"fj_test_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"model\":\"m\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

TEST(MetricsRegistryTest, EscapesLabelValues) {
  MetricsRegistry registry;
  registry.AddCollector([](std::vector<MetricSample>* out) {
    out->push_back(Counter("c", "", {{"model", "we\"ird\\nam\ne"}}, 1));
  });
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("c{model=\"we\\\"ird\\\\nam\\ne\"} 1\n"),
            std::string::npos)
      << text;
}

// ----------------------------------------------------------- http endpoint

/// A TCP connection to 127.0.0.1:port.
int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// One blocking HTTP/1.0 GET against 127.0.0.1:port; returns the raw
/// response (headers + body).
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ConnectTo(port);
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServerTest, ServesScrapesAndRejectsUnknownPaths) {
  MetricsRegistry registry;
  registry.AddCollector([](std::vector<MetricSample>* out) {
    out->push_back(Counter("fj_http_test_total", "", {}, 7));
  });
  MetricsHttpOptions options;
  options.port = 0;  // ephemeral
  MetricsHttpServer server(registry, options);
  server.Start();
  ASSERT_NE(server.port(), 0);

  std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos) << response;
  EXPECT_NE(response.find("fj_http_test_total 7"), std::string::npos);

  std::string json = HttpGet(server.port(), "/metrics.json");
  EXPECT_NE(json.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(json.find("\"fj_http_test_total\""), std::string::npos);

  std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

  EXPECT_EQ(server.scrapes(), 2u);
  server.Stop();
  server.Stop();  // idempotent
}

/// A peer that connects and never sends a byte; closes on destruction.
struct SilentPeer {
  explicit SilentPeer(uint16_t port) : fd(ConnectTo(port)) {
    // Long enough for the serving thread to accept this connection before
    // the test's next one.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ~SilentPeer() { ::close(fd); }
  int fd;
};

// Connections are served one at a time, so a connection that stays silent
// must give way within the request deadline: to the next scrape, and to
// Stop().
TEST(MetricsHttpServerTest, SilentConnectionHoldsNeitherScrapesNorStop) {
  MetricsRegistry registry;
  MetricsHttpServer server(registry, MetricsHttpOptions{});
  server.AddHandler("/healthz", [] {
    return HttpHandlerResult{200, "text/plain", "ok\n"};
  });
  server.Start();
  // Declared before the silent peers, so that on a failed check the peers
  // close first and the waiting tasks finish instead of hanging the test.
  std::future<std::string> health;
  std::future<void> stopped;
  SilentPeer first(server.port());
  health = std::async(std::launch::async,
                      [&] { return HttpGet(server.port(), "/healthz"); });
  ASSERT_EQ(health.wait_for(std::chrono::seconds(4)),
            std::future_status::ready);
  EXPECT_NE(health.get().find("HTTP/1.0 200"), std::string::npos);

  SilentPeer second(server.port());
  stopped = std::async(std::launch::async, [&] { server.Stop(); });
  EXPECT_EQ(stopped.wait_for(std::chrono::seconds(4)),
            std::future_status::ready);
}

}  // namespace
}  // namespace fj::obs
