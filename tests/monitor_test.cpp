// Tests for the retained observability layer (obs/time_series.h,
// obs/slo.h, obs/health.h, obs/flight_recorder.h, obs/monitor.h): burn
// rates against hand-computed windows, ring wraparound, hysteresis at the
// knee, concurrent flight-recorder appends, the monitor's tick pipeline fed
// synthetic inputs through TickWith, and a ticking monitor raced by
// scrapes (the tsan build runs this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/latency_histogram.h"
#include "obs/metrics_export.h"
#include "obs/metrics_registry.h"
#include "obs/monitor.h"
#include "obs/slo.h"
#include "obs/time_series.h"

namespace fj::obs {
namespace {

// ------------------------------------------------------------- slo parsing

TEST(SloSpecTest, ParsesTheDocumentedGrammar) {
  SloSpec spec = SloSpec::Parse("p99=5ms,avail=99.9");
  ASSERT_EQ(spec.latency.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.latency[0].quantile, 0.99);
  EXPECT_EQ(spec.latency[0].threshold_micros, 5000u);
  EXPECT_EQ(spec.latency[0].Name(), "p99_5ms");
  EXPECT_DOUBLE_EQ(spec.availability, 0.999);
  EXPECT_NEAR(spec.AvailabilityBudget(), 0.001, 1e-12);

  SloSpec multi = SloSpec::Parse("p50=200us,p999=1s");
  ASSERT_EQ(multi.latency.size(), 2u);
  EXPECT_EQ(multi.latency[0].Name(), "p50_200us");
  EXPECT_EQ(multi.latency[1].Name(), "p999_1s");
  EXPECT_DOUBLE_EQ(multi.availability, 0.0);

  EXPECT_TRUE(SloSpec::Parse("").Empty());
}

TEST(SloSpecTest, RejectsMalformedSpecsLoudly) {
  EXPECT_THROW(SloSpec::Parse("p99=5"), std::invalid_argument);   // no unit
  EXPECT_THROW(SloSpec::Parse("p99=0ms"), std::invalid_argument); // zero
  EXPECT_THROW(SloSpec::Parse("p42=5ms"), std::invalid_argument); // quantile
  EXPECT_THROW(SloSpec::Parse("avail=100"), std::invalid_argument);
  EXPECT_THROW(SloSpec::Parse("avail=0"), std::invalid_argument);
  EXPECT_THROW(SloSpec::Parse("p99"), std::invalid_argument);     // no '='
  // Values a double holds but a threshold or target cannot.
  EXPECT_THROW(SloSpec::Parse("p99=infms"), std::invalid_argument);
  EXPECT_THROW(SloSpec::Parse("p99=1e300s"), std::invalid_argument);
  EXPECT_THROW(SloSpec::Parse("p99=nanms"), std::invalid_argument);
  EXPECT_THROW(SloSpec::Parse("avail=nan"), std::invalid_argument);
  EXPECT_THROW(SloSpec::Parse("avail=99.9abc"), std::invalid_argument);
  // Repeated objectives, including one spelled in another unit.
  EXPECT_THROW(SloSpec::Parse("p99=5ms,p99=5ms"), std::invalid_argument);
  EXPECT_THROW(SloSpec::Parse("p99=5ms,p99=5000us"), std::invalid_argument);
  EXPECT_THROW(SloSpec::Parse("avail=99,avail=99.9"), std::invalid_argument);
  // Four latency objectives fit a window; a fifth does not.
  EXPECT_EQ(SloSpec::Parse("p50=1ms,p90=1ms,p99=1ms,p999=1ms").latency.size(),
            kMaxLatencyObjectives);
  EXPECT_THROW(SloSpec::Parse("p50=1ms,p90=1ms,p99=1ms,p999=1ms,p99=2ms"),
               std::invalid_argument);
}

// ----------------------------------------------------------- burn-rate math

constexpr size_t kErrorsRow = ServiceCounterRow("fj_errors_total");

// One second with `total` requests, `bad` of them over the first latency
// objective's threshold, and `errors` failed.
WindowSample Second(uint64_t total, uint64_t bad, uint64_t errors) {
  WindowSample w;
  w.latency_count = total;
  w.over_threshold[0] = bad;
  w.service[kErrorsRow] = errors;
  return w;
}

TEST(SloBurnTest, BurnMatchesHandComputedWindows) {
  SloSpec spec = SloSpec::Parse("p99=1ms,avail=99");
  // Larger than the slow window, so the window spans, not the ring's
  // capacity, decide which seconds count.
  TimeSeriesRing ring(kSloSlowWindowSeconds + 100);
  auto clean = [&] { ring.Push(Second(100, 0, 0)); };

  // Seconds 1-2: 1 then 3 bad of 100 each. Fast = slow = 4/200 over a 1%
  // budget -> burn 2.
  ring.Push(Second(100, 1, 0));
  ring.Push(Second(100, 3, 0));
  std::vector<SloBurn> s = BurnRates(spec, ring);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].name, "p99_1ms");
  EXPECT_NEAR(s[0].fast_burn, 2.0, 1e-9);
  EXPECT_NEAR(s[0].slow_burn, 2.0, 1e-9);
  EXPECT_TRUE(s[0].Burning());

  // A fast window of clean seconds: fast drops to 0 while the slow window
  // (the two bad seconds plus 60 clean ones) still holds 4/6200.
  for (size_t i = 0; i < kSloFastWindowSeconds; ++i) clean();
  s = BurnRates(spec, ring);
  EXPECT_NEAR(s[0].fast_burn, 0.0, 1e-9);
  EXPECT_NEAR(s[0].slow_burn, 4.0 / 6200 / 0.01, 1e-9);
  EXPECT_FALSE(s[0].Burning());

  // With the slow window exactly full it covers seconds 1-1800 = 4/180000;
  // one more clean second retires second 1: slow covers 2-1801 = 3/180000.
  while (ring.total_pushed() < kSloSlowWindowSeconds) clean();
  s = BurnRates(spec, ring);
  EXPECT_NEAR(s[0].slow_burn, 4.0 / 180000 / 0.01, 1e-12);
  clean();
  s = BurnRates(spec, ring);
  EXPECT_NEAR(s[0].slow_burn, 3.0 / 180000 / 0.01, 1e-12);

  // Availability rides the same windows on the errors row: 150 errors of
  // the fast window's 6000 requests against a 1% budget -> burn 2.5.
  ring.Push(Second(100, 0, 150));
  s = BurnRates(spec, ring);
  EXPECT_EQ(s[1].name, "availability");
  EXPECT_NEAR(s[1].fast_burn, 2.5, 1e-9);
}

TEST(SloBurnTest, ZeroTrafficBurnsNothing) {
  SloSpec spec = SloSpec::Parse("p99=1ms");
  TimeSeriesRing ring(4);
  std::vector<SloBurn> s = BurnRates(spec, ring);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(s[0].slow_burn, 0.0);
  ring.Push(WindowSample{});  // a quiet second changes nothing
  s = BurnRates(spec, ring);
  EXPECT_DOUBLE_EQ(s[0].fast_burn, 0.0);
  EXPECT_FALSE(s[0].Burning());
}

// --------------------------------------------------------- time-series ring

TEST(TimeSeriesRingTest, WrapsAroundKeepingTheNewest) {
  TimeSeriesRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 0u);
  for (uint64_t i = 0; i < 10; ++i) {
    WindowSample w;
    w.end_micros = i;
    w.latency_count = i * 10;
    ring.Push(w);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_pushed(), 10u);

  // Oldest first: pushes 6..9 survive, 0..5 were overwritten.
  std::vector<WindowSample> got = ring.Window();
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].end_micros, 6 + i);
    EXPECT_EQ(got[i].latency_count, (6 + i) * 10);
  }

  // last_n counts from the newest.
  got = ring.Window(2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].end_micros, 8u);
  EXPECT_EQ(got[1].end_micros, 9u);
}

TEST(TimeSeriesRingTest, PartialFillReturnsWhatWasPushed) {
  TimeSeriesRing ring(8);
  WindowSample w;
  w.end_micros = 42;
  ring.Push(w);
  std::vector<WindowSample> got = ring.Window();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].end_micros, 42u);
  EXPECT_NE(RenderHistoryJson(got, 8).find("\"t_us\":42"), std::string::npos);
}

// ------------------------------------------------------ health + hysteresis

HealthInput OkSignals() { return HealthInput{0.1, 100.0}; }
HealthInput DegradedSignals() { return HealthInput{0.6, 100.0}; }
HealthInput OverloadedSignals() { return HealthInput{0.95, 100.0}; }

TEST(HealthTrackerTest, BoundaryLoadCannotFlapTheState) {
  HealthTracker tracker;  // enter 2, exit 5
  // Exactly at the knee the signals straddle the threshold tick to tick;
  // alternating ok/overloaded never makes 2 consecutive high ticks, so the
  // published state must never leave ok.
  for (int i = 0; i < 20; ++i) {
    tracker.Tick(i % 2 == 0 ? OverloadedSignals() : OkSignals());
    EXPECT_EQ(tracker.state(), HealthState::kOk) << "tick " << i;
  }
  EXPECT_EQ(tracker.transitions(), 0u);

  // Two consecutive high ticks escalate...
  tracker.Tick(OverloadedSignals());
  EXPECT_EQ(tracker.state(), HealthState::kOk);
  tracker.Tick(OverloadedSignals());
  EXPECT_EQ(tracker.state(), HealthState::kOverloaded);
  EXPECT_EQ(tracker.transitions(), 1u);

  // ...and the same boundary alternation cannot flap it back: exiting
  // needs 5 consecutive ticks below.
  for (int i = 0; i < 20; ++i) {
    tracker.Tick(i % 2 == 0 ? OkSignals() : OverloadedSignals());
    EXPECT_EQ(tracker.state(), HealthState::kOverloaded) << "tick " << i;
  }

  // Five clean ticks finally de-escalate, all the way to ok.
  for (int i = 0; i < 4; ++i) {
    tracker.Tick(OkSignals());
    EXPECT_EQ(tracker.state(), HealthState::kOverloaded);
  }
  tracker.Tick(OkSignals());
  EXPECT_EQ(tracker.state(), HealthState::kOk);
  EXPECT_EQ(tracker.transitions(), 2u);
}

TEST(HealthTrackerTest, EscalatesToTheWeakestLevelOfTheStreak) {
  HealthTracker tracker;
  // A streak alternating degraded/overloaded has every tick above ok, but
  // only degraded is vouched for by the *whole* streak — jumping straight
  // to overloaded would overreact to one spiky tick.
  tracker.Tick(OverloadedSignals());
  tracker.Tick(DegradedSignals());
  EXPECT_EQ(tracker.state(), HealthState::kDegraded);

  // From degraded, two consecutive overloaded ticks escalate the rest of
  // the way.
  tracker.Tick(OverloadedSignals());
  tracker.Tick(OverloadedSignals());
  EXPECT_EQ(tracker.state(), HealthState::kOverloaded);
}

TEST(HealthTrackerTest, QueueWaitAloneTriggersWithoutABoundedQueue) {
  HealthTracker tracker;
  // queue_frac stays 0 (unbounded queue): the p99 queue-wait signal must
  // carry the classification by itself.
  HealthInput waits{0.0, 60'000.0};  // over the 50ms overloaded bar
  tracker.Tick(waits);
  tracker.Tick(waits);
  EXPECT_EQ(tracker.state(), HealthState::kOverloaded);
  EXPECT_STREQ(HealthStateName(tracker.state()), "overloaded");
}

// ---------------------------------------------------------- flight recorder

// A one-table query whose fingerprint tells records apart.
Query RecorderQuery(const std::string& table) {
  Query q;
  q.AddTable(table);
  return q;
}

// Offers a request whose trace is dominated by its queue wait; with a
// 1us threshold every request is an offender, so every one is kept.
void RecordTrace(FlightRecorder* recorder, uint64_t total,
                 uint64_t queue_wait) {
  RequestTrace trace;
  trace.total_micros = total;
  trace.Add(Stage::kQueueWait, queue_wait);
  trace.Add(Stage::kEstimate, total - queue_wait);
  recorder->Record(RecorderQuery("t"), 4, trace);
}

TEST(FlightRecorderTest, RetainsNewestAndFindsDominantStage) {
  std::FILE* sink = std::fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  {
    FlightRecorder recorder("m1", 1, sink);
    const uint64_t n = kFlightCapacity + 2;
    for (uint64_t i = 1; i <= n; ++i) {
      RecordTrace(&recorder, 100 * i, 90 * i);  // queue_wait dominates
    }
    EXPECT_EQ(recorder.appended(), n);

    std::vector<FlightRecord> recent = recorder.Recent();
    ASSERT_EQ(recent.size(), kFlightCapacity);
    // Newest first; the oldest two fell off the ring.
    EXPECT_EQ(recent[0].total_micros, 100 * n);
    EXPECT_EQ(recent.back().total_micros, 300u);
    EXPECT_EQ(recent[0].DominantStage(), Stage::kQueueWait);
    EXPECT_EQ(recent[0].masks, 4u);
    QueryFingerprint fp = RecorderQuery("t").Fingerprint();
    EXPECT_EQ(recent[0].fp_lo, fp.lo);
    EXPECT_EQ(recent[0].fp_hi, fp.hi);

    std::string dump = recorder.DumpJson();
    EXPECT_EQ(dump.rfind("{\"model\":\"m1\",", 0), 0u) << dump;
    EXPECT_NE(dump.find("\"dominant_stage\":\"queue_wait\""),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("\"appended\":" + std::to_string(n)),
              std::string::npos)
        << dump;
  }
  std::fclose(sink);
}

TEST(FlightRecorderTest, ConcurrentAppendsLoseNoTickets) {
  // Threshold 0 and the every-16th sample: a fixed share of the requests
  // offered is kept, whichever threads offered them.
  FlightRecorder recorder("m", 0);
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 512;
  std::atomic<bool> stop{false};
  // A reader hammering dumps while appenders run: the per-slot locks must
  // keep every copied record internally consistent (this file runs under
  // the tsan label, which is the real assertion here).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<FlightRecord> recent = recorder.Recent(16);
      for (const FlightRecord& r : recent) {
        EXPECT_NE(r.seq, 0u);  // never a half-written slot
      }
      recorder.DumpJson(8);
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Query q = RecorderQuery("t" + std::to_string(t));
      for (size_t i = 0; i < kPerThread; ++i) {
        RequestTrace trace;
        trace.total_micros = t * kPerThread + i + 1;
        trace.Add(Stage::kEstimate, trace.total_micros);
        recorder.Record(q, 1, trace);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const uint64_t kept = kThreads * kPerThread / kFlightSampleEvery;
  EXPECT_EQ(recorder.appended(), kept);
  std::vector<FlightRecord> recent = recorder.Recent();
  EXPECT_EQ(recent.size(), std::min<uint64_t>(kept, kFlightCapacity));
  for (const FlightRecord& r : recent) {
    EXPECT_GT(r.seq, 0u);
    EXPECT_LE(r.seq, kept);
  }
}

// ----------------------------------------------------------------- monitor

TEST(ServingMonitorTest, TickPipelineDerivesWindowsBurnAndHealth) {
  MonitorOptions options;
  options.retention_seconds = 16;
  options.slo = SloSpec::Parse("p99=1ms");
  std::vector<std::pair<HealthState, HealthState>> transitions;
  options.on_transition = [&](HealthState from, HealthState to) {
    transitions.emplace_back(from, to);
  };
  // Tests drive TickWith directly; the source is never sampled.
  ServingMonitor monitor(options, [] { return MonitorInput{}; });
  // The SLO needs the slow window's worth of seconds in the one ring.
  EXPECT_EQ(monitor.history().capacity(), kSloSlowWindowSeconds);

  LatencyHistogram lat;
  LatencyHistogram queue_wait;
  MonitorInput in;
  in.now_micros = 1'000'000;
  in.service.latency = lat.Snapshot();
  monitor.TickWith(in);  // baseline only: nothing to diff yet
  EXPECT_EQ(monitor.history().size(), 0u);

  // One second of traffic: 900 fast requests, 100 at 100ms (all over the
  // 1ms objective), a nearly full queue, and long queue waits.
  for (int i = 0; i < 900; ++i) lat.Record(100);
  for (int i = 0; i < 100; ++i) lat.Record(100'000);
  for (int i = 0; i < 100; ++i) queue_wait.Record(80'000);
  in.now_micros = 2'000'000;
  in.service.subplan_requests = 1000;
  in.service.errors = 10;
  in.service.cache.hits = 500;
  in.service.cache.misses = 500;
  in.service.queue_depth = 95;
  in.service.latency = lat.Snapshot();
  in.service.stages[static_cast<size_t>(Stage::kQueueWait)] =
      queue_wait.Snapshot();
  in.server.bytes_received = 4096;
  in.queue_capacity = 100;
  monitor.TickWith(in);

  ASSERT_EQ(monitor.history().size(), 1u);
  WindowSample w = monitor.history().Window()[0];
  EXPECT_EQ(w.service[ServiceCounterRow("fj_subplan_requests_total")], 1000u);
  EXPECT_EQ(w.service[kErrorsRow], 10u);
  EXPECT_EQ(w.latency_count, 1000u);
  EXPECT_EQ(w.service[ServiceCounterRow("fj_queue_depth")], 95u);
  EXPECT_NEAR(w.HitRate(), 0.5, 1e-12);
  EXPECT_GT(w.p99_micros, 1000.0);
  EXPECT_GT(w.queue_wait_p99_micros, 50'000.0);
  EXPECT_EQ(w.over_threshold[0], 100u);

  // 100 of 1000 over threshold against a 1% budget: burn exactly 10.
  std::vector<SloBurn> slo = monitor.slo_status();
  ASSERT_EQ(slo.size(), 1u);
  EXPECT_NEAR(slo[0].fast_burn, 10.0, 1e-9);

  // One overloaded tick is not enough (kHealthEnterTicks = 2)...
  EXPECT_EQ(monitor.health_state(), HealthState::kOk);
  EXPECT_TRUE(transitions.empty());

  // ...a second consecutive one publishes the transition.
  in.now_micros = 3'000'000;
  monitor.TickWith(in);
  EXPECT_EQ(monitor.health_state(), HealthState::kOverloaded);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].first, HealthState::kOk);
  EXPECT_EQ(transitions[0].second, HealthState::kOverloaded);

  int status = 0;
  std::string health = monitor.HealthJson(&status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(health.find("\"state\":\"overloaded\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"queue_depth\":95"), std::string::npos) << health;
  EXPECT_NE(health.find("\"name\":\"p99_1ms\""), std::string::npos) << health;

  // History carries every counter-table row by metric name.
  std::string history = monitor.HistoryJson();
  EXPECT_NE(history.find("\"windows\":["), std::string::npos) << history;
  EXPECT_NE(history.find("\"queue_wait\""), std::string::npos) << history;
  EXPECT_NE(history.find("\"qps\":1000.0"), std::string::npos) << history;
  EXPECT_NE(
      history.find("\"counters\":{\"fj_subplan_requests_total\":1000,"),
      std::string::npos)
      << history;
  EXPECT_NE(history.find("\"fj_errors_total\":10,"), std::string::npos)
      << history;
  EXPECT_NE(history.find("\"fj_server_bytes_received_total\":4096,"),
            std::string::npos)
      << history;

  // The ring keeps the SLO's windows; /metrics/history serves only the
  // newest retention_seconds of them.
  for (int i = 0; i < 20; ++i) {
    in.now_micros += 1'000'000;
    monitor.TickWith(in);
  }
  EXPECT_EQ(monitor.history().size(), 22u);
  EXPECT_NE(monitor.HistoryJson().find("\"window_count\":16,"),
            std::string::npos);
}

TEST(ServingMonitorTest, CountersNeverGoBackwardsAcrossRestarts) {
  // A source whose counters regress (model swapped out of the registry)
  // must clamp to zero-delta windows, not underflow.
  MonitorOptions options;
  ServingMonitor monitor(options, [] { return MonitorInput{}; });
  EXPECT_EQ(monitor.history().capacity(), options.retention_seconds);
  MonitorInput in;
  in.now_micros = 1'000'000;
  in.service.subplan_requests = 1000;
  monitor.TickWith(in);
  in.now_micros = 2'000'000;
  in.service.subplan_requests = 400;  // regressed
  monitor.TickWith(in);
  ASSERT_EQ(monitor.history().size(), 1u);
  EXPECT_EQ(
      monitor.history().Window()[0].service[ServiceCounterRow(
          "fj_subplan_requests_total")],
      0u);
}

TEST(ServingMonitorTest, TicksRaceWritersAndScrapes) {
  // A live source: one thread keeps writing the counters and the latency
  // histogram the source samples, one thread ticks, two threads scrape
  // every monitor view. The tsan build is the real assertion.
  std::atomic<uint64_t> requests{0};
  LatencyHistogram latency;
  MonitorOptions options;
  options.slo = SloSpec::Parse("p99=1ms,avail=99.9");
  ServingMonitor monitor(options, [&] {
    MonitorInput in;
    in.now_micros = MonotonicMicros();
    in.service.subplan_requests = requests.load(std::memory_order_relaxed);
    in.service.latency = latency.Snapshot();
    in.queue_capacity = 64;
    return in;
  });
  MetricsRegistry registry;
  ExportMonitor(&registry, monitor);

  constexpr int kTicks = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread writer([&] {
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      requests.fetch_add(1, std::memory_order_relaxed);
      latency.Record(i % 4096);
    }
  });
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_NE(monitor.HealthJson().find("\"state\":"), std::string::npos);
        EXPECT_NE(monitor.HistoryJson().find("\"windows\":["),
                  std::string::npos);
        EXPECT_NE(registry.RenderPrometheus().find("fj_slo_fast_burn"),
                  std::string::npos);
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread ticker([&] {
    // Start once both scrapers are running, so the ticks overlap them.
    while (scrapes.load(std::memory_order_relaxed) < 2) {
      std::this_thread::yield();
    }
    for (int i = 0; i < kTicks; ++i) monitor.Tick();
  });
  ticker.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::thread& t : scrapers) t.join();
  // The first tick only sets the baseline.
  EXPECT_EQ(monitor.ticks(), static_cast<uint64_t>(kTicks - 1));

  // The background thread ticks once as it starts, then sleeps until Stop.
  monitor.Start();
  monitor.Stop();
  EXPECT_EQ(monitor.ticks(), static_cast<uint64_t>(kTicks));
  EXPECT_EQ(monitor.history().size(), static_cast<size_t>(kTicks));
}

}  // namespace
}  // namespace fj::obs
