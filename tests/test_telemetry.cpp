// Telemetry layer: registry semantics under concurrent writers, Prometheus
// exposition (golden), Chrome-trace JSON shape, the embedded HTTP endpoint,
// the TraceRecorder overflow counter, thread-safe logging, and the
// fairness-drift sampler end to end on a live runtime.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fairness/maxmin.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/supervisor.hpp"
#include "runtime/load_generator.hpp"
#include "runtime/rcu.hpp"
#include "runtime/runtime.hpp"
#include "sched/observer.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/fairness_drift.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/metrics_observer.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/promlint.hpp"
#include "telemetry/slo.hpp"
#include "util/indexed_name.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace midrr::telemetry {
namespace {

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndDeduplicated) {
  MetricsRegistry reg;
  Counter& a = reg.counter("midrr_test_total", "help", {{"k", "v"}});
  Counter& b = reg.counter("midrr_test_total", "help", {{"k", "v"}});
  EXPECT_EQ(&a, &b) << "same (name, labels) must return the same handle";
  Counter& c = reg.counter("midrr_test_total", "help", {{"k", "other"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(MetricsRegistry, NameKeepsOneKind) {
  MetricsRegistry reg;
  reg.counter("midrr_kind_total", "help");
  EXPECT_THROW(reg.gauge("midrr_kind_total", "help"), std::exception);
}

TEST(MetricsRegistry, RejectsInvalidNames) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("bad name", "help"), std::exception);
  EXPECT_THROW(reg.counter("0leading", "help"), std::exception);
  EXPECT_THROW(reg.counter("ok_name", "help", {{"bad-label", "v"}}),
               std::exception);
}

TEST(MetricsRegistry, CallbackSeriesCollectAtScrape) {
  MetricsRegistry reg;
  std::atomic<std::uint64_t> external{0};
  reg.counter_fn("midrr_cb_total", "help", {}, [&external] {
    return static_cast<double>(external.load());
  });
  external = 41;
  const auto families = reg.snapshot();
  ASSERT_EQ(families.size(), 1u);
  ASSERT_EQ(families[0].samples.size(), 1u);
  EXPECT_DOUBLE_EQ(families[0].samples[0].value, 41.0);
}

TEST(MetricsRegistry, ExportedGridIsScrapedInPlace) {
  MetricsRegistry reg;
  LatencyHistogram grid;
  reg.histogram_grid("midrr_grid_ns", "help", {{"k", "v"}}, grid);
  grid.record(100);
  grid.record(5000);
  const auto families = reg.snapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].kind, MetricKind::kHistogram);
  ASSERT_EQ(families[0].samples.size(), 1u);
  EXPECT_EQ(families[0].samples[0].count, 2u);
  EXPECT_DOUBLE_EQ(families[0].samples[0].sum, 5100.0);
  EXPECT_THROW(reg.histogram("midrr_grid_ns", "help", {{"k", "v"}}),
               std::exception)
      << "an exported grid is not a registry handle";
}

TEST(MetricsRegistry, MultiWriterCounterIsExact) {
  MetricsRegistry reg;
  Counter& hits = reg.counter("midrr_mw_total", "help");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hits] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) hits.inc();
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(hits.value(), kThreads * kPerThread);
}

TEST(MetricsRegistry, ScrapeWhileWritingStaysConsistent) {
  // Writers hammer a histogram while a reader snapshots: every snapshot
  // must be internally consistent -- buckets cumulative (non-decreasing in
  // le) and count >= the last cumulative bucket (the +Inf property).
  MetricsRegistry reg;
  LatencyHistogram& h = reg.histogram("midrr_scrape_ns", "help");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&h, &stop, t] {
      std::uint64_t v = static_cast<std::uint64_t>(t) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        h.record(v);
        v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG
        v &= (1ULL << 32) - 1;
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    const auto families = reg.snapshot();
    ASSERT_EQ(families.size(), 1u);
    const SampleSnapshot& s = families[0].samples[0];
    for (std::size_t i = 1; i < s.buckets.size(); ++i) {
      EXPECT_LE(s.buckets[i - 1].second, s.buckets[i].second)
          << "cumulative buckets must be non-decreasing";
    }
    if (!s.buckets.empty()) {
      EXPECT_GE(s.count, s.buckets.back().second)
          << "+Inf (count) must cover the last finite bucket";
    }
  }
  stop = true;
  for (auto& w : writers) w.join();
}

// --- Prometheus exposition (golden) ---------------------------------------

TEST(Prometheus, GoldenExposition) {
  MetricsRegistry reg;
  reg.counter("midrr_events_total", "Things that happened.", {{"kind", "a"}})
      .inc(3);
  reg.counter("midrr_events_total", "Things that happened.", {{"kind", "b"}})
      .inc(7);
  reg.gauge("midrr_depth", "Current depth.").set(2.5);
  const std::string expected =
      "# HELP midrr_events_total Things that happened.\n"
      "# TYPE midrr_events_total counter\n"
      "midrr_events_total{kind=\"a\"} 3\n"
      "midrr_events_total{kind=\"b\"} 7\n"
      "# HELP midrr_depth Current depth.\n"
      "# TYPE midrr_depth gauge\n"
      "midrr_depth 2.5\n";
  EXPECT_EQ(render_prometheus(reg), expected);
}

TEST(Prometheus, HistogramExposition) {
  MetricsRegistry reg;
  LatencyHistogram& h = reg.histogram("midrr_wait_ns", "Wait.");
  h.record(100);    // <= 256
  h.record(1000);   // <= 1024
  h.record(50000);  // <= 65536
  const std::string text = render_prometheus(reg);
  EXPECT_NE(text.find("# TYPE midrr_wait_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("midrr_wait_ns_bucket{le=\"256\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("midrr_wait_ns_bucket{le=\"1024\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("midrr_wait_ns_bucket{le=\"65536\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("midrr_wait_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("midrr_wait_ns_count 3\n"), std::string::npos);
}

TEST(Prometheus, EscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("midrr_esc_total", "h", {{"path", "a\"b\\c\nd"}}).inc();
  const std::string text = render_prometheus(reg);
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

// --- TraceRecorder overflow -----------------------------------------------

TEST(TraceRecorderOverflow, CountsEvictedEvents) {
  TraceRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.on_packet_sent(i, 0, 0, 100);
  }
  EXPECT_EQ(recorder.total_events(), 10u);
  EXPECT_EQ(recorder.entries().size(), 4u);
  EXPECT_EQ(recorder.overflowed(), 6u);
  recorder.clear();
  EXPECT_EQ(recorder.overflowed(), 0u);
}

// --- MetricsObserver ------------------------------------------------------

TEST(MetricsObserver, CountsEventsAndChains) {
  MetricsRegistry reg;
  FlightRecorder flight(16);
  // Scheduler-local flows 0..2 are global flows 10..12; local interface 0
  // is global interface 3.
  const std::vector<FlowId> global_of_flow = {10, 11, 12};
  const std::vector<IfaceId> global_of_iface = {3};
  MetricsObserver obs(reg, {{"shard", "0"}},
                      {&flight.add_writer("shard0"), &global_of_flow,
                       &global_of_iface});
  obs.on_turn_granted(0, 1, 0, 1500);
  obs.on_flag_skip(1, 2, 0);
  // The scheduler emits per-packet on_packet_sent events (feeding the
  // trace lane) followed by ONE batched on_packets_sent summary per burst;
  // the counting observer folds its increments into the summary only.
  obs.on_packet_sent(2, 1, 0, 1000);
  obs.on_packets_sent(2, 0, 1, 1000);
  obs.on_flow_drained(3, 1);
  EXPECT_EQ(obs.grants(), 1u);
  EXPECT_EQ(obs.skips(), 1u);
  EXPECT_EQ(obs.sends(), 1u);
  // The lane sees every micro-event once, under global ids.
  const std::vector<FlightEvent> events = flight.snapshot();
  ASSERT_EQ(events.size(), 4u);
  const FlightCode codes[] = {FlightCode::kGrant, FlightCode::kSkip,
                              FlightCode::kSend, FlightCode::kFlowDrained};
  const std::uint64_t flows[] = {11, 12, 11, 11};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t_ns, i);
    EXPECT_EQ(events[i].category, FlightCategory::kSched);
    EXPECT_EQ(events[i].code, codes[i]);
    EXPECT_EQ(events[i].a, flows[i]);
  }
  EXPECT_EQ(events[0].b, 3u);
  EXPECT_EQ(events[0].c, 1500u);
  EXPECT_EQ(events[1].b, 3u);
  EXPECT_EQ(events[2].b, 3u);
  EXPECT_EQ(events[2].c, 1000u);
  const std::string text = render_prometheus(reg);
  EXPECT_NE(text.find("midrr_sched_turns_total{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("midrr_sched_flag_skips_total{shard=\"0\"} 1"),
            std::string::npos);
}

TEST(MetricsObserver, BatchedSendSummaryCountsOncePerBurst) {
  MetricsRegistry reg;
  MetricsObserver obs(reg, {{"shard", "0"}});
  // A 3-packet burst: three per-packet events (ignored by the counters),
  // one summary carrying the totals.
  obs.on_packet_sent(5, 1, 0, 100);
  obs.on_packet_sent(5, 1, 0, 200);
  obs.on_packet_sent(5, 2, 0, 300);
  EXPECT_EQ(obs.sends(), 0u) << "per-packet events must not double-count";
  obs.on_packets_sent(5, 0, 3, 600);
  EXPECT_EQ(obs.sends(), 3u);
  const std::string text = render_prometheus(reg);
  EXPECT_NE(text.find("midrr_sched_packets_sent_total{shard=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("midrr_sched_sent_bytes_total{shard=\"0\"} 600"),
            std::string::npos);
}

// --- Chrome trace ---------------------------------------------------------

/// The rendered trace's events.
std::vector<JsonValue> trace_events(const ChromeTrace& trace) {
  const JsonValue doc = JsonValue::parse(trace.json);
  return doc.find("traceEvents")->as_array();
}

TEST(ChromeTrace, RendersRecorderAndSpans) {
  FlightRecorder flight(16);
  FlightLog& shard = flight.add_writer("shard0");
  shard.log(1000, FlightCategory::kSched, FlightCode::kGrant, 5, 1,
            static_cast<std::uint64_t>(std::int64_t{-300}));
  shard.log(2000, FlightCategory::kSched, FlightCode::kSend, 5, 1, 900);
  FlightLog& worker = flight.add_writer("worker2");
  worker.log(1000, FlightCategory::kRuntime, FlightCode::kDrainSpan, 4000,
             span_where(1, 3), 2700);
  const ChromeTrace trace = render_chrome_trace(flight, {"if0", "if1"});
  const std::string& json = trace.json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << "instant events";
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "duration spans";
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << "metadata";
  EXPECT_NE(json.find("\"dur\":3"), std::string::npos) << "3000 ns = 3 us";
  EXPECT_EQ(trace_events(trace).size(), trace.events);
  // Every argument the scheduler rows and the worker spans carried: the
  // deficit (signed), the bytes, and the span's packets, bytes and iface,
  // on tracks and spans named after the interface.
  EXPECT_NE(json.find("\"name\":\"grant flow5\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"deficit_after\":-300"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bytes\":900"), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"name\":\"if1\"}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"drain if1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"iface\":1,\"packets\":3,\"bytes\":2700"),
            std::string::npos)
      << json;
  // One process row per lane, named after it.
  EXPECT_NE(json.find("\"args\":{\"name\":\"shard0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"worker2\"}"), std::string::npos);
}

TEST(ChromeTrace, MarksTruncatedRecorders) {
  FlightRecorder flight(2);
  FlightLog& lane = flight.add_writer("shard0");
  for (std::uint64_t i = 0; i < 5; ++i) {
    lane.log(i, FlightCategory::kSched, FlightCode::kSend, 0, 0, 1);
  }
  EXPECT_NE(render_chrome_trace(flight, {}).json.find("events_lost"),
            std::string::npos);
}

// The truncation marker used to be only a "ph":"M" metadata record, which
// viewers do not render -- a truncated capture looked merely sparse.  A
// wrapped lane also gets a VISIBLE global instant, placed at the window
// start: its oldest retained event, where the lost history ends.
TEST(ChromeTrace, OverflowEmitsVisibleInstantAtLastRetainedEvent) {
  FlightRecorder flight(2);
  FlightLog& lane = flight.add_writer("shard0");
  for (std::uint64_t at = 10'000; at <= 50'000; at += 10'000) {
    lane.log(at, FlightCategory::kSched, FlightCode::kSend, 0, 0, 1);
  }
  const std::string json = render_chrome_trace(flight, {}).json;
  const std::size_t instant = json.find("\"name\":\"trace_overflow\"");
  ASSERT_NE(instant, std::string::npos) << json;
  const std::string event = json.substr(instant, 220);
  EXPECT_NE(event.find("\"ph\":\"i\""), std::string::npos)
      << "must be a renderable instant, not metadata: " << event;
  EXPECT_NE(event.find("\"s\":\"g\""), std::string::npos)
      << "global scope so it is visible on every track: " << event;
  // 40'000 ns = 40 us, the oldest retained event: the window start.
  EXPECT_NE(event.find("\"ts\":40"), std::string::npos) << event;
  EXPECT_NE(event.find("\"events_lost\":3"), std::string::npos) << event;
  // The machine-readable metadata record is still present for tooling.
  EXPECT_NE(json.find("\"name\":\"trace_truncated\""), std::string::npos);
  // A full capture emits neither marker.
  FlightRecorder roomy(16);
  roomy.add_writer("shard0").log(10'000, FlightCategory::kSched,
                                  FlightCode::kSend, 0, 0, 1);
  EXPECT_EQ(render_chrome_trace(roomy, {}).json.find("trace_overflow"),
            std::string::npos);
}

// One window for every packet-rate row: scheduler events and work spans
// are cut at the newest start among the wrapped lanes -- on a lane that
// kept its whole history too -- so no two such rows show different
// stretches; a transition (a supervisor's verdict) is drawn wherever a
// lane kept it.
TEST(ChromeTrace, PacketRateRowsShareOneWindowAndTransitionsDrawWhole) {
  FlightRecorder flight(2);
  FlightLog& wrapped = flight.add_writer("shard0");
  for (std::uint64_t at = 10'000; at <= 30'000; at += 10'000) {
    wrapped.log(at, FlightCategory::kSched, FlightCode::kSend, 0, 0, 1);
  }
  FlightLog& whole = flight.add_writer("shard1");
  whole.log(5'000, FlightCategory::kSched, FlightCode::kSend, 0, 0, 1);
  whole.log(25'000, FlightCategory::kSched, FlightCode::kSend, 0, 0, 1);
  FlightLog& spans = flight.add_writer("worker0 spans");
  for (std::uint64_t at = 5'000; at <= 25'000; at += 10'000) {
    spans.log(at, FlightCategory::kRuntime, FlightCode::kDrainSpan,
              at + 1'000, span_where(0, 1), 1);
  }
  FlightLog& supervisor = flight.add_writer("supervisor");
  supervisor.log(1'000, FlightCategory::kSupervisor, FlightCode::kLinkDead, 0);
  std::map<double, std::vector<double>> drawn;  // pid -> ts
  std::set<double> marked;
  for (const JsonValue& event : trace_events(render_chrome_trace(flight, {}))) {
    if (event.find("ph")->as_string() == "M") continue;
    const double pid = event.find("pid")->as_number();
    if (event.find("name")->as_string() == "trace_overflow") {
      EXPECT_EQ(event.find("ts")->as_number(), 20.0)
          << "the newer of the wrapped lanes' oldest events (20 vs 15 us)";
      marked.insert(pid);
      continue;
    }
    drawn[pid].push_back(event.find("ts")->as_number());
  }
  EXPECT_EQ(marked, (std::set<double>{1.0, 3.0}));
  EXPECT_EQ(drawn[1.0], (std::vector<double>{20.0, 30.0}));
  EXPECT_EQ(drawn[2.0], (std::vector<double>{25.0})) << "5 us precedes it";
  EXPECT_EQ(drawn[3.0], (std::vector<double>{25.0}));
  EXPECT_EQ(drawn[4.0], (std::vector<double>{1.0}));
}

// Sub-microsecond precision holds at any run length: a span that begins
// 2.5 s into the run keeps its nanoseconds, so consecutive spans on one
// worker track never appear to overlap.
TEST(ChromeTrace, TimestampsKeepNanosecondPrecision) {
  FlightRecorder flight(4);
  flight.add_writer("worker0").log(2'500'000'123, FlightCategory::kRuntime,
                                   FlightCode::kFanInSpan, 2'500'001'123,
                                   span_where(0, 1), 100);
  const JsonValue* span = nullptr;
  const std::vector<JsonValue> events =
      trace_events(render_chrome_trace(flight, {}));
  for (const JsonValue& event : events) {
    if (event.find("ph")->as_string() == "X") span = &event;
  }
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->find("ts")->as_number(), 2500000.123);
  EXPECT_EQ(span->find("dur")->as_number(), 1.0);
}

// --- TelemetryServer ------------------------------------------------------

std::string http_request(std::uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  (void)!::send(fd, raw.data(), raw.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

TEST(TelemetryServer, ServesMetricsHealthzAndRoutes) {
  MetricsRegistry reg;
  reg.counter("midrr_http_hits_total", "h").inc(5);
  TelemetryServer server;
  server.serve_registry(reg);
  server.handle("/custom", [](const http::HttpRequest&) {
    HandlerResult r;
    r.content_type = "application/json";
    r.body = "{\"ok\":true}";
    return r;
  });
  server.start();
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find(kPrometheusContentType), std::string::npos);
  EXPECT_NE(metrics.find("midrr_http_hits_total 5"), std::string::npos);

  EXPECT_NE(http_get(server.port(), "/healthz").find("ok"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/custom?x=1").find("{\"ok\":true}"),
            std::string::npos)
      << "query strings are stripped before routing";
  EXPECT_NE(http_get(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(
      http_request(server.port(), "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
          .find("405"),
      std::string::npos);
  EXPECT_GE(server.requests_served(), 5u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(TelemetryServer, ScrapesConcurrentlyWithWriters) {
  MetricsRegistry reg;
  Counter& c = reg.counter("midrr_live_total", "h");
  TelemetryServer server;
  server.serve_registry(reg);
  server.start();
  std::atomic<bool> stop{false};
  std::thread writer([&c, &stop] {
    while (!stop.load(std::memory_order_relaxed)) c.inc();
  });
  for (int i = 0; i < 20; ++i) {
    const std::string body = http_get(server.port(), "/metrics");
    EXPECT_NE(body.find("midrr_live_total"), std::string::npos);
  }
  stop = true;
  writer.join();
  server.stop();
}

// --- Logger thread safety -------------------------------------------------

TEST(Logger, ConcurrentWritersNeverTearLines) {
  std::ostringstream captured;
  Logger::instance().set_sink(&captured);
  const LogLevel before = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kInfo);
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        MIDRR_LOG_INFO() << "thread" << t << "-line" << i << "-end";
      }
    });
  }
  for (auto& w : writers) w.join();
  Logger::instance().set_level(before);
  Logger::instance().set_sink(nullptr);
  // Every line must be whole: starts with the level tag, ends with "-end".
  std::istringstream lines(captured.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_EQ(line.rfind("[INFO] thread", 0), 0u) << "torn line: " << line;
    ASSERT_EQ(line.substr(line.size() - 4), "-end") << "torn line: " << line;
    ++count;
  }
  EXPECT_EQ(count, static_cast<std::size_t>(kThreads) * kLines);
}

TEST(LogRateLimiter, AllowsOncePerIntervalAndCountsSuppression) {
  LogRateLimiter limiter(std::chrono::hours(1));
  EXPECT_TRUE(limiter.allow());
  EXPECT_FALSE(limiter.allow());
  EXPECT_FALSE(limiter.allow());
  EXPECT_EQ(limiter.suppressed(), 2u);
  EXPECT_EQ(limiter.take_suppressed(), 2u);
  EXPECT_EQ(limiter.suppressed(), 0u);
}

// --- RCU epoch lag --------------------------------------------------------

TEST(RcuEpochLag, ReportsSlowReaderDuringGracePeriod) {
  rt::Rcu<int> cell(std::make_unique<const int>(1));
  EXPECT_EQ(cell.max_reader_lag(), 0u);
  rt::Rcu<int>::Reader reader(cell);
  std::optional<rt::Rcu<int>::Reader::Guard> guard(reader.lock());
  EXPECT_EQ(cell.max_reader_lag(), 0u) << "current-epoch reader lags 0";
  std::atomic<bool> published{false};
  std::thread writer([&cell, &published] {
    cell.publish(std::make_unique<const int>(2));  // blocks on our guard
    published = true;
  });
  // The writer bumps the epoch, then spins on our announced (older) slot.
  while (cell.epoch() < 2) std::this_thread::yield();
  EXPECT_GE(cell.max_reader_lag(), 1u);
  EXPECT_FALSE(published.load());
  EXPECT_EQ(**guard, 1) << "old snapshot stays valid inside the guard";
  guard.reset();  // quiescent: the writer's grace period completes
  writer.join();
  EXPECT_TRUE(published.load());
  EXPECT_EQ(cell.max_reader_lag(), 0u);
}

// --- Fairness drift on a live runtime -------------------------------------

TEST(FairnessDrift, LiveRuntimeStaysWithinTenPercentOfMaxMin) {
  // 4 equal flows x 2 interfaces at 80 Mb/s each: the max-min reference
  // gives every flow 40 Mb/s.  The sampler, fed by the runtime's RCU
  // snapshot, must measure ratios within 10% of 1.0 (the e2e pin from
  // ROADMAP/ISSUE) and a Jain's index near 1.
  MetricsRegistry reg;
  rt::RuntimeOptions options;
  options.workers = 2;
  options.shards = 1;  // paper semantics: full cross-interface coupling
  options.metrics = &reg;
  rt::Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(80e6));
  runtime.add_interface("if1", RateProfile(80e6));
  for (int i = 0; i < 4; ++i) {
    rt::RtFlowSpec spec;
    spec.name = "f" + std::to_string(i);
    spec.willing = {0, 1};
    // Distinct queue capacities keep the four flows in four singleton
    // classes -- this test pins the flat (one row per flow) exposition.
    spec.queue_capacity_bytes = 512 * 1024 + static_cast<std::uint64_t>(i);
    runtime.control().add_flow(spec);
  }
  runtime.start();
  rt::LoadGeneratorOptions load;
  load.packet_bytes = 1000;
  rt::LoadGenerator generator(runtime, load);
  generator.start();

  FairnessDriftOptions drift_options;
  drift_options.interval_ns = 250 * kMillisecond;
  FairnessDriftSampler sampler(runtime, reg, drift_options);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // warm up
  sampler.sample_once();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  sampler.sample_once();

  const DriftReport report = sampler.last();
  generator.stop();
  runtime.stop();

  ASSERT_TRUE(report.valid);
  ASSERT_EQ(report.flows.size(), 4u);
  for (const FlowDrift& flow : report.flows) {
    EXPECT_NEAR(flow.ratio, 1.0, 0.10)
        << flow.name << " got " << flow.actual_bps << " vs max-min "
        << flow.maxmin_bps;
    EXPECT_EQ(flow.members, 1u);
  }
  EXPECT_GT(report.jain, 0.99);

  // The gauges made it into the registry.
  const std::string text = render_prometheus(reg);
  EXPECT_NE(text.find("midrr_fairness_jain_index"), std::string::npos);
  EXPECT_NE(text.find("midrr_fairness_rate_ratio{flow=\"f0\"}"),
            std::string::npos);

  // /flows JSON joins the sample with the drift window.
  const std::string json =
      flows_json(runtime.fairness_sample(), sampler.last());
  EXPECT_NE(json.find("\"name\":\"f0\""), std::string::npos);
  EXPECT_NE(json.find("\"jain\""), std::string::npos);
}

TEST(FairnessDrift, ClassRowSolverWeightIsPhiTimesMembers) {
  FairnessFlowSample single;
  single.weight = 2.0;
  FairnessFlowSample hundred = single;
  hundred.members = 100;
  EXPECT_DOUBLE_EQ(single.solver_weight(), 2.0);
  EXPECT_DOUBLE_EQ(hundred.solver_weight(), 200.0);
  FairnessFlowSample unset;
  unset.weight = 0.0;
  unset.members = 0;
  EXPECT_DOUBLE_EQ(unset.solver_weight(), 1.0);

  // On one shared link the class takes what its 100 members would take as
  // separate flows: 100 of every 101 bits.
  fair::MaxMinInput in;
  in.capacities_bps = {101e6};
  in.weights = {single.solver_weight(), hundred.solver_weight()};
  in.willing = {{true}, {true}};
  const fair::MaxMinResult r = fair::solve_max_min(in);
  EXPECT_DOUBLE_EQ(r.rates_bps[0], 1e6);
  EXPECT_DOUBLE_EQ(r.rates_bps[1], 100e6);
}

TEST(FairnessDrift, AggregatedClassRowCarriesMemberCountAndPerMemberRate) {
  // The same four equal flows, but registered as ONE class of four
  // members: the sampler must fold their byte counters into a single
  // row whose solver weight is phi x members, so the class's aggregate
  // lands on the whole 160 Mb/s and the lazy per-member gauges export.
  MetricsRegistry reg;
  rt::RuntimeOptions options;
  options.workers = 2;
  options.shards = 1;
  options.metrics = &reg;
  rt::Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(80e6));
  runtime.add_interface("if1", RateProfile(80e6));
  rt::ClassSpec spec;
  spec.name = "bundle";
  spec.willing = {0, 1};
  runtime.control().add_members(spec, 4);
  runtime.start();
  rt::LoadGeneratorOptions load;
  load.packet_bytes = 1000;
  rt::LoadGenerator generator(runtime, load);
  generator.start();

  FairnessDriftOptions drift_options;
  drift_options.interval_ns = 250 * kMillisecond;
  FairnessDriftSampler sampler(runtime, reg, drift_options);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  sampler.sample_once();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  sampler.sample_once();

  const DriftReport report = sampler.last();
  generator.stop();
  runtime.stop();

  ASSERT_TRUE(report.valid);
  ASSERT_EQ(report.flows.size(), 1u) << "four members, one class row";
  const FlowDrift& row = report.flows[0];
  EXPECT_EQ(row.members, 4u);
  EXPECT_NEAR(row.ratio, 1.0, 0.10)
      << row.name << " got " << row.actual_bps << " vs max-min "
      << row.maxmin_bps;
  // Both links together: the class aggregate is the whole 160 Mb/s.
  EXPECT_NEAR(row.maxmin_bps, 160e6, 1e6);

  const std::string text = render_prometheus(reg);
  EXPECT_NE(text.find("midrr_fairness_class_members{flow=\"bundle\"}"),
            std::string::npos);
  EXPECT_NE(text.find("midrr_fairness_rate_per_member_bps{flow=\"bundle\"}"),
            std::string::npos);

  const std::string json =
      flows_json(runtime.fairness_sample(), sampler.last());
  EXPECT_NE(json.find("\"members\":4"), std::string::npos);
}

TEST(RuntimeTelemetry, RegistersRuntimeSeriesAndCapturesTrace) {
  MetricsRegistry reg;
  FlightRecorder flight(1024);
  rt::RuntimeOptions options;
  options.workers = 2;
  options.shards = 2;
  options.metrics = &reg;
  options.flight = &flight;
  options.trace = true;
  rt::Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(100e6));
  runtime.add_interface("if1");
  for (int i = 0; i < 4; ++i) {
    rt::RtFlowSpec spec;
    spec.name = indexed_name("g", i);
    spec.willing = {0, 1};
    runtime.control().add_flow(spec);
  }
  runtime.start();
  rt::LoadGenerator generator(runtime, {});
  generator.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  generator.stop();
  runtime.stop();

  EXPECT_GE(reg.series_count(), 20u)
      << "acceptance: >= 20 distinct series with runtime + sched coverage";
  const std::string text = render_prometheus(reg);
  for (const char* name :
       {"midrr_rt_offered_packets_total", "midrr_rt_dequeued_packets_total",
        "midrr_rt_ingress_ring_occupancy", "midrr_rt_pacer_tokens_bytes",
        "midrr_rt_rcu_epoch_lag", "midrr_rt_packet_wait_ns_bucket",
        "midrr_sched_turns_total", "midrr_rt_iface_sent_bytes_total",
        "midrr_flight_events_lost_total{lane=\"shard0\"}",
        "midrr_flight_events_lost_total{lane=\"worker1\"}"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_TRUE(lint_prometheus(text).empty());

  const ChromeTrace trace = render_chrome_trace(flight, {"if0", "if1"});
  EXPECT_GT(trace.events, 0u);
  // Scheduler events reach the shard lanes and work spans the workers'.
  std::uint64_t sched = 0;
  std::uint64_t spans = 0;
  for (const FlightEvent& e : flight.snapshot()) {
    sched += e.category == FlightCategory::kSched;
    spans += e.code == FlightCode::kFanInSpan ||
             e.code == FlightCode::kDrainSpan;
  }
  EXPECT_GT(sched, 0u);
  EXPECT_GT(spans, 0u);
}

// One trace, one process row per lane: the supervisor's (added by the
// caller), one per shard scheduler, and per worker its transitions and
// its spans.  Each row is named once and carries the events of its lane
// only.  Under a saturating load the span lanes may wrap within the run,
// yet the fault applied at t = 0 still shows, on the transitions of the
// worker that applied it: spans and per-pass drops cannot overwrite it.
TEST(RuntimeTelemetry, EveryTraceSourceGetsItsOwnProcessRow) {
  fault::FaultInjector injector(fault::FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "iface_scale", "iface": 1, "scale": 0.5,
       "duration_ms": 60000}]})"));
  MetricsRegistry reg;  // the shard lanes are written by its observers
  FlightRecorder flight(1024);
  FlightLog& supervisor_lane = flight.add_writer("supervisor");
  rt::RuntimeOptions options;
  options.workers = 2;
  options.shards = 2;
  options.metrics = &reg;
  options.flight = &flight;
  options.trace = true;
  options.fault = &injector;
  rt::Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(100e6));
  runtime.add_interface("if1", RateProfile(100e6));
  for (int i = 0; i < 4; ++i) {
    rt::RtFlowSpec spec;
    spec.name = indexed_name("g", i);
    spec.willing = {0, 1};
    runtime.control().add_flow(spec);
  }
  runtime.start();
  fault::Supervisor supervisor(runtime, fault::SupervisorOptions{});
  supervisor.set_flight_log(&supervisor_lane);
  rt::LoadGenerator generator(runtime, {});
  generator.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  generator.stop();
  runtime.stop();
  ASSERT_GT(injector.iface_transitions(), 0u) << "the injector applied nothing";

  std::map<std::uint32_t, std::vector<std::string>> names;
  std::map<std::uint32_t, std::set<std::string>> categories;
  bool scale_shown = false;
  for (const JsonValue& event :
       trace_events(render_chrome_trace(flight, {"if0", "if1"}))) {
    const auto at = static_cast<std::uint32_t>(event.find("pid")->as_number());
    const std::string& name = event.find("name")->as_string();
    if (name == "process_name") {
      names[at].push_back(event.find("args")->find("name")->as_string());
    } else if (const JsonValue* category = event.find("cat")) {
      if (category->as_string() != "trace") {  // a wrapped lane's marker
        categories[at].insert(category->as_string());
      }
    }
    scale_shown |= name == "fault_scale if1";
  }
  const std::map<std::uint32_t, std::vector<std::string>> expected = {
      {1, {"supervisor"}},     {2, {"shard0"}}, {3, {"shard1"}},
      {4, {"worker0"}},        {5, {"worker0 spans"}},
      {6, {"worker1"}},        {7, {"worker1 spans"}}};
  EXPECT_EQ(names, expected);
  using Categories = std::set<std::string>;
  EXPECT_TRUE(categories[1].empty() ||
              categories[1] == Categories{"supervisor"});
  EXPECT_EQ(categories[2], Categories{"sched"});
  EXPECT_EQ(categories[3], Categories{"sched"});
  EXPECT_EQ(categories[4], Categories{"runtime"});
  EXPECT_EQ(categories[5], Categories{"runtime"});
  // if1 belongs to worker 1, which applied the scale.
  EXPECT_EQ(categories[6], (Categories{"fault", "runtime"}));
  EXPECT_EQ(categories[7], Categories{"runtime"});
  EXPECT_TRUE(scale_shown) << "the t = 0 fault fell out of the trace";
  // The transitions kept their whole history: overload logs a drop run
  // per 100 ms, not an event per fan-in pass.
  for (const std::size_t lane : {std::size_t{3}, std::size_t{5}}) {
    EXPECT_EQ(flight.lanes()[lane]->lost(), 0u)
        << flight.lanes()[lane]->name();
  }
}

// Scheduler rows speak global ids: with 4 interfaces over 2 shards each
// shard's scheduler numbers its own interfaces and flows from 0, but every
// track is named after a runtime interface and every flow arg is the
// registered global flow -- one willing on the track's interface.
TEST(RuntimeTelemetry, SchedulerRowsNameGlobalInterfacesAndFlows) {
  MetricsRegistry reg;
  FlightRecorder flight(4096);
  rt::RuntimeOptions options;
  options.workers = 2;
  options.shards = 2;
  options.metrics = &reg;
  options.flight = &flight;
  options.trace = true;
  rt::Runtime runtime(options);
  const std::vector<std::string> iface_names = {"if0", "if1", "if2", "if3"};
  for (const std::string& name : iface_names) {
    runtime.add_interface(name, RateProfile(50e6));
  }
  // Flow i is willing on interface i % 4 only, so shard 1 (if1, if3)
  // hosts the odd flows under local ids 0..3.
  std::vector<IfaceId> willing_of;  // by global flow id
  for (int i = 0; i < 8; ++i) {
    rt::RtFlowSpec spec;
    spec.willing = {static_cast<IfaceId>(i % 4)};
    const FlowId id = runtime.control().add_flow(spec);
    if (willing_of.size() <= id) willing_of.resize(id + 1, kInvalidIface);
    willing_of[id] = static_cast<IfaceId>(i % 4);
  }
  runtime.start();
  rt::LoadGenerator generator(runtime, {});
  generator.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  generator.stop();
  runtime.stop();

  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> tracks;
  std::vector<JsonValue> sched;
  for (const JsonValue& event :
       trace_events(render_chrome_trace(flight, iface_names))) {
    const auto pid = static_cast<std::uint32_t>(event.find("pid")->as_number());
    if (event.find("name")->as_string() == "thread_name") {
      const auto tid =
          static_cast<std::uint32_t>(event.find("tid")->as_number());
      tracks[{pid, tid}] = event.find("args")->find("name")->as_string();
    } else if (const JsonValue* cat = event.find("cat");
               cat != nullptr && cat->as_string() == "sched") {
      sched.push_back(event);
    }
  }
  ASSERT_FALSE(sched.empty());
  for (const JsonValue& event : sched) {
    const auto pid = static_cast<std::uint32_t>(event.find("pid")->as_number());
    const auto tid = static_cast<std::uint32_t>(event.find("tid")->as_number());
    const auto flow =
        static_cast<std::size_t>(event.find("args")->find("flow")->as_number());
    ASSERT_LT(flow, willing_of.size()) << "not a registered flow";
    ASSERT_NE(willing_of[flow], kInvalidIface) << "not a registered flow";
    const std::string& track = tracks[{pid, tid}];
    if (track == "flow drains") continue;
    EXPECT_EQ(track, iface_names[willing_of[flow]])
        << event.find("name")->as_string() << " on track " << track;
  }
  std::set<std::uint32_t> sched_rows;
  for (const JsonValue& event : sched) {
    sched_rows.insert(
        static_cast<std::uint32_t>(event.find("pid")->as_number()));
  }
  for (const auto& [key, track] : tracks) {
    if (sched_rows.count(key.first) == 0) continue;  // a worker's drop runs
    EXPECT_TRUE(track == "flow drains" ||
                std::find(iface_names.begin(), iface_names.end(), track) !=
                    iface_names.end())
        << track;
  }
}

/// Sum of the values of every sample line whose name is exactly `name`.
std::uint64_t sum_series(const std::string& text, const std::string& name) {
  std::uint64_t total = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(name + "{", 0) == 0 || line.rfind(name + " ", 0) == 0) {
      total += std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  return total;
}

TEST(RuntimeTelemetry, HistogramsAreScrapedFromTheRuntimesOwnGrids) {
  MetricsRegistry reg;
  rt::RuntimeOptions options;
  options.workers = 2;
  options.metrics = &reg;
  options.stage_sample_every = 1;
  rt::Runtime runtime(options);
  runtime.add_interface("if0");
  runtime.add_interface("if1");
  std::vector<FlowId> flows;
  for (int i = 0; i < 8; ++i) {
    rt::RtFlowSpec spec;
    spec.willing = {static_cast<IfaceId>(i % 2)};
    flows.push_back(runtime.control().add_flow(spec));
  }
  runtime.start();
  {
    rt::IngressPort port = runtime.port(0);
    for (std::size_t i = 0; i < 2000; ++i) {
      port.offer(flows[i % flows.size()], 200);
    }
  }  // the port flushes its offered count on destruction
  const auto settled = [&runtime] {
    const rt::RuntimeStats s = runtime.stats();
    return s.offered == s.dequeued + s.fanin_drops + s.tail_drops +
                            s.shed_drops + s.straggler_drops &&
           s.sent == s.dequeued;
  };
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!settled() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runtime.stop();
  const rt::RuntimeStats stats = runtime.stats();
  const StageTracer* tracer = runtime.stage_tracer();
  ASSERT_NE(tracer, nullptr);
  ASSERT_GT(stats.latency_count, 0u);
  ASSERT_GT(tracer->completed(), 0u);

  const std::string text = render_prometheus(reg);
  EXPECT_EQ(sum_series(text, "midrr_rt_packet_wait_ns_count"),
            stats.latency_count);
  EXPECT_EQ(sum_series(text, "midrr_stage_e2e_ns_count"), tracer->completed());

  // Every histogram series keeps the exposition ladder: powers of 4 from
  // 256 to 2^32, then +Inf.
  std::vector<double> ladder;
  for (double le = 256.0; le <= 4294967296.0; le *= 4.0) ladder.push_back(le);
  for (const std::string family :
       {"midrr_rt_packet_wait_ns", "midrr_stage_latency_ns",
        "midrr_stage_e2e_ns"}) {
    std::map<std::string, std::vector<std::string>> les;  // by series
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind(family + "_bucket{", 0) != 0) continue;
      const std::size_t at = line.find("le=\"");
      ASSERT_NE(at, std::string::npos) << line;
      const std::size_t end = line.find('"', at + 4);
      les[line.substr(0, at)].push_back(line.substr(at + 4, end - at - 4));
    }
    EXPECT_FALSE(les.empty()) << family;
    for (const auto& [series, bounds] : les) {
      ASSERT_EQ(bounds.size(), ladder.size() + 1) << series;
      for (std::size_t i = 0; i < ladder.size(); ++i) {
        EXPECT_DOUBLE_EQ(std::stod(bounds[i]), ladder[i]) << series;
      }
      EXPECT_EQ(bounds.back(), "+Inf") << series;
    }
  }
  EXPECT_TRUE(lint_prometheus(text).empty());
}

// --- JSON bodies with caller-chosen names ---------------------------------

TEST(TelemetryJson, CallerChosenNamesStayValidJson) {
  const std::string name = "a\"b\\c";
  FairnessSample sample;
  FairnessFlowSample flow;
  flow.id = 0;
  flow.name = name;
  sample.flows.push_back(flow);
  const JsonValue flows = JsonValue::parse(flows_json(sample, DriftReport{}));
  EXPECT_EQ(flows.find("flows")->as_array()[0].find("name")->as_string(), name);

  SloEngine slo({SloSpec{name, 5'000'000}}, 4);
  const JsonValue slos = JsonValue::parse(slo.json(0));
  EXPECT_EQ(slos.find("slos")->as_array()[0].find("class")->as_string(), name);

  FlightRecorder flight;
  flight.add_writer(name).log(1, FlightCategory::kHealth,
                              FlightCode::kHealthDegraded);
  const JsonValue dump = JsonValue::parse(flight.dump_json(name, 2));
  EXPECT_EQ(dump.find("reason")->as_string(), name);
  EXPECT_EQ(dump.find("writers")->as_array()[0].as_string(), name);
  EXPECT_EQ(dump.find("events")->as_array()[0].find("writer")->as_string(),
            name);
}

}  // namespace
}  // namespace midrr::telemetry
