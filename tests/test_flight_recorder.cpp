// FlightRecorder: ring retention, torn-entry safety against a live writer,
// merged-timeline ordering, JSON dumps, and the async-signal-safe fatal
// path.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/flight_recorder.hpp"

namespace {

using midrr::telemetry::FlightCategory;
using midrr::telemetry::FlightCode;
using midrr::telemetry::FlightEvent;
using midrr::telemetry::FlightLog;
using midrr::telemetry::FlightRecorder;
using midrr::telemetry::span_where;

TEST(FlightLog, RetainsOnlyTheLastCapacityEvents) {
  FlightRecorder recorder(/*per_writer_capacity=*/4);
  FlightLog& log = recorder.add_writer("w");
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.log(i, FlightCategory::kRuntime, FlightCode::kNote, i);
  }
  EXPECT_EQ(log.logged(), 10u);
  EXPECT_EQ(recorder.events_logged(), 10u);
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The surviving window is the most recent one, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6 + i);
  }
}

// A dumper racing the writer never keeps a torn entry: every event it
// returns is the one logged into that slot (t = i, a = i, b = ~i, c = i),
// and the window comes back contiguous and in logging order, starting
// right after the events snapshot() reports lost.
TEST(FlightLog, SnapshotsRacingTheWriterNeverKeepATornEntry) {
  FlightRecorder recorder(/*per_writer_capacity=*/64);
  FlightLog& log = recorder.add_writer("w");
  constexpr std::uint64_t kEvents = 2'000'000;
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::thread writer([&log, &go, &done] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      log.log(i, FlightCategory::kRuntime, FlightCode::kNote, i, ~i, i);
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t snapshots = 0;
  std::uint64_t returned = 0;
  std::uint64_t bad = 0;
  std::vector<FlightEvent> window;
  go.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    window.clear();
    const std::uint64_t lost = log.snapshot(window);
    ++snapshots;
    returned += window.size();
    for (std::size_t k = 0; k < window.size(); ++k) {
      const FlightEvent& e = window[k];
      bad += e.a != e.t_ns || e.b != ~e.t_ns || e.c != e.t_ns ||
             e.t_ns != lost + k;
    }
  }
  writer.join();
  EXPECT_EQ(bad, 0u) << "over " << snapshots << " snapshots returning "
                     << returned << " events";
  // Quiescent: the newest 64, all intact, and the rest reported lost.
  window.clear();
  EXPECT_EQ(log.snapshot(window), kEvents - 64);
  ASSERT_EQ(window.size(), 64u);
  EXPECT_EQ(window.front().t_ns, kEvents - 64);
  EXPECT_EQ(log.lost(), kEvents - 64);
}

TEST(FlightRecorder, MergesWritersIntoOneMonotonicTimeline) {
  FlightRecorder recorder(8);
  FlightLog& a = recorder.add_writer("alpha");
  FlightLog& b = recorder.add_writer("beta");
  // Interleaved wall-clock order, logged out of order across writers.
  a.log(10, FlightCategory::kRuntime, FlightCode::kWorkerStart, 0);
  b.log(5, FlightCategory::kIo, FlightCode::kIoPushback, 2, 1);
  a.log(30, FlightCategory::kRuntime, FlightCode::kWorkerExit, 0);
  b.log(20, FlightCategory::kSupervisor, FlightCode::kLinkDead, 1);
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_ns, events[i].t_ns) << "merge must sort";
  }
  EXPECT_EQ(events.front().t_ns, 5u);
  EXPECT_EQ(events.front().writer, b.id());
  EXPECT_EQ(events.back().t_ns, 30u);
  EXPECT_EQ(events.back().writer, a.id());
}

TEST(FlightRecorder, DumpJsonCarriesReasonWritersAndEvents) {
  FlightRecorder recorder(8);
  FlightLog& log = recorder.add_writer("worker0");
  log.log(42, FlightCategory::kHealth, FlightCode::kHealthDegraded, 7, 9);
  const std::string json = recorder.dump_json("unit test", 1000);
  EXPECT_NE(json.find("\"reason\":\"unit test\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dumped_at_ns\":1000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"worker0\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"health_degraded\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"t_ns\":42"), std::string::npos) << json;

  const std::string path = ::testing::TempDir() + "flight_dump_test.json";
  EXPECT_TRUE(recorder.dump_to_file(path, "to disk", 2000));
  EXPECT_EQ(recorder.dumps(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"to disk\""), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(recorder.dump_to_file("/nonexistent-dir/x.json", "r", 0));
}

TEST(FlightRecorder, SignalDumpIsWrittenWithWriteOnly) {
  // Exercise the handler body directly: it must produce valid output with
  // nothing but write(2) on a plain fd.
  FlightRecorder recorder(8);
  FlightLog& log = recorder.add_writer("w");
  log.log(7, FlightCategory::kFault, FlightCode::kFaultScale, 1, 500, 3);
  const std::string path = ::testing::TempDir() + "flight_signal_test.json";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  recorder.write_signal_dump(fd, SIGSEGV);
  ::close(fd);
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string dump = buf.str();
  EXPECT_NE(dump.find("\"signal\":11"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"t_ns\":7"), std::string::npos) << dump;
  // Every slot field, the third argument included.
  EXPECT_NE(dump.find("\"a\":1,\"b\":500,\"c\":3}"), std::string::npos)
      << dump;
  std::remove(path.c_str());
}

// A post-mortem costs the same whatever the lane size: deep tracing lanes
// dump only their newest kDumpLaneEvents, in both sinks.
TEST(FlightRecorder, DumpsKeepTheNewestEventsOfEachLane) {
  constexpr std::uint64_t kLogged = 1000;
  static_assert(kLogged > FlightRecorder::kDumpLaneEvents);
  FlightRecorder recorder(4096);
  FlightLog& log = recorder.add_writer("deep");
  for (std::uint64_t i = 0; i < kLogged; ++i) {
    log.log(i, FlightCategory::kRuntime, FlightCode::kNote, i);
  }
  const std::string json = recorder.dump_json("cap", 1);
  auto count = [](const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count(json, "\"t_ns\":"), FlightRecorder::kDumpLaneEvents);
  const std::string oldest =
      "\"t_ns\":" + std::to_string(kLogged - FlightRecorder::kDumpLaneEvents) +
      ",";
  EXPECT_NE(json.find(oldest), std::string::npos) << "the newest, not the first";

  const std::string path = ::testing::TempDir() + "flight_cap_test.json";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  recorder.write_signal_dump(fd, SIGABRT);
  ::close(fd);
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(count(buf.str(), "\"t_ns\":"), FlightRecorder::kDumpLaneEvents);
  EXPECT_NE(buf.str().find(oldest), std::string::npos);
  std::remove(path.c_str());
}

// The dump names each argument from the same catalog the Chrome trace
// uses: an interface is "iface", a grant's deficit stays signed, a span's
// packed b splits into its interface and packets.
TEST(FlightRecorder, DumpNamesArgumentsFromTheCatalog) {
  FlightRecorder recorder(8);
  FlightLog& log = recorder.add_writer("w");
  log.log(1, FlightCategory::kFault, FlightCode::kFaultScale, 1, 500);
  log.log(2, FlightCategory::kSched, FlightCode::kGrant, 5, 1,
          static_cast<std::uint64_t>(std::int64_t{-300}));
  log.log(3, FlightCategory::kRuntime, FlightCode::kDrainSpan, 9,
          span_where(2, 3), 2700);
  log.log(4, FlightCategory::kRuntime, FlightCode::kTailDrops, 8, 40, 6);
  const std::string json = recorder.dump_json("names", 5);
  for (const char* fields :
       {"\"code\":\"fault_scale\",\"iface\":1,\"scale_milli\":500}",
        "\"code\":\"grant\",\"flow\":5,\"iface\":1,\"deficit_after\":-300}",
        "\"code\":\"drain_span\",\"end_ns\":9,\"iface\":2,\"packets\":3,"
        "\"bytes\":2700}",
        "\"code\":\"tail_drops\",\"end_ns\":8,\"packets\":40,\"passes\":6}"}) {
    EXPECT_NE(json.find(fields), std::string::npos) << fields << "\n" << json;
  }
}

TEST(FlightRecorderDeathTest, FatalSignalProducesPostMortem) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = ::testing::TempDir() + "flight_fatal_test.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        FlightRecorder recorder(8);
        FlightLog& log = recorder.add_writer("doomed");
        log.log(123, FlightCategory::kRuntime, FlightCode::kNote, 1, 2);
        if (!recorder.arm_fatal_dump(path)) _exit(97);
        std::raise(SIGABRT);
      },
      "");
  // The child died by the re-raised signal; its handler must have flushed
  // the post-mortem via write(2) before dying.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "fatal dump missing at " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"t_ns\":123"), std::string::npos) << buf.str();
  std::remove(path.c_str());
}

}  // namespace
