// Unit tests for the HTTP layer: message parsing/serialization, range
// headers, the reassembler, and the byte-range proxy end to end.
#include <gtest/gtest.h>

#include "http/message.hpp"
#include "http/proxy.hpp"
#include "http/reassembler.hpp"

namespace midrr::http {
namespace {

TEST(ByteRangeHeader, RoundTrip) {
  const ByteRange r{100, 199};
  EXPECT_EQ(r.to_range_header(), "bytes=100-199");
  const auto parsed = ByteRange::parse_range_header("bytes=100-199");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r);
  EXPECT_EQ(r.length(), 100u);
}

TEST(ByteRangeHeader, RejectsMalformed) {
  EXPECT_FALSE(ByteRange::parse_range_header("bytes=100-").has_value());
  EXPECT_FALSE(ByteRange::parse_range_header("bytes=-100").has_value());
  EXPECT_FALSE(ByteRange::parse_range_header("items=1-2").has_value());
  EXPECT_FALSE(ByteRange::parse_range_header("bytes=200-100").has_value());
}

TEST(ContentRange, RoundTrip) {
  const ByteRange r{0, 65535};
  EXPECT_EQ(r.to_content_range(1000000), "bytes 0-65535/1000000");
  const auto parsed = ByteRange::parse_content_range("bytes 0-65535/1000000");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, r);
  EXPECT_EQ(parsed->second, 1000000u);
}

TEST(HttpRequest, SerializeParseRoundTrip) {
  HttpRequest req;
  req.target = "/movie.mp4";
  req.set_header("Host", "cdn.example");
  req.set_header("Range", ByteRange{0, 65535}.to_range_header());
  const std::string wire = req.serialize();
  EXPECT_NE(wire.find("GET /movie.mp4 HTTP/1.1\r\n"), std::string::npos);
  const auto parsed = HttpRequest::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/movie.mp4");
  EXPECT_EQ(parsed->header("host"), "cdn.example");  // case-insensitive
  ASSERT_TRUE(parsed->range().has_value());
  EXPECT_EQ(parsed->range()->last, 65535u);
}

TEST(HttpRequest, HeaderUpsertReplaces) {
  HttpRequest req;
  req.set_header("Range", "bytes=0-1");
  req.set_header("range", "bytes=2-3");
  ASSERT_TRUE(req.range().has_value());
  EXPECT_EQ(req.range()->first, 2u);
  EXPECT_EQ(req.headers.size(), 1u);
}

TEST(HttpRequest, QueryMatchesWholeParameterNames) {
  HttpRequest req;
  req.target = "/adapt?x=1&target_p99_ms=5abc&y";
  EXPECT_EQ(req.query("target_p99_ms"), "5abc");
  EXPECT_EQ(req.query("x"), "1");
  EXPECT_FALSE(req.query("y").has_value());  // no '=': not a parameter
  req.target = "/adapt?xtarget_p99_ms=5&target_p99=7";
  EXPECT_FALSE(req.query("target_p99_ms").has_value());
  req.target = "/adapt";
  EXPECT_FALSE(req.query("target_p99_ms").has_value());
}

TEST(HttpResponse, PartialContentRoundTrip) {
  const auto res = HttpResponse::partial(ByteRange{65536, 131071}, 1 << 20);
  const auto parsed = HttpResponse::parse_head(res.serialize_head());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 206);
  EXPECT_EQ(parsed->reason, "Partial Content");
  EXPECT_EQ(parsed->content_length(), 65536u);
  const auto range = parsed->content_range();
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first.first, 65536u);
  EXPECT_EQ(range->second, std::uint64_t{1} << 20);
}

TEST(HttpResponse, ParseRejectsGarbage) {
  EXPECT_FALSE(HttpResponse::parse_head("not an http response").has_value());
  EXPECT_FALSE(HttpRequest::parse("\r\n").has_value());
}

TEST(Reassembler, InOrderDeliveryIsImmediate) {
  RangeReassembler r;
  r.add({0, 99});
  EXPECT_EQ(r.contiguous_prefix(), 100u);
  r.add({100, 299});
  EXPECT_EQ(r.contiguous_prefix(), 300u);
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(Reassembler, GapBlocksDelivery) {
  RangeReassembler r;
  r.add({100, 199});  // hole at [0, 100)
  EXPECT_EQ(r.contiguous_prefix(), 0u);
  EXPECT_EQ(r.buffered_bytes(), 100u);
  EXPECT_EQ(r.pending_ranges(), 1u);
  r.add({0, 99});  // plug the hole -> everything releases
  EXPECT_EQ(r.contiguous_prefix(), 200u);
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(Reassembler, MergesOverlapsAndDuplicates) {
  RangeReassembler r;
  r.add({0, 49});
  r.add({25, 99});   // overlap
  r.add({0, 10});    // duplicate of delivered data
  EXPECT_EQ(r.contiguous_prefix(), 100u);
  EXPECT_EQ(r.bytes_received(), 100u);
  r.add({200, 299});
  r.add({150, 219});  // merges with pending
  EXPECT_EQ(r.pending_ranges(), 1u);
  EXPECT_EQ(r.bytes_received(), 250u);
  r.add({100, 149});
  EXPECT_EQ(r.contiguous_prefix(), 300u);
}

TEST(Reassembler, ManyOutOfOrderChunks) {
  RangeReassembler r;
  // Chunks 9,8,...,1 then 0: nothing delivers until the first arrives.
  for (int i = 9; i >= 1; --i) {
    r.add({static_cast<std::uint64_t>(i) * 100,
           static_cast<std::uint64_t>(i) * 100 + 99});
    EXPECT_EQ(r.contiguous_prefix(), 0u);
  }
  r.add({0, 99});
  EXPECT_EQ(r.contiguous_prefix(), 1000u);
}

TEST(Proxy, SingleFlowSaturatesOneInterface) {
  HttpRangeProxy proxy({{"if1", RateProfile(mbps(8))}},
                       {{"dl", 1.0, {"if1"}, 0}});
  const auto result = proxy.run(20 * kSecond);
  EXPECT_NEAR(result.flows[0].mean_goodput_mbps(5 * kSecond, 20 * kSecond),
              8.0, 0.4);
  EXPECT_GT(result.requests_sent, 100u);
  EXPECT_GT(result.request_header_bytes, 0u);
}

TEST(Proxy, AggregatesTwoInterfaces) {
  // One download willing on both interfaces gets their sum (the paper's
  // bandwidth-aggregation promise, via byte ranges + pipelining).
  HttpRangeProxy proxy(
      {{"wifi", RateProfile(mbps(6))}, {"lte", RateProfile(mbps(3))}},
      {{"dl", 1.0, {"wifi", "lte"}, 0}});
  const auto result = proxy.run(20 * kSecond);
  EXPECT_NEAR(result.flows[0].mean_goodput_mbps(5 * kSecond, 20 * kSecond),
              9.0, 0.5);
  EXPECT_GT(result.flows[0].chunks_per_iface[0], 50u);
  EXPECT_GT(result.flows[0].chunks_per_iface[1], 25u);
}

TEST(Proxy, Fig1cFairnessAtHttpGranularity) {
  HttpRangeProxy proxy(
      {{"if1", RateProfile(mbps(4))}, {"if2", RateProfile(mbps(4))}},
      {{"a", 1.0, {"if1", "if2"}, 0}, {"b", 1.0, {"if2"}, 0}});
  const auto result = proxy.run(30 * kSecond);
  EXPECT_NEAR(result.flow_named("a").mean_goodput_mbps(10 * kSecond,
                                                       30 * kSecond),
              4.0, 0.3);
  EXPECT_NEAR(result.flow_named("b").mean_goodput_mbps(10 * kSecond,
                                                       30 * kSecond),
              4.0, 0.3);
}

TEST(Proxy, FiniteDownloadCompletesAndStops) {
  HttpRangeProxy proxy({{"if1", RateProfile(mbps(8))}},
                       {{"dl", 1.0, {"if1"}, 10'000'000}});
  const auto result = proxy.run(60 * kSecond);
  const auto& dl = result.flows[0];
  ASSERT_TRUE(dl.completed_at.has_value());
  // 80 Mbit at 8 Mb/s = 10 s.
  EXPECT_NEAR(to_seconds(*dl.completed_at), 10.0, 0.5);
  EXPECT_EQ(dl.delivered_bytes, 10'000'000u);
  EXPECT_EQ(dl.received_bytes, 10'000'000u);
}

TEST(Proxy, VaryingLinkFollowedByGoodput) {
  // Square-wave link: goodput must track the current capacity.
  HttpRangeProxy proxy(
      {{"if1", RateProfile::square_wave(mbps(8), mbps(2), 20 * kSecond,
                                        60 * kSecond)}},
      {{"dl", 1.0, {"if1"}, 0}});
  const auto result = proxy.run(40 * kSecond);
  const auto& dl = result.flows[0];
  EXPECT_NEAR(dl.mean_goodput_mbps(4 * kSecond, 9 * kSecond), 8.0, 0.8);
  EXPECT_NEAR(dl.mean_goodput_mbps(14 * kSecond, 19 * kSecond), 2.0, 0.6);
  EXPECT_NEAR(dl.mean_goodput_mbps(24 * kSecond, 29 * kSecond), 8.0, 0.8);
}


TEST(Proxy, NaiveDrrBaselineFailsToTrackFasterLink) {
  // The Fig 10 claim is policy-specific: under naive per-interface DRR the
  // multi-homed flow takes half of BOTH links instead of clustering with
  // the faster one, so the pinned flows lose exactly what miDRR protects.
  const auto run_policy = [](Policy policy) {
    ProxyOptions opt;
    opt.policy = policy;
    HttpRangeProxy proxy(
        {{"fast", RateProfile(mbps(8))}, {"slow", RateProfile(mbps(2))}},
        {{"a", 1.0, {"fast"}, 0}, {"b", 1.0, {"fast", "slow"}, 0},
         {"c", 1.0, {"slow"}, 0}},
        opt);
    return proxy.run(30 * kSecond);
  };
  const auto mi = run_policy(Policy::kMiDrr);
  const auto nd = run_policy(Policy::kNaiveDrr);
  // max-min: a=4, b=4, c=2.  naive: a=4, b=4+1=5, c=1.
  EXPECT_NEAR(mi.flow_named("c").mean_goodput_mbps(10 * kSecond,
                                                   30 * kSecond),
              2.0, 0.2);
  EXPECT_NEAR(nd.flow_named("c").mean_goodput_mbps(10 * kSecond,
                                                   30 * kSecond),
              1.0, 0.2);
  EXPECT_GT(nd.flow_named("b").mean_goodput_mbps(10 * kSecond, 30 * kSecond),
            mi.flow_named("b").mean_goodput_mbps(10 * kSecond, 30 * kSecond) +
                0.5);
}

TEST(Proxy, WeightedDownloadsShareProportionally) {
  HttpRangeProxy proxy({{"if1", RateProfile(mbps(6))}},
                       {{"heavy", 2.0, {"if1"}, 0},
                        {"light", 1.0, {"if1"}, 0}});
  const auto result = proxy.run(30 * kSecond);
  EXPECT_NEAR(result.flow_named("heavy").mean_goodput_mbps(10 * kSecond,
                                                           30 * kSecond),
              4.0, 0.3);
  EXPECT_NEAR(result.flow_named("light").mean_goodput_mbps(10 * kSecond,
                                                           30 * kSecond),
              2.0, 0.2);
}

}  // namespace
}  // namespace midrr::http
