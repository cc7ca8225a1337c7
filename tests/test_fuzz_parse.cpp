// Fuzz-style robustness tests: the wire-format parsers must never crash,
// hang or read out of bounds on arbitrary byte soup -- they either parse,
// return nullopt, or throw BufferOverrun.  (Deterministic seeds; thousands
// of inputs per shape.)  FaultPlan JSON additionally has a canonical form:
// whatever parses must serialize to a parse/serialize fixpoint, and any
// document the JSON writer prints must parse back to the values written.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario_text.hpp"
#include "fault/fault_plan.hpp"
#include "http/message.hpp"
#include "io/wire.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace midrr {
namespace {

net::ByteBuffer random_bytes(Rng& rng, std::size_t max_len) {
  net::ByteBuffer buf(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (auto& b : buf) {
    b = static_cast<net::Byte>(rng.uniform_int(0, 255));
  }
  return buf;
}

TEST(FuzzParse, RandomBytesNeverCrashFrameParse) {
  Rng rng(0xF00D);
  int parsed = 0;
  int rejected = 0;
  int overrun = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    net::Frame frame(random_bytes(rng, 128));
    try {
      const auto view = frame.parse();
      if (view) {
        ++parsed;
        // A successfully parsed view must be self-consistent.
        EXPECT_LE(view->payload_offset + view->payload_length, frame.size());
        EXPECT_GE(view->l4_offset, view->l3_offset + 20);
      } else {
        ++rejected;
      }
    } catch (const net::BufferOverrun&) {
      ++overrun;
    }
  }
  // Random bytes overwhelmingly fail to parse; the split just documents
  // that all three outcomes occur and none is a crash.
  EXPECT_GT(rejected + overrun, 19'000);
}

TEST(FuzzParse, MutatedValidFramesNeverCrash) {
  Rng rng(0xBEEF);
  const net::Frame valid = net::FrameBuilder()
                               .eth_src(net::MacAddress::local(1))
                               .eth_dst(net::MacAddress::local(2))
                               .ip_src(net::Ipv4Address(10, 0, 0, 1))
                               .ip_dst(net::Ipv4Address(10, 0, 0, 2))
                               .tcp(1000, 2000)
                               .payload_size(64)
                               .build();
  int checksum_caught = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    net::ByteBuffer bytes(valid.bytes().begin(), valid.bytes().end());
    // Flip 1-4 random bytes.
    const auto flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<net::Byte>(rng.uniform_int(1, 255));
    }
    net::Frame frame(std::move(bytes));
    try {
      const auto view = frame.parse();
      if (view && !frame.checksums_valid()) ++checksum_caught;
    } catch (const net::BufferOverrun&) {
      // Truncation-style corruption; fine.
    }
  }
  EXPECT_GT(checksum_caught, 1000)
      << "checksums should catch most payload corruption";
}

TEST(FuzzParse, HttpMessagesNeverCrash) {
  Rng rng(0xCAFE);
  const char charset[] =
      "GET /abc HTTP/1.1\r\n: =-0123456789bytes\nRange Content";
  for (int trial = 0; trial < 20'000; ++trial) {
    std::string text;
    const auto len = rng.uniform_int(0, 120);
    for (std::int64_t i = 0; i < len; ++i) {
      text += charset[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sizeof(charset)) - 2))];
    }
    (void)http::HttpRequest::parse(text);
    (void)http::HttpResponse::parse_head(text);
    (void)http::ByteRange::parse_range_header(text);
    (void)http::ByteRange::parse_content_range(text);
  }
  SUCCEED();
}

TEST(FuzzParse, ScenarioTextNeverCrashes) {
  Rng rng(0xD00F);
  const char charset[] =
      "[]=interface flow run rate ifaces source mbps s 0123456789.,:#\n";
  for (int trial = 0; trial < 10'000; ++trial) {
    std::string text;
    const auto len = rng.uniform_int(0, 200);
    for (std::int64_t i = 0; i < len; ++i) {
      text += charset[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sizeof(charset)) - 2))];
    }
    try {
      (void)parse_scenario_text(text);
    } catch (const ScenarioParseError&) {
      // expected for garbage
    } catch (const PreconditionError&) {
      // deep validation (e.g. RateProfile) may fire first; also fine
    }
  }
  SUCCEED();
}

TEST(FuzzParse, PcapReaderNeverCrashes) {
  Rng rng(0xFEED);
  for (int trial = 0; trial < 10'000; ++trial) {
    const auto bytes = random_bytes(rng, 200);
    std::string s(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    std::istringstream in(s);
    (void)net::read_pcap(in);
  }
  SUCCEED();
}

TEST(FuzzParse, FaultPlanJsonParsesOrThrowsAndReachesItsFixpoint) {
  // Every fault kind plus an observed note, so mutations land in every
  // field parser.
  const std::string valid = R"({"seed": 42, "events": [
    {"at_ms": 500, "kind": "iface_down", "iface": 1},
    {"at_ms": 2000, "kind": "iface_up", "iface": 1},
    {"at_ms": 900, "kind": "iface_flap", "iface": 1, "period_ms": 100,
     "duty": 0.25, "duration_ms": 600},
    {"at_ms": 300.5, "kind": "iface_scale", "iface": 0, "scale": 0.25,
     "duration_ms": 400},
    {"at_ms": 400, "kind": "worker_stall", "worker": 3, "duration_ms": 250},
    {"at_ms": 100, "kind": "ingress_drop", "probability": 0.01,
     "duration_ms": 1000},
    {"at_ms": 100, "kind": "ingress_dup", "probability": 0.5,
     "duration_ms": 1000},
    {"at_ms": 100, "kind": "ingress_delay", "probability": 0.02,
     "delay_ms": 5, "duration_ms": 1000},
    {"at_ms": 600, "kind": "pool_exhaust", "duration_ms": 200}],
  "observed": [{"at_ms": 250, "note": "shed \"engaged\" \\ \u0001"}]})";
  // Bytes that keep a mutation JSON-shaped often enough to reach the
  // schema checks, plus digits and exponents for the number fields.
  const std::string alphabet = "0123456789.-+eE\"\\{}[]:, u";
  // Whole-number swaps for the range checks: overflowing casts, values
  // that round to 0 ns, and precision past 2^53.
  const std::vector<std::string> hostile = {
      "1e300", "1e-300", "1e20", "-0", "0.0000001", "4294967295",
      "4294967296", "18446744073709551616", "123456789012.3456789", "1e9",
      "1000000000.5", "0.5", "1", "-1"};
  Rng rng(0xFA17);
  int parsed = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    std::string text = valid;
    if (rng.coin(0.3)) {
      // Replace one number token.
      std::size_t at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      at = text.find_first_of("0123456789", at);
      if (at == std::string::npos) at = text.find_first_of("0123456789");
      const auto in_number = [&text](std::size_t i) {
        return std::string("0123456789.eE+-").find(text[i]) !=
               std::string::npos;
      };
      std::size_t begin = at;
      while (begin > 0 && in_number(begin - 1)) --begin;
      std::size_t end = at;
      while (end < text.size() && in_number(end)) ++end;
      text.replace(begin, end - begin,
                   hostile[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(hostile.size()) - 1))]);
    } else if (rng.coin(0.1)) {
      text.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1)));
    } else {
      for (std::int64_t m = rng.uniform_int(1, 3); m > 0 && !text.empty();
           --m) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
        const char c = alphabet[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(alphabet.size()) - 1))];
        switch (rng.uniform_int(0, 2)) {
          case 0: text[at] = c; break;
          case 1: text.insert(at, 1, c); break;
          default: text.erase(at, 1); break;
        }
      }
    }
    fault::FaultPlan plan;
    try {
      plan = fault::FaultPlan::parse_json(text);
    } catch (const std::exception&) {
      continue;  // rejected loudly: fine
    }
    ++parsed;
    const std::string canonical = plan.to_json();
    try {
      EXPECT_EQ(fault::FaultPlan::parse_json(canonical).to_json(), canonical)
          << "from: " << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "canonical form does not parse: " << e.what()
                    << "\nfrom: " << text << "\ncanonical: " << canonical;
    }
  }
  EXPECT_GT(parsed, 2000) << "too few mutations survived to test the fixpoint";
  // Nesting is bounded, not a stack overflow.
  EXPECT_THROW(fault::FaultPlan::parse_json(std::string(1'000'000, '[')),
               std::exception);
}

// A random JSON document kept as a tree of its own, so what the writer
// printed can be compared with what the reader parses back.
struct Doc {
  JsonValue::Kind kind = JsonValue::Kind::kNull;
  bool flag = false;
  double number = 0.0;
  std::string text;
  std::vector<std::pair<std::string, Doc>> members;  ///< kObject, unique keys
  std::vector<Doc> items;                            ///< kArray
};

std::string random_string(Rng& rng) {
  // Quotes, backslashes, control bytes and UTF-8 bytes are the escaping
  // cases; the rest is printable ASCII.
  static constexpr char kSpecial[] = "\"\\\n\t\r\x01\x1f\xc3\xa9";
  std::string s(static_cast<std::size_t>(rng.uniform_int(0, 12)), ' ');
  for (char& c : s) {
    const auto special = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sizeof kSpecial) - 2));
    c = rng.coin(0.3) ? kSpecial[special]
                      : static_cast<char>(rng.uniform_int(0x20, 0x7e));
  }
  return s;
}

double random_finite(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return static_cast<double>(
          rng.uniform_int(-(std::int64_t{1} << 53), std::int64_t{1} << 53));
    case 1: return rng.uniform(-1e6, 1e6);
    case 2:
      return rng.uniform(-1.0, 1.0) *
             std::pow(10.0, static_cast<double>(rng.uniform_int(-300, 300)));
    default: {
      // Any finite bit pattern, subnormals included.
      double v = 0.0;
      do {
        const std::uint64_t bits = rng.engine()();
        std::memcpy(&v, &bits, sizeof v);
      } while (!std::isfinite(v));
      return v;
    }
  }
}

Doc random_doc(Rng& rng, int depth) {
  Doc d;
  switch (rng.uniform_int(0, depth >= 4 ? 3 : 5)) {
    case 0: break;
    case 1:
      d.kind = JsonValue::Kind::kBool;
      d.flag = rng.coin(0.5);
      break;
    case 2:
      d.kind = JsonValue::Kind::kNumber;
      d.number = random_finite(rng);
      break;
    case 3:
      d.kind = JsonValue::Kind::kString;
      d.text = random_string(rng);
      break;
    case 4:
      d.kind = JsonValue::Kind::kArray;
      for (std::int64_t n = rng.uniform_int(0, 4); n > 0; --n) {
        d.items.push_back(random_doc(rng, depth + 1));
      }
      break;
    default:
      d.kind = JsonValue::Kind::kObject;
      for (std::int64_t n = rng.uniform_int(0, 4); n > 0; --n) {
        d.members.emplace_back(random_string(rng) + "#" + std::to_string(n),
                               random_doc(rng, depth + 1));
      }
  }
  return d;
}

void write_doc(JsonWriter& w, const Doc& d) {
  switch (d.kind) {
    case JsonValue::Kind::kNull: w.null(); break;
    case JsonValue::Kind::kBool: w.value(d.flag); break;
    case JsonValue::Kind::kNumber: w.value(d.number); break;
    case JsonValue::Kind::kString: w.value(d.text); break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const Doc& item : d.items) write_doc(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : d.members) {
        w.key(key);
        write_doc(w, member);
      }
      w.end_object();
      break;
  }
}

void expect_same(const Doc& d, const JsonValue& v) {
  ASSERT_EQ(v.kind(), d.kind);
  switch (d.kind) {
    case JsonValue::Kind::kNull: break;
    case JsonValue::Kind::kBool: EXPECT_EQ(v.as_bool(), d.flag); break;
    case JsonValue::Kind::kNumber: EXPECT_EQ(v.as_number(), d.number); break;
    case JsonValue::Kind::kString: EXPECT_EQ(v.as_string(), d.text); break;
    case JsonValue::Kind::kArray:
      ASSERT_EQ(v.as_array().size(), d.items.size());
      for (std::size_t i = 0; i < d.items.size(); ++i) {
        expect_same(d.items[i], v.as_array()[i]);
      }
      break;
    case JsonValue::Kind::kObject:
      ASSERT_EQ(v.keys().size(), d.members.size());
      for (const auto& [key, member] : d.members) {
        const JsonValue* got = v.find(key);
        ASSERT_NE(got, nullptr) << key;
        expect_same(member, *got);
      }
      break;
  }
}

TEST(FuzzParse, JsonWriterOutputParsesBackToTheSameValues) {
  Rng rng(0x150);
  for (int trial = 0; trial < 2'000; ++trial) {
    const Doc doc = random_doc(rng, 0);
    JsonWriter w;
    write_doc(w, doc);
    try {
      expect_same(doc, JsonValue::parse(w.str()));
    } catch (const std::exception& e) {
      ADD_FAILURE() << "writer output does not parse: " << e.what() << "\n"
                    << w.str();
    }
    if (HasFailure()) break;  // one readable counterexample, not thousands
  }
}

TEST(FuzzParse, WireHeaderDecodesOrRejectsAndReencodesItsBytes) {
  Rng rng(0x31AE);
  int decoded = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    net::ByteBuffer buf;
    if (rng.coin(0.3)) {
      buf = random_bytes(rng, 48);
    } else {
      // A valid header, with or without the timestamp trailer, then
      // truncated or with a few bits flipped.
      io::WireHeader h;
      h.flags = rng.coin(0.5) ? io::WireHeader::kFlagTxTimestamp : 0;
      h.payload_bytes = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
      h.flow = static_cast<FlowId>(rng.uniform_int(0, 1'000'000));
      h.seq = rng.engine()();
      h.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 9000));
      h.tx_timestamp_ns = rng.engine()();
      buf.resize(h.wire_size() +
                 static_cast<std::size_t>(rng.uniform_int(0, 8)));
      net::BufWriter writer(buf);
      h.encode(writer);
      if (rng.coin(0.3)) {
        buf.resize(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(buf.size()))));
      } else {
        for (std::int64_t f = rng.uniform_int(0, 3); f > 0; --f) {
          const auto at = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(buf.size()) - 1));
          buf[at] = static_cast<net::Byte>(buf[at] ^
                                           (1u << rng.uniform_int(0, 7)));
        }
      }
    }
    std::optional<io::WireHeader> header;
    ASSERT_NO_THROW(header = io::WireHeader::decode(buf));
    if (!header) continue;
    ++decoded;
    ASSERT_LE(header->wire_size(), buf.size());
    net::ByteBuffer again(header->wire_size());
    net::BufWriter writer(again);
    header->encode(writer);
    EXPECT_TRUE(std::equal(again.begin(), again.end(), buf.begin()))
        << "trial " << trial;
  }
  EXPECT_GT(decoded, 5'000) << "too few buffers decoded to test re-encoding";
}

}  // namespace
}  // namespace midrr
