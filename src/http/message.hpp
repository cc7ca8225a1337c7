// Minimal HTTP/1.1 message model: what the paper's 512-line Python proxy
// needs -- requests with Range headers (RFC 7233 byte ranges), responses
// with Content-Range, and pipelining-friendly serialization.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace midrr::http {

/// A closed byte interval [first, last], as in "Range: bytes=first-last".
struct ByteRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;

  std::uint64_t length() const { return last - first + 1; }
  friend bool operator==(const ByteRange&, const ByteRange&) = default;

  /// "bytes=100-199" -> {100, 199}; nullopt on malformed/open ranges.
  static std::optional<ByteRange> parse_range_header(const std::string& value);
  /// {100,199} -> "bytes=100-199".
  std::string to_range_header() const;

  /// "bytes 100-199/5000" -> ({100,199}, 5000).
  static std::optional<std::pair<ByteRange, std::uint64_t>>
  parse_content_range(const std::string& value);
  /// ({100,199}, 5000) -> "bytes 100-199/5000".
  std::string to_content_range(std::uint64_t total) const;
};

using HeaderList = std::vector<std::pair<std::string, std::string>>;

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  HeaderList headers;

  void set_header(const std::string& name, const std::string& value);
  std::optional<std::string> header(const std::string& name) const;
  std::optional<ByteRange> range() const;
  /// Value of the query parameter named exactly `name` in `target`
  /// ("/adapt?a=1&name=v" -> "v"); nullopt when no parameter has that name.
  std::optional<std::string_view> query(std::string_view name) const;

  /// Serializes to wire text (no body; GETs only).
  std::string serialize() const;
  /// Parses a full request head; nullopt on malformed input.
  static std::optional<HttpRequest> parse(const std::string& text);
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  HeaderList headers;

  void set_header(const std::string& name, const std::string& value);
  std::optional<std::string> header(const std::string& name) const;
  std::optional<std::uint64_t> content_length() const;
  std::optional<std::pair<ByteRange, std::uint64_t>> content_range() const;

  std::string serialize_head() const;
  static std::optional<HttpResponse> parse_head(const std::string& text);

  /// A 206 Partial Content response head for one chunk.
  static HttpResponse partial(ByteRange range, std::uint64_t total);
};

}  // namespace midrr::http
