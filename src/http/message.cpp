#include "http/message.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace midrr::http {

namespace {

bool iequals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<HeaderList> parse_headers(std::istringstream& in) {
  HeaderList headers;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) return headers;  // end of head
    const auto colon = line.find(':');
    if (colon == std::string::npos) return std::nullopt;
    headers.emplace_back(trim(line.substr(0, colon)),
                         trim(line.substr(colon + 1)));
  }
  return headers;  // headers without trailing blank line: accept
}

std::optional<std::string> find_header(const HeaderList& headers,
                                       const std::string& name) {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return v;
  }
  return std::nullopt;
}

void upsert_header(HeaderList& headers, const std::string& name,
                   const std::string& value) {
  for (auto& [k, v] : headers) {
    if (iequals(k, name)) {
      v = value;
      return;
    }
  }
  headers.emplace_back(name, value);
}

}  // namespace

std::optional<ByteRange> ByteRange::parse_range_header(
    const std::string& value) {
  // Only the closed single-range form "bytes=a-b" is supported (that is
  // all the proxy emits).
  const std::string prefix = "bytes=";
  if (value.rfind(prefix, 0) != 0) return std::nullopt;
  const auto dash = value.find('-', prefix.size());
  if (dash == std::string::npos) return std::nullopt;
  const auto first = parse_u64(value.substr(prefix.size(), dash - prefix.size()));
  const auto last = parse_u64(value.substr(dash + 1));
  if (!first || !last || *last < *first) return std::nullopt;
  return ByteRange{*first, *last};
}

std::string ByteRange::to_range_header() const {
  return "bytes=" + std::to_string(first) + "-" + std::to_string(last);
}

std::optional<std::pair<ByteRange, std::uint64_t>>
ByteRange::parse_content_range(const std::string& value) {
  const std::string prefix = "bytes ";
  if (value.rfind(prefix, 0) != 0) return std::nullopt;
  const auto dash = value.find('-', prefix.size());
  const auto slash = value.find('/', prefix.size());
  if (dash == std::string::npos || slash == std::string::npos || slash < dash) {
    return std::nullopt;
  }
  const auto first = parse_u64(value.substr(prefix.size(), dash - prefix.size()));
  const auto last = parse_u64(value.substr(dash + 1, slash - dash - 1));
  const auto total = parse_u64(value.substr(slash + 1));
  if (!first || !last || !total || *last < *first) return std::nullopt;
  return std::make_pair(ByteRange{*first, *last}, *total);
}

std::string ByteRange::to_content_range(std::uint64_t total) const {
  return "bytes " + std::to_string(first) + "-" + std::to_string(last) + "/" +
         std::to_string(total);
}

void HttpRequest::set_header(const std::string& name,
                             const std::string& value) {
  upsert_header(headers, name, value);
}

std::optional<std::string> HttpRequest::header(const std::string& name) const {
  return find_header(headers, name);
}

std::optional<ByteRange> HttpRequest::range() const {
  const auto value = header("Range");
  if (!value) return std::nullopt;
  return ByteRange::parse_range_header(*value);
}

std::optional<std::string_view> HttpRequest::query(
    std::string_view name) const {
  const std::size_t question = target.find('?');
  std::string_view rest = question == std::string::npos
                              ? std::string_view{}
                              : std::string_view(target).substr(question + 1);
  while (!rest.empty()) {
    const std::string_view param = rest.substr(0, rest.find('&'));
    rest.remove_prefix(std::min(rest.size(), param.size() + 1));
    const std::size_t eq = param.find('=');
    if (eq != std::string_view::npos && param.substr(0, eq) == name) {
      return param.substr(eq + 1);
    }
  }
  return std::nullopt;
}

std::string HttpRequest::serialize() const {
  std::ostringstream out;
  out << method << ' ' << target << ' ' << version << "\r\n";
  for (const auto& [k, v] : headers) out << k << ": " << v << "\r\n";
  out << "\r\n";
  return out.str();
}

std::optional<HttpRequest> HttpRequest::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::istringstream req_line(line);
  HttpRequest req;
  if (!(req_line >> req.method >> req.target >> req.version)) {
    return std::nullopt;
  }
  const auto headers = parse_headers(in);
  if (!headers) return std::nullopt;
  req.headers = *headers;
  return req;
}

void HttpResponse::set_header(const std::string& name,
                              const std::string& value) {
  upsert_header(headers, name, value);
}

std::optional<std::string> HttpResponse::header(
    const std::string& name) const {
  return find_header(headers, name);
}

std::optional<std::uint64_t> HttpResponse::content_length() const {
  const auto value = header("Content-Length");
  if (!value) return std::nullopt;
  return parse_u64(*value);
}

std::optional<std::pair<ByteRange, std::uint64_t>>
HttpResponse::content_range() const {
  const auto value = header("Content-Range");
  if (!value) return std::nullopt;
  return ByteRange::parse_content_range(*value);
}

std::string HttpResponse::serialize_head() const {
  std::ostringstream out;
  out << version << ' ' << status << ' ' << reason << "\r\n";
  for (const auto& [k, v] : headers) out << k << ": " << v << "\r\n";
  out << "\r\n";
  return out.str();
}

std::optional<HttpResponse> HttpResponse::parse_head(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::istringstream status_line(line);
  HttpResponse res;
  if (!(status_line >> res.version >> res.status)) return std::nullopt;
  std::getline(status_line, res.reason);
  res.reason = trim(res.reason);
  const auto headers = parse_headers(in);
  if (!headers) return std::nullopt;
  res.headers = *headers;
  return res;
}

HttpResponse HttpResponse::partial(ByteRange range, std::uint64_t total) {
  HttpResponse res;
  res.status = 206;
  res.reason = "Partial Content";
  res.set_header("Content-Range", range.to_content_range(total));
  res.set_header("Content-Length", std::to_string(range.length()));
  return res;
}

}  // namespace midrr::http
