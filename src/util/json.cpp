#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/assert.hpp"

namespace midrr {

// --- Writer -----------------------------------------------------------------

void JsonWriter::before_value(bool object) {
  if (open_.empty()) return;
  if (!open_.back().array) {
    MIDRR_ASSERT(keyed_, "JSON object member written without a key");
    keyed_ = false;
    return;
  }
  separate();
  if (object) {
    out_ += '\n';
    open_.back().has_object = true;
  }
}

void JsonWriter::separate() {
  if (!open_.back().empty) out_ += ',';
  open_.back().empty = false;
}

JsonWriter& JsonWriter::open(bool array) {
  before_value(!array);
  out_ += array ? '[' : '{';
  open_.push_back(Level{array});
  return *this;
}

JsonWriter& JsonWriter::close(bool array) {
  MIDRR_ASSERT(!open_.empty() && open_.back().array == array && !keyed_,
               "JSON container closed without a matching open");
  if (open_.back().has_object) out_ += '\n';
  open_.pop_back();
  out_ += array ? ']' : '}';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  MIDRR_ASSERT(!open_.empty() && !open_.back().array && !keyed_,
               "JSON key outside an object");
  separate();
  quoted(name);
  out_ += ':';
  keyed_ = true;
  return *this;
}

JsonWriter& JsonWriter::literal(std::string_view token) {
  before_value(false);
  out_ += token;
  return *this;
}

void JsonWriter::quoted(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (const auto u = static_cast<unsigned char>(c); u < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out_ += "\\u00";
          out_ += kHex[u >> 4];
          out_ += kHex[u & 0xf];
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value(false);
  quoted(s);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  // Integral values print without an exponent ("at_ms":100000, not 1e+05);
  // below 2^53 every one of them converts to int64 exactly.
  if (v == std::trunc(v) && std::fabs(v) < 0x1p53) {
    return value(static_cast<std::int64_t>(v));
  }
  char buf[32];
  return literal({buf, std::to_chars(buf, std::end(buf), v).ptr});
}

// --- Reader -----------------------------------------------------------------

namespace {

bool is_json_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = value();
    skip_space();
    if (pos_ != text_.size()) {
      throw JsonError("trailing characters after JSON document", pos_);
    }
    return v;
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() && is_json_space(text_[pos_])) ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) throw JsonError("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw JsonError(std::string("expected '") + c + "'", pos_);
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue value() {
    skip_space();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Recursion depth is the parser's one unbounded resource; no
        // document this parser serves nests more than a few levels.
        if (++depth_ > kMaxDepth) throw JsonError("nesting too deep", pos_);
        JsonValue v = c == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          JsonValue v;
          v.kind_ = JsonValue::Kind::kBool;
          v.bool_ = true;
          return v;
        }
        throw JsonError("bad literal", pos_);
      case 'f':
        if (consume_literal("false")) {
          JsonValue v;
          v.kind_ = JsonValue::Kind::kBool;
          v.bool_ = false;
          return v;
        }
        throw JsonError("bad literal", pos_);
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        throw JsonError("bad literal", pos_);
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_space();
      const std::string key = string();
      skip_space();
      expect(':');
      if (!v.object_.emplace(key, value()).second) {
        throw JsonError("duplicate key \"" + key + "\"", pos_);
      }
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(value());
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        throw JsonError("unterminated string", pos_);
      }
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        throw JsonError("raw control character in string", pos_ - 1);
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) throw JsonError("dangling escape", pos_);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // Plans are ASCII in practice; decode BMP code points to UTF-8 and
          // reject surrogate pairs (nothing a fault plan needs).
          if (pos_ + 4 > text_.size()) throw JsonError("bad \\u escape", pos_);
          unsigned int cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else throw JsonError("bad \\u escape", pos_ - 1);
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            throw JsonError("surrogate pairs unsupported", pos_);
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: throw JsonError("unknown escape", pos_ - 1);
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") throw JsonError("bad number", start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(parsed)) {
      throw JsonError("bad number \"" + token + "\"", start);
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = parsed;
    return v;
  }

  static constexpr std::size_t kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).run();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) {
    throw std::runtime_error("JSON value is not a number");
  }
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) {
    throw std::runtime_error("JSON value is not a string");
  }
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) {
    throw std::runtime_error("JSON value is not an array");
  }
  return array_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    throw std::runtime_error("JSON value is not an object");
  }
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::vector<std::string> JsonValue::keys() const {
  if (kind_ != Kind::kObject) {
    throw std::runtime_error("JSON value is not an object");
  }
  std::vector<std::string> out;
  out.reserve(object_.size());
  for (const auto& [k, v] : object_) out.push_back(k);
  return out;
}

}  // namespace midrr
