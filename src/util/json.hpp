// The one JSON module: JsonWriter writes every report, route, trace and
// plan; JsonValue reads fault plans.
//
// JsonWriter has one layout and no settings: compact, except that each
// object that is an array element starts on its own line (one trace event,
// flight event or SLO per line).  It places commas, escapes strings, and
// prints integers exactly and doubles in the shortest form that parses back
// to the same value: integral doubles below 2^53 as integers, others via
// std::to_chars, non-finite ones (which JSON cannot express) as null.
//
// JsonValue is the smallest conforming reader the plans need: objects,
// arrays, strings (with escapes), numbers, booleans, null, parsed into an
// immutable tree.  There is no streaming and no attempt to preserve key
// order or number formatting -- plan files are small and parsed once at
// startup.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace midrr {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open(false); }
  JsonWriter& end_object() { return close(false); }
  JsonWriter& begin_array() { return open(true); }
  JsonWriter& end_array() { return close(true); }

  /// Names the next member of the enclosing object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return literal(b ? "true" : "false"); }
  JsonWriter& value(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    return literal({buf, std::to_chars(buf, std::end(buf), v).ptr});
  }
  JsonWriter& null() { return literal("null"); }

  /// key(name).value(v).
  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// The document so far (complete once every container is closed).
  const std::string& str() const { return out_; }

 private:
  struct Level {
    bool array = false;
    bool empty = true;
    bool has_object = false;  ///< array holding an object: closes on a new line
  };

  JsonWriter& open(bool array);
  JsonWriter& close(bool array);
  /// Separator and layout before a value; `object` for begin_object().
  void before_value(bool object);
  /// The comma between two members or elements of the innermost container.
  void separate();
  JsonWriter& literal(std::string_view token);
  void quoted(std::string_view s);

  std::string out_;
  std::vector<Level> open_;
  bool keyed_ = false;  ///< a key was written and awaits its value
};

/// Thrown on malformed input; carries a byte offset for error messages.
struct JsonError : std::runtime_error {
  JsonError(const std::string& what, std::size_t at)
      : std::runtime_error(what + " (at byte " + std::to_string(at) + ")") {}
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document; trailing non-whitespace is an error.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; throw JsonError-free std::runtime_error on kind
  /// mismatch (schema errors, reported with the offending key by callers).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object lookup; nullptr when the key is absent (callers decide whether
  /// that is an error or a default).
  const JsonValue* find(const std::string& key) const;

  /// Keys present in an object (schema validation: reject unknown keys so
  /// a typo'd "duraton_ms" fails loudly instead of silently defaulting).
  std::vector<std::string> keys() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

}  // namespace midrr
