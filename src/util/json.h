// Minimal JSON value model, parser, and writer.
//
// The scenario subsystem (systems/scenario.h) and the regression harness
// (tools/regress.cpp) exchange declarative problem descriptions and
// machine-readable benchmark results as JSON. The container ships no JSON
// dependency, so this is a small self-contained implementation covering the
// full JSON grammar (RFC 8259): objects, arrays, strings with escapes,
// doubles, booleans, null. Parsing errors throw JsonError with a 1-based
// line:column position; numbers are always stored as double (adequate for
// every quantity this library serializes).
//
// Object member order is preserved (vector of pairs, not a map), so a
// parse -> write round trip is stable and diffs of regenerated scenario
// files stay readable.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rlplan::util {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}              // NOLINT
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}        // NOLINT
  JsonValue(int i) : type_(Type::kNumber), number_(i) {}           // NOLINT
  JsonValue(long i)                                                // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(std::size_t i)                                         // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}   // NOLINT
  JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}  // NOLINT
  JsonValue(Object o) : type_(Type::kObject), object_(std::move(o)) {}  // NOLINT

  static JsonValue make_object() { return JsonValue(Object{}); }
  static JsonValue make_array() { return JsonValue(Array{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError naming the expected type on mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  // --- Object helpers -------------------------------------------------------

  /// Pointer to the member value, or nullptr when absent (object only).
  const JsonValue* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Member value; throws JsonError when absent or not an object.
  const JsonValue& at(const std::string& key) const;

  /// Inserts or replaces a member (turns a null value into an object).
  JsonValue& set(const std::string& key, JsonValue value);

  /// Appends to an array (turns a null value into an array).
  JsonValue& push_back(JsonValue value);

  /// Convenience typed lookups with defaults (object only).
  double number_or(const std::string& key, double fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

  bool operator==(const JsonValue& o) const;

  /// Serialize. `indent` > 0 pretty-prints with that many spaces per level;
  /// 0 emits the compact single-line form. Numbers use shortest round-trip
  /// formatting; integral values print without a decimal point.
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses a complete JSON document (trailing non-whitespace is an error).
/// Throws JsonError with "line L, column C" context on malformed input.
JsonValue parse_json(const std::string& text);

/// Reads and parses a file; throws JsonError (prefixed with the path) on
/// missing/unreadable files and parse errors.
JsonValue parse_json_file(const std::string& path);

/// Writes `value.dump(indent)` plus a trailing newline; throws JsonError on
/// I/O failure.
void write_json_file(const std::string& path, const JsonValue& value,
                     int indent = 2);

}  // namespace rlplan::util
