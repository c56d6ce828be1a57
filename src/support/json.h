#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

/// \file json.h
/// Minimal JSON document model, parser, and writer.
///
/// PetaBricks persists tuned choices in a configuration file that later runs
/// load (paper §3.2.1).  We reproduce that workflow with JSON configs; this
/// module is the self-contained substrate (no external dependency).  It
/// supports the full JSON grammar except for `\u` surrogate pairs outside
/// the BMP, which configs never use.

namespace pbmg {

/// A JSON value: null, bool, number (double or int64), string, array, or
/// object.  Objects preserve key order via std::map (sorted) which is
/// sufficient and deterministic for config files.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Constructs null.
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i) : value_(i) {}
  Json(std::size_t i) : value_(static_cast<std::int64_t>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::int64_t>(value_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Accessors throw pbmg::ConfigError when the type does not match; this
  /// turns malformed config files into clear diagnostics rather than UB.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  /// as_int() narrowed to int: the one reader of int fields, which throws
  /// ConfigError outside int's range instead of wrapping.
  int as_int32() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object field lookup.  `at` throws ConfigError when missing; `get`
  /// returns the fallback.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  double get(const std::string& key, double fallback) const;
  std::int64_t get(const std::string& key, std::int64_t fallback) const;
  int get(const std::string& key, int fallback) const;  ///< via as_int32
  std::string get(const std::string& key, const std::string& fallback) const;
  bool get(const std::string& key, bool fallback) const;

  /// Inserts or replaces an object field.  Requires is_object().
  Json& set(const std::string& key, Json value);

  /// Appends to an array.  Requires is_array().
  Json& push_back(Json value);

  /// Serializes to a compact string (indent == 0) or pretty-printed with the
  /// given indentation width.
  std::string dump(int indent = 0) const;

  /// Parses a JSON document.  Throws pbmg::ConfigError with a line/column
  /// diagnostic on malformed input.
  static Json parse(const std::string& text);

  /// Convenience: empty object / empty array factories.
  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  void dump_impl(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string, Array,
               Object>
      value_;
};

/// Reads a whole file into a string.  Throws ConfigError if unreadable.
std::string read_text_file(const std::string& path);

/// Writes a string to a file (overwrites).  Throws ConfigError on failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace pbmg
