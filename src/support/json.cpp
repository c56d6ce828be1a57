#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/error.h"

namespace pbmg {

namespace {

[[noreturn]] void type_error(const char* expected) {
  throw ConfigError(std::string("JSON value is not ") + expected);
}

/// Recursive-descent JSON parser with line/column diagnostics.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  Json parse_value() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // Each level recurses, so a cap keeps a deeply nested document
        // from overflowing the stack; configs nest four levels.
        if (++depth_ > kMaxDepth) {
          fail("nested deeper than " + std::to_string(kMaxDepth));
        }
        Json v = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Json(parse_string());
      case 't':
        expect_literal("true");
        return Json(true);
      case 'f':
        expect_literal("false");
        return Json(false);
      case 'n':
        expect_literal("null");
        return Json(nullptr);
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    consume('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected string key in object");
      std::string key = parse_string();
      skip_ws();
      consume(':');
      skip_ws();
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    consume('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = parse_hex4();
            append_utf8(out, code);
            break;
          }
          default:
            fail("invalid escape character");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool is_integer = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_integer = false;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");
    try {
      if (is_integer) {
        return Json(static_cast<std::int64_t>(std::stoll(token)));
      }
      return Json(std::stod(token));
    } catch (const std::exception&) {
      // Integer overflow (e.g. > 2^63): fall back to double.
      try {
        return Json(std::stod(token));
      } catch (const std::exception&) {
        fail("unparseable number '" + token + "'");
      }
    }
  }

  void expect_literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        fail(std::string("expected literal '") + lit + "'");
      }
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void consume(char expected) {
    if (pos_ >= text_.size() || text_[pos_] != expected) {
      fail(std::string("expected '") + expected + "'");
    }
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream oss;
    oss << "JSON parse error at line " << line << ", column " << col << ": "
        << message;
    throw ConfigError(oss.str());
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_double(std::string& out, double d) {
  if (std::isfinite(d)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  } else {
    // JSON has no infinity/NaN; persist as null (configs validate on load).
    out += "null";
  }
}

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(value_);
}

double Json::as_double() const {
  if (std::holds_alternative<double>(value_)) return std::get<double>(value_);
  if (std::holds_alternative<std::int64_t>(value_)) {
    return static_cast<double>(std::get<std::int64_t>(value_));
  }
  type_error("a number");
}

std::int64_t Json::as_int() const {
  if (std::holds_alternative<std::int64_t>(value_)) {
    return std::get<std::int64_t>(value_);
  }
  if (std::holds_alternative<double>(value_)) {
    // Casting a double outside the int64 range is undefined, so only
    // [−2⁶³, 2⁶³) reaches the cast.
    const double d = std::get<double>(value_);
    if (d >= -0x1p63 && d < 0x1p63) {
      const auto i = static_cast<std::int64_t>(d);
      if (static_cast<double>(i) == d) return i;
    }
  }
  type_error("an integer");
}

int Json::as_int32() const {
  const std::int64_t i = as_int();
  if (i < std::numeric_limits<int>::min() ||
      i > std::numeric_limits<int>::max()) {
    throw ConfigError("JSON integer " + std::to_string(i) +
                      " does not fit an int");
  }
  return static_cast<int>(i);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

const Json& Json::at(const std::string& key) const {
  const Object& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) {
    throw ConfigError("missing required JSON field '" + key + "'");
  }
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

double Json::get(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}

std::int64_t Json::get(const std::string& key, std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

int Json::get(const std::string& key, int fallback) const {
  return contains(key) ? at(key).as_int32() : fallback;
}

std::string Json::get(const std::string& key,
                      const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::get(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

Json& Json::set(const std::string& key, Json value) {
  as_object()[key] = std::move(value);
  return *this;
}

Json& Json::push_back(Json value) {
  as_array().push_back(std::move(value));
  return *this;
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const auto pad = [&](int d) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (std::holds_alternative<std::int64_t>(value_)) {
    out += std::to_string(std::get<std::int64_t>(value_));
  } else if (std::holds_alternative<double>(value_)) {
    dump_double(out, std::get<double>(value_));
  } else if (is_string()) {
    dump_string(out, as_string());
  } else if (is_array()) {
    const Array& arr = as_array();
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) out.push_back(',');
      pad(depth + 1);
      arr[i].dump_impl(out, indent, depth + 1);
    }
    if (!arr.empty()) pad(depth);
    out.push_back(']');
  } else {
    const Object& obj = as_object();
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out.push_back(',');
      first = false;
      pad(depth + 1);
      dump_string(out, key);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      value.dump_impl(out, indent, depth + 1);
    }
    if (!obj.empty()) pad(depth);
    out.push_back('}');
  }
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open file for reading: " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw ConfigError("cannot open file for writing: " + path);
  out << content;
  if (!out) throw ConfigError("failed while writing file: " + path);
}

}  // namespace pbmg
