#include "json/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace qre::json {

Value::Value(std::uint64_t i) {
  if (i <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    data_ = static_cast<std::int64_t>(i);
  } else {
    data_ = static_cast<double>(i);
  }
}

namespace {
[[noreturn]] void type_error(const char* want) {
  throw_error(std::string("JSON value is not of type ") + want);
}
}  // namespace

Value Value::raw(std::string compact) {
  return raw(std::make_shared<const std::string>(std::move(compact)));
}

Value Value::raw(std::shared_ptr<const std::string> compact) {
  QRE_REQUIRE(compact != nullptr, "a raw JSON leaf needs bytes");
  Value v;
  v.data_ = Raw{std::move(compact)};
  return v;
}

const std::shared_ptr<const std::string>& Value::raw_bytes() const {
  if (const Raw* r = std::get_if<Raw>(&data_)) return r->bytes;
  type_error("raw");
}

Value Value::materialize() const {
  if (const Raw* r = std::get_if<Raw>(&data_)) return parse(*r->bytes);
  return *this;
}

bool Value::operator==(const Value& other) const {
  if (is_raw() || other.is_raw()) return dump() == other.dump();
  return data_ == other.data_;
}

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  type_error("bool");
}

double Value::as_double() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&data_)) return static_cast<double>(*i);
  type_error("number");
}

std::int64_t Value::as_int() const {
  if (const std::int64_t* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const double* d = std::get_if<double>(&data_)) {
    if (std::floor(*d) == *d) return static_cast<std::int64_t>(*d);
  }
  type_error("integer");
}

std::uint64_t Value::as_uint() const {
  std::int64_t v = as_int();
  QRE_REQUIRE(v >= 0, "JSON integer is negative where a count was expected");
  return static_cast<std::uint64_t>(v);
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  type_error("string");
}

const Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  type_error("array");
}

Array& Value::as_array() {
  if (Array* a = std::get_if<Array>(&data_)) return *a;
  type_error("array");
}

const Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  type_error("object");
}

Object& Value::as_object() {
  if (Object* o = std::get_if<Object>(&data_)) return *o;
  type_error("object");
}

const Value* Value::find(std::string_view key) const {
  const Object* o = std::get_if<Object>(&data_);
  if (o == nullptr) return nullptr;
  for (const auto& [k, v] : *o) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) throw_error("JSON object is missing required key '" + std::string(key) + "'");
  return *v;
}

void Value::set(std::string_view key, Value v) {
  Object& o = as_object();
  for (auto& [k, existing] : o) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  o.emplace_back(std::string(key), std::move(v));
}

void write_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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

namespace {

// Appends the std::to_chars scientific text [first, last), "[-]d[.ddd]e±XX"
// with n significant digits and exponent X, laid out the way "%.ng" prints
// those digits: as is when X < -4 or X >= n, else in fixed notation with
// the decimal point placed by X.
void write_shortest_as_general(std::string& out, const char* first, const char* last) {
  const char* const lead = *first == '-' ? first + 1 : first;
  const char* const e = static_cast<const char*>(std::memchr(lead, 'e', last - lead));
  const char* const frac = lead + 2;  // digits after the first; [frac, e) when n > 1
  const int n = e - lead == 1 ? 1 : static_cast<int>(e - frac) + 1;
  int exponent = 0;
  for (const char* p = e + 2; p != last; ++p) exponent = exponent * 10 + (*p - '0');
  if (e[1] == '-') exponent = -exponent;
  if (exponent < -4 || exponent >= n) {
    out.append(first, last);
    return;
  }
  char buf[32];
  char* w = buf;
  if (first != lead) *w++ = '-';
  if (exponent < 0) {  // 0.000ddd
    *w++ = '0';
    *w++ = '.';
    for (int z = -1; z > exponent; --z) *w++ = '0';
    *w++ = *lead;
    if (n > 1) w = std::copy(frac, e, w);
  } else {  // ddd[.ddd]: the first exponent + 1 digits before the point
    *w++ = *lead;
    if (n > 1) {
      w = std::copy(frac, frac + exponent, w);
      if (exponent < n - 1) {
        *w++ = '.';
        w = std::copy(frac + exponent, e, w);
      }
    }
  }
  out.append(buf, w);
}

}  // namespace

// Shortest "%.*g" text that parses back to `d`, i.e. the smallest precision
// p <= 16 whose correctly rounded "%.pg" round-trips, else "%.17g".
// No p below the shortest round-trip digit count n can round-trip. When `d`
// has a fraction bit set, its rounding interval is symmetric, so the
// n-digit value nearest to `d` lies in it whenever any n-digit value does.
// That nearest value is what "%.ng" prints and what the shortest form picks
// among its candidates, both breaking a tie (2^50 + 0.25, say) to the even
// digit: the shortest scientific digits are exactly "%.ng"'s digits, and
// only their layout is left to do. A zero fraction (a power of two, or ±0)
// has an asymmetric interval, where the nearest n-digit value can miss while
// another one hits; those search "%.pg" from p = n upward.
void write_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf; estimator results never produce them
    return;
  }
  char buf[32];
  char* const end = buf + sizeof buf;
  const char* const sci = std::to_chars(buf, end, d, std::chars_format::scientific).ptr;
  constexpr std::uint64_t kFractionBits = (std::uint64_t{1} << 52) - 1;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  if ((bits & kFractionBits) != 0) {
    write_shortest_as_general(out, buf, sci);
    return;
  }
  int prec = 0;
  for (const char* p = buf; p != sci && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++prec;
  }
  for (; prec < 17; ++prec) {
    char* const last = std::to_chars(buf, end, d, std::chars_format::general, prec).ptr;
    double back = 0.0;
    if (std::from_chars(buf, last, back).ec == std::errc() && back == d) {
      out.append(buf, last);
      return;
    }
  }
  out.append(buf, std::to_chars(buf, end, d, std::chars_format::general, 17).ptr);
}

namespace {

void write_integer(std::string& out, std::int64_t i) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, i).ptr);
}

}  // namespace

// The rule of Value(std::uint64_t): exact up to INT64_MAX, a double above.
void write_count(std::string& out, std::uint64_t n) {
  if (n <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    write_integer(out, static_cast<std::int64_t>(n));
  } else {
    write_number(out, static_cast<double>(n));
  }
}

namespace {

void indent_to(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::write(std::string& out, int indent, int depth, std::vector<Splice>* splices) const {
  if (is_null()) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&data_)) {
    out += *b ? "true" : "false";
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&data_)) {
    write_integer(out, *i);
  } else if (const double* d = std::get_if<double>(&data_)) {
    write_number(out, *d);
  } else if (const std::string* s = std::get_if<std::string>(&data_)) {
    write_escaped(out, *s);
  } else if (const Array* a = std::get_if<Array>(&data_)) {
    if (a->empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < a->size(); ++i) {
      if (i != 0) out.push_back(',');
      indent_to(out, indent, depth + 1);
      (*a)[i].write(out, indent, depth + 1, splices);
    }
    indent_to(out, indent, depth);
    out.push_back(']');
  } else if (const Object* o = std::get_if<Object>(&data_)) {
    if (o->empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : *o) {
      if (!first) out.push_back(',');
      first = false;
      indent_to(out, indent, depth + 1);
      write_escaped(out, k);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      v.write(out, indent, depth + 1, splices);
    }
    indent_to(out, indent, depth);
    out.push_back('}');
  } else if (const Raw* r = std::get_if<Raw>(&data_)) {
    if (indent > 0) {
      materialize().write(out, indent, depth, nullptr);
    } else if (splices != nullptr) {
      splices->emplace_back(out.size(), r->bytes);
    } else {
      out += *r->bytes;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  write(out, 0, 0, nullptr);
  return out;
}

void Value::gather(Gathered& out) const { write(out.text, 0, 0, &out.splices); }

std::string Value::pretty() const {
  std::string out;
  write(out, 2, 0, nullptr);
  return out;
}

std::size_t Gathered::size() const {
  std::size_t n = text.size();
  for (const auto& splice : splices) n += splice.second->size();
  return n;
}

void Gathered::append_pieces(std::vector<std::string_view>& out) const {
  const std::string_view all(text);
  std::size_t from = 0;
  for (const auto& [at, bytes] : splices) {
    if (at > from) out.push_back(all.substr(from, at - from));
    if (!bytes->empty()) out.push_back(*bytes);
    from = at;
  }
  if (from < all.size()) out.push_back(all.substr(from));
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    int line = 1;
    int col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << "JSON parse error at line " << line << ", column " << col << ": " << message;
    throw_error(os.str());
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }
  char next() {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!at_end()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) fail("invalid literal");
    pos_ += lit.size();
  }

  /// `depth` counts the containers enclosing the value.
  Value parse_value(int depth) {
    skip_ws();
    if (at_end()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return Value(parse_string());
      case 't': expect_literal("true"); return Value(true);
      case 'f': expect_literal("false"); return Value(false);
      case 'n': expect_literal("null"); return Value(nullptr);
      default: return parse_number();
    }
  }

  /// Fails before recursing past kMaxNestingDepth, so no parsed tree is
  /// deeper and the recursive write, copy and destruction stay bounded.
  void check_depth(int depth) const {
    if (depth > kMaxNestingDepth) {
      fail("nesting deeper than " + std::to_string(kMaxNestingDepth) + " levels");
    }
  }

  Value parse_object(int depth) {
    check_depth(depth);
    next();  // '{'
    Object obj;
    skip_ws();
    if (peek() == '}') {
      next();
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      if (next() != ':') fail("expected ':' after object key");
      obj.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      char c = next();
      if (c == ',') continue;
      if (c == '}') break;
      fail("expected ',' or '}' in object");
    }
    return Value(std::move(obj));
  }

  Value parse_array(int depth) {
    check_depth(depth);
    next();  // '['
    Array arr;
    skip_ws();
    if (peek() == ']') {
      next();
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value(depth));
      skip_ws();
      char c = next();
      if (c == ',') continue;
      if (c == ']') break;
      fail("expected ',' or ']' in array");
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    next();  // '"'
    std::string out;
    for (;;) {
      char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        char esc = next();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("invalid \\u escape");
              }
            }
            // Encode as UTF-8 (surrogate pairs are not combined; estimator
            // inputs are ASCII identifiers and formulas).
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
            break;
          }
          default: fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      } else {
        out.push_back(c);
      }
    }
  }

  bool at_digit() const { return !at_end() && peek() >= '0' && peek() <= '9'; }

  /// Consumes one or more digits; fails naming `what` when there is none.
  void digits(const char* what) {
    if (!at_digit()) fail(std::string("expected a digit ") + what);
    while (at_digit()) ++pos_;
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  /// Integers must fit int64; anything else is a double.
  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!at_digit()) fail("invalid number");
    if (peek() == '0') {
      ++pos_;
      if (at_digit()) fail("leading zeros are not allowed in numbers");
    } else {
      while (at_digit()) ++pos_;
    }
    bool is_integer = true;
    if (peek() == '.') {
      is_integer = false;
      ++pos_;
      digits("after the decimal point");
    }
    if (peek() == 'e' || peek() == 'E') {
      is_integer = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      digits("in the exponent");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    const char* const first = token.data();
    const char* const last = first + token.size();
    // "-0" is an integer token with no int64 value of its own: read as the
    // double -0.0 it keeps its sign through dump().
    if (is_integer && token != "-0") {
      std::int64_t i = 0;
      if (std::from_chars(first, last, i).ec != std::errc()) {
        pos_ = start;
        fail("integer '" + std::string(token) + "' is outside the 64-bit signed range");
      }
      return Value(i);
    }
    double d = 0.0;
    if (std::from_chars(first, last, d).ec != std::errc()) {
      pos_ = start;
      fail("number '" + std::string(token) + "' is outside the double range");
    }
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QRE_REQUIRE(in.good(), "cannot open JSON file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

}  // namespace qre::json
