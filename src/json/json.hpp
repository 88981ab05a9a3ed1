// Minimal JSON value / parser / writer.
//
// The estimator's external interface mirrors the Azure Quantum Resource
// Estimator job schema: job parameters (qubit model, QEC scheme, error
// budget, constraints, distillation units) arrive as JSON, and results are
// emitted as JSON grouped exactly like the tool's output (Section IV-D of
// the paper). This module implements the small JSON subset needed for that,
// with insertion-ordered objects so emitted reports are stable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace qre::json {

class Value;
struct Gathered;
/// A raw leaf's place in a Gathered document: the offset in its text where
/// the leaf's shared bytes go, and the bytes.
using Splice = std::pair<std::size_t, std::shared_ptr<const std::string>>;

using Array = std::vector<Value>;
/// Insertion-ordered object representation.
using Object = std::vector<std::pair<std::string, Value>>;

/// A JSON document node. Numbers are stored as double plus an exact-integer
/// flag so counts such as physical qubit numbers round-trip without a
/// trailing ".0".
///
/// Besides the JSON kinds a node can be a raw leaf: an already serialized
/// compact document held as shared, immutable bytes (see raw()). Estimate
/// results travel in this form from the worker that computed them through
/// the cache, the store and the writers, so copying one is a reference
/// count, dumping one appends its bytes and gather() splices them. To a
/// reader a raw leaf is opaque, like any non-object: is_object() is false
/// and find() returns nullptr. Readers that need fields call materialize(),
/// which parses.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(unsigned int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(std::uint64_t i);
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  /// A raw leaf holding `compact`, which must be the dump() of a document.
  static Value raw(std::string compact);
  /// A raw leaf sharing `compact` (non-null), e.g. bytes held by a store.
  static Value raw(std::shared_ptr<const std::string> compact);

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const {
    return std::holds_alternative<double>(data_) || std::holds_alternative<std::int64_t>(data_);
  }
  /// A number held as an exact int64 (integer literals that fit one).
  bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }
  bool is_raw() const { return std::holds_alternative<Raw>(data_); }

  /// The shared bytes of a raw leaf; throws qre::Error on any other node.
  const std::shared_ptr<const std::string>& raw_bytes() const;
  /// The document a raw leaf holds, parsed into a tree; any other node is
  /// returned as it is.
  Value materialize() const;

  /// Typed accessors; each throws qre::Error on a type mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object field lookup; returns nullptr when absent (or when not an object).
  const Value* find(std::string_view key) const;
  /// Object field lookup; throws qre::Error naming the key when absent.
  const Value& at(std::string_view key) const;
  /// Inserts or replaces an object field (value must be an object).
  void set(std::string_view key, Value v);

  /// Serializes compactly (no whitespace); raw leaves are appended as they are.
  std::string dump() const;
  /// Appends dump()'s bytes to `out` in gathered form: the text goes to
  /// out.text, and each raw leaf becomes a splice of its shared bytes
  /// instead of a copy.
  void gather(Gathered& out) const;
  /// Serializes with 2-space indentation; raw leaves are parsed to re-indent.
  std::string pretty() const;

  /// Structural equality. A raw leaf equals any node with the same dump().
  bool operator==(const Value& other) const;

 private:
  struct Raw {
    std::shared_ptr<const std::string> bytes;
    bool operator==(const Raw& other) const { return *bytes == *other.bytes; }
  };

  /// The one writer behind dump(), pretty() and gather(). With `splices`
  /// (compact only) raw leaves are recorded there instead of appended.
  void write(std::string& out, int indent, int depth, std::vector<Splice>* splices) const;

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string, Array, Object, Raw>
      data_;
};

/// A compact document kept in pieces: `text` holds what dump() writes
/// except the raw leaves, and each splice records a leaf's shared bytes and
/// the offset in `text` where dump() would have appended them. Its pieces,
/// in order, concatenate to dump()'s bytes without copying any leaf; the
/// server hands them to the socket as they are (server/http.hpp).
struct Gathered {
  Gathered() = default;
  /// Plain text: one piece, no splices.
  Gathered(std::string plain) : text(std::move(plain)) {}

  std::string text;
  std::vector<Splice> splices;  // offsets non-decreasing

  /// Total bytes over every piece.
  std::size_t size() const;
  /// Appends the pieces to `out` in order, skipping empty ones. The views
  /// point into this object and its leaves.
  void append_pieces(std::vector<std::string_view>& out) const;
};

/// The writers dump() uses, for code that appends a document straight into a
/// string without building a tree (report_bytes in report/report.hpp).
/// Appends `s` as a quoted JSON string with the escapes dump() emits.
void write_escaped(std::string& out, std::string_view s);
/// Appends the shortest text that reads back as `d`; non-finite is `null`.
void write_number(std::string& out, double d);
/// Appends `n` as Value(n) dumps it: exact up to INT64_MAX, a double above.
void write_count(std::string& out, std::uint64_t n);

/// Appends one JSON object to a string, member by member. Keys are fixed
/// identifiers that need no escaping; values go through the writers above,
/// so the bytes match the tree's.
class ObjectWriter {
 public:
  explicit ObjectWriter(std::string& out) : out_(out) { out_.push_back('{'); }

  /// Appends the separator and `"k":`; returns the string for the value.
  std::string& key(std::string_view k) {
    if (!first_) out_.push_back(',');
    first_ = false;
    out_.push_back('"');
    out_.append(k);
    out_ += "\":";
    return out_;
  }
  void count(std::string_view k, std::uint64_t v) { write_count(key(k), v); }
  void number(std::string_view k, double v) { write_number(key(k), v); }
  void string(std::string_view k, std::string_view v) { write_escaped(key(k), v); }
  void close() { out_.push_back('}'); }

 private:
  std::string& out_;
  bool first_ = true;
};

/// Deepest container nesting parse() accepts. Far above any job document;
/// it keeps the recursive parser, writer and destructor off the stack limit.
inline constexpr int kMaxNestingDepth = 512;

/// Parses a complete JSON document (exactly the RFC 8259 grammar; integers
/// must fit int64, and "-0" reads as the double -0.0); throws qre::Error
/// with line/column info.
Value parse(std::string_view text);

/// Reads and parses a JSON file; throws qre::Error on I/O or parse failure.
Value parse_file(const std::string& path);

}  // namespace qre::json
