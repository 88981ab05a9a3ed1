// Structured validation diagnostics (API v2).
//
// The estimator's service surface reports input problems as a list of
// {severity, code, path, message} records instead of a single thrown string:
// a strict validation pass collects *all* problems of a job document —
// including unknown-key warnings, the silent-typo class of bugs — and
// returns them together, each anchored to the offending field by a JSON
// pointer (RFC 6901) such as "/qubitParams/tGateErrorRate".
//
// Codes are stable kebab-case identifiers meant for programmatic handling:
//
//   required-missing     a mandatory field is absent
//   type-mismatch        a field has the wrong JSON type
//   value-range          a value is outside its legal range
//   unknown-key          an object carries a key the schema does not define
//   unknown-name         a name does not resolve against the registry
//   invalid-value        an enumerated field has an unknown value
//   invalid-formula      a formula string does not parse
//   mutually-exclusive   two fields cannot be combined
//   unsupported-version  the document's schemaVersion is not handled
//   invalid-sweep        a sweep grid does not expand
//   invalid-item         a batch item failed validation
//   estimation-failed    a structurally valid input was infeasible at runtime
//   cancelled            the run was abandoned on a cancellation request
//   deadline-exceeded    the run was abandoned because its deadline elapsed
//
// This lives in common/ (not api/) so the per-module section parsers can
// feed the same channel without depending on the API layer. Each section of
// a job (logicalCounts, qubitParams, ...) has exactly one parser, a static
// `parse(value, path, ..., Diagnostics&)` in its own module built from the
// typed-field helpers below: it records every problem on the diagnostics
// under the section's base path `path`, and returns the value only when the
// section has no error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "formula/formula.hpp"
#include "json/json.hpp"

namespace qre {

enum class Severity { kWarning, kError };

std::string_view to_string(Severity s);

/// One validation finding, anchored by a JSON pointer into the document.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;     // stable identifier, see the table above
  std::string path;     // JSON pointer ("" addresses the whole document)
  std::string message;  // human-readable explanation

  json::Value to_json() const;
};

/// An ordered collection of diagnostics: the result of a validation pass.
class Diagnostics {
 public:
  void error(std::string code, std::string path, std::string message);
  void warning(std::string code, std::string path, std::string message);
  void add(Diagnostic d);
  void append(const Diagnostics& other);

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  bool has_errors() const;
  std::size_t num_errors() const;
  const std::vector<Diagnostic>& entries() const { return entries_; }

  /// Serializes as a JSON array of diagnostic objects.
  json::Value to_json() const;

  /// One-line rendition ("path: message; path: message; ...") of the
  /// error-severity entries, used for ValidationError::what().
  std::string summary() const;

 private:
  std::vector<Diagnostic> entries_;
};

/// Thrown when a document fails validation; carries the full diagnostic
/// list so callers can render structured output instead of a flat string.
class ValidationError : public Error {
 public:
  explicit ValidationError(Diagnostics diagnostics);

  const Diagnostics& diagnostics() const { return diagnostics_; }

 private:
  Diagnostics diagnostics_;
};

/// Appends an escaped JSON-pointer token to `base` (RFC 6901: "~" -> "~0",
/// "/" -> "~1").
std::string pointer_join(std::string_view base, std::string_view token);
std::string pointer_join(std::string_view base, std::size_t index);

/// Scans object `v` for keys outside `allowed`; each becomes an
/// "unknown-key" warning. Non-objects pass through silently (their type is
/// someone else's check).
void check_known_keys(const json::Value& v, const std::vector<std::string_view>& allowed,
                      std::string_view base_path, Diagnostics& diags);

/// The JSON type a field must have.
enum class FieldKind { kNumber, kUint, kString, kObject, kArray };

/// Looks up `key` in `obj` and type-checks it. Present-but-wrong-type yields
/// a "type-mismatch" diagnostic, absent-but-required a "required-missing"
/// one; both return nullptr so parsers can keep checking other fields.
const json::Value* expect(const json::Value& obj, std::string_view key, FieldKind kind,
                          std::string_view base, Diagnostics& diags, bool required = false);

/// expect(kUint) read as a count: a "value-range" diagnostic, and nullopt,
/// when the integer does not fit a signed 64-bit count.
std::optional<std::uint64_t> expect_count(const json::Value& obj, std::string_view key,
                                          std::string_view base, Diagnostics& diags,
                                          bool required = false);

/// Range checks on a number field `v` (found under `key`); false, with a
/// "value-range" diagnostic, when it is out of range.
bool check_positive_number(const json::Value& v, std::string_view key, std::string_view base,
                           Diagnostics& diags);
bool check_probability(const json::Value& v, std::string_view key, std::string_view base,
                       Diagnostics& diags);

/// Parses a formula string field; nullopt, with an "invalid-formula"
/// diagnostic, when it does not parse.
std::optional<Formula> check_formula(const json::Value& v, std::string_view key,
                                     std::string_view base, Diagnostics& diags);

/// Ends a parse for a direct C++ caller (the from_json entry points and
/// api::input_from_document): with a `sink`, warnings are appended to it;
/// without one, every finding counts as an error (unknown keys are rejected).
/// Throws ValidationError when an error remains.
void settle(Diagnostics found, Diagnostics* sink);

/// Runs `parse(Diagnostics&) -> std::optional<T>` and settles its findings.
template <typename Parse>
auto parse_or_throw(Diagnostics* sink, Parse&& parse) {
  Diagnostics found;
  auto value = parse(found);
  settle(std::move(found), sink);
  QRE_REQUIRE(value.has_value(), "the document has no value of its own to parse");
  return std::move(*value);
}

}  // namespace qre
