#include "common/diagnostics.hpp"

#include <algorithm>
#include <cmath>

namespace qre {

std::string_view to_string(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

json::Value Diagnostic::to_json() const {
  json::Object o;
  o.emplace_back("severity", std::string(to_string(severity)));
  o.emplace_back("code", code);
  o.emplace_back("path", path);
  o.emplace_back("message", message);
  return json::Value(std::move(o));
}

void Diagnostics::error(std::string code, std::string path, std::string message) {
  entries_.push_back({Severity::kError, std::move(code), std::move(path), std::move(message)});
}

void Diagnostics::warning(std::string code, std::string path, std::string message) {
  entries_.push_back({Severity::kWarning, std::move(code), std::move(path), std::move(message)});
}

void Diagnostics::add(Diagnostic d) { entries_.push_back(std::move(d)); }

void Diagnostics::append(const Diagnostics& other) {
  entries_.insert(entries_.end(), other.entries_.begin(), other.entries_.end());
}

bool Diagnostics::has_errors() const { return num_errors() > 0; }

std::size_t Diagnostics::num_errors() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

json::Value Diagnostics::to_json() const {
  json::Array a;
  a.reserve(entries_.size());
  for (const Diagnostic& d : entries_) a.push_back(d.to_json());
  return json::Value(std::move(a));
}

std::string Diagnostics::summary() const {
  std::string out;
  for (const Diagnostic& d : entries_) {
    if (d.severity != Severity::kError) continue;
    if (!out.empty()) out += "; ";
    if (!d.path.empty()) {
      out += d.path;
      out += ": ";
    }
    out += d.message;
  }
  return out.empty() ? "document is valid" : out;
}

ValidationError::ValidationError(Diagnostics diagnostics)
    : Error("invalid job document: " + diagnostics.summary()),
      diagnostics_(std::move(diagnostics)) {}

std::string pointer_join(std::string_view base, std::string_view token) {
  std::string out(base);
  out += '/';
  for (char c : token) {
    if (c == '~') {
      out += "~0";
    } else if (c == '/') {
      out += "~1";
    } else {
      out += c;
    }
  }
  return out;
}

std::string pointer_join(std::string_view base, std::size_t index) {
  return std::string(base) + "/" + std::to_string(index);
}

void check_known_keys(const json::Value& v, const std::vector<std::string_view>& allowed,
                      std::string_view base_path, Diagnostics& diags) {
  if (!v.is_object()) return;
  for (const auto& [key, value] : v.as_object()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      diags.warning("unknown-key", pointer_join(base_path, key), "unknown key '" + key + "'");
    }
  }
}

namespace {

const char* kind_name(FieldKind k) {
  switch (k) {
    case FieldKind::kNumber: return "a number";
    case FieldKind::kUint: return "a non-negative integer";
    case FieldKind::kString: return "a string";
    case FieldKind::kObject: return "an object";
    case FieldKind::kArray: return "an array";
  }
  return "?";
}

bool matches_kind(const json::Value& v, FieldKind k) {
  switch (k) {
    case FieldKind::kNumber: return v.is_number();
    case FieldKind::kUint:
      return v.is_number() && v.as_double() >= 0.0 &&
             v.as_double() == std::floor(v.as_double());
    case FieldKind::kString: return v.is_string();
    case FieldKind::kObject: return v.is_object();
    case FieldKind::kArray: return v.is_array();
  }
  return false;
}

}  // namespace

const json::Value* expect(const json::Value& obj, std::string_view key, FieldKind kind,
                          std::string_view base, Diagnostics& diags, bool required) {
  const json::Value* field = obj.find(key);
  if (field == nullptr) {
    if (required) {
      diags.error("required-missing", pointer_join(base, key),
                  "required field '" + std::string(key) + "' is missing");
    }
    return nullptr;
  }
  if (!matches_kind(*field, kind)) {
    diags.error("type-mismatch", pointer_join(base, key),
                "'" + std::string(key) + "' must be " + kind_name(kind));
    return nullptr;
  }
  return field;
}

std::optional<std::uint64_t> expect_count(const json::Value& obj, std::string_view key,
                                          std::string_view base, Diagnostics& diags,
                                          bool required) {
  const json::Value* field = expect(obj, key, FieldKind::kUint, base, diags, required);
  if (field == nullptr) return std::nullopt;
  // An int64 is exact; an integral double at or above 2^63 has no int64
  // reading (INT64_MAX itself rounds to 2^63 as a double, so compare only
  // numbers the parser could not hold as an int64).
  if (!field->is_int() && field->as_double() >= 9223372036854775808.0) {
    diags.error("value-range", pointer_join(base, key),
                "'" + std::string(key) + "' exceeds the largest supported count");
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(field->as_int());
}

bool check_positive_number(const json::Value& v, std::string_view key, std::string_view base,
                           Diagnostics& diags) {
  if (v.as_double() > 0.0) return true;
  diags.error("value-range", pointer_join(base, key),
              "'" + std::string(key) + "' must be positive");
  return false;
}

bool check_probability(const json::Value& v, std::string_view key, std::string_view base,
                       Diagnostics& diags) {
  if (v.as_double() > 0.0 && v.as_double() < 1.0) return true;
  diags.error("value-range", pointer_join(base, key),
              "'" + std::string(key) + "' must be in (0, 1)");
  return false;
}

std::optional<Formula> check_formula(const json::Value& v, std::string_view key,
                                     std::string_view base, Diagnostics& diags) {
  try {
    return Formula::parse(v.as_string());
  } catch (const Error& e) {
    diags.error("invalid-formula", pointer_join(base, key), e.what());
    return std::nullopt;
  }
}

void settle(Diagnostics found, Diagnostics* sink) {
  if (sink == nullptr) {
    if (found.empty()) return;
    Diagnostics strict;
    for (const Diagnostic& d : found.entries()) strict.error(d.code, d.path, d.message);
    throw ValidationError(std::move(strict));
  }
  if (found.has_errors()) throw ValidationError(std::move(found));
  sink->append(found);
}

}  // namespace qre
