#include "counter/logical_counts.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace qre {

namespace {

/// Every count field, in document order.
constexpr std::pair<std::string_view, std::uint64_t LogicalCounts::*> kFields[] = {
    {"numQubits", &LogicalCounts::num_qubits},
    {"tCount", &LogicalCounts::t_count},
    {"rotationCount", &LogicalCounts::rotation_count},
    {"rotationDepth", &LogicalCounts::rotation_depth},
    {"cczCount", &LogicalCounts::ccz_count},
    {"ccixCount", &LogicalCounts::ccix_count},
    {"measurementCount", &LogicalCounts::measurement_count},
    {"cliffordCount", &LogicalCounts::clifford_count},
};

}  // namespace

const std::vector<std::string_view>& LogicalCounts::json_keys() {
  static const std::vector<std::string_view> kKeys = [] {
    std::vector<std::string_view> keys;
    for (const auto& [key, member] : kFields) keys.push_back(key);
    return keys;
  }();
  return kKeys;
}

std::optional<LogicalCounts> LogicalCounts::parse(const json::Value& v, std::string_view path,
                                                  Diagnostics& diags) {
  if (!v.is_object()) {
    diags.error("type-mismatch", std::string(path), "logicalCounts must be an object");
    return std::nullopt;
  }
  const std::size_t errors = diags.num_errors();
  check_known_keys(v, json_keys(), path, diags);
  LogicalCounts c;
  for (const auto& [key, member] : kFields) {
    const bool is_width = member == &LogicalCounts::num_qubits;
    const std::optional<std::uint64_t> count = expect_count(v, key, path, diags, is_width);
    if (is_width && count == 0u) {
      diags.error("value-range", pointer_join(path, key), "'numQubits' must be positive");
    }
    c.*member = count.value_or(0);
  }
  // Unreadable counts read as 0 here, so each problem is reported once.
  if (c.rotation_depth > c.rotation_count) {
    diags.error("value-range", pointer_join(path, "rotationDepth"),
                "'rotationDepth' cannot exceed 'rotationCount'");
  } else if (c.rotation_count > 0 && c.rotation_depth == 0) {
    diags.error("value-range", pointer_join(path, "rotationDepth"),
                "'rotationDepth' must be positive when rotations are present");
  }
  if (diags.num_errors() != errors) return std::nullopt;
  return c;
}

LogicalCounts LogicalCounts::from_json(const json::Value& v, Diagnostics* diags) {
  return parse_or_throw(diags,
                        [&](Diagnostics& found) { return parse(v, "/logicalCounts", found); });
}

LogicalCounts LogicalCounts::sequential(const std::vector<LogicalCounts>& parts) {
  QRE_REQUIRE(!parts.empty(), "LogicalCounts::sequential requires at least one part");
  LogicalCounts total;
  for (const LogicalCounts& p : parts) {
    total.num_qubits = std::max(total.num_qubits, p.num_qubits);
    total.t_count += p.t_count;
    total.rotation_count += p.rotation_count;
    total.rotation_depth += p.rotation_depth;
    total.ccz_count += p.ccz_count;
    total.ccix_count += p.ccix_count;
    total.measurement_count += p.measurement_count;
    total.clifford_count += p.clifford_count;
  }
  return total;
}

LogicalCounts LogicalCounts::repeated(std::uint64_t times) const {
  QRE_REQUIRE(times >= 1, "LogicalCounts::repeated requires times >= 1");
  LogicalCounts total = *this;
  total.t_count *= times;
  total.rotation_count *= times;
  total.rotation_depth *= times;
  total.ccz_count *= times;
  total.ccix_count *= times;
  total.measurement_count *= times;
  total.clifford_count *= times;
  return total;
}

json::Value LogicalCounts::to_json() const {
  json::Object o;
  for (const auto& [key, member] : kFields) o.emplace_back(std::string(key), this->*member);
  return json::Value(std::move(o));
}

}  // namespace qre
