#include "core/error_budget.hpp"

#include <utility>

#include "common/error.hpp"

namespace qre {

ErrorBudget ErrorBudget::from_total(double total) {
  QRE_REQUIRE(total > 0.0 && total < 1.0, "error budget total must be in (0, 1)");
  ErrorBudget b;
  b.total_ = total;
  return b;
}

ErrorBudget ErrorBudget::from_parts(double logical, double tstates, double rotations) {
  QRE_REQUIRE(logical > 0.0, "error budget: logical part must be positive");
  QRE_REQUIRE(tstates >= 0.0 && rotations >= 0.0,
              "error budget: parts must be non-negative");
  ErrorBudget b;
  b.explicit_parts_ = ErrorBudgetPartition{logical, tstates, rotations};
  b.total_ = b.explicit_parts_->total();
  QRE_REQUIRE(b.total_ < 1.0, "error budget total must be below 1");
  return b;
}

const std::vector<std::string_view>& ErrorBudget::json_keys() {
  static const std::vector<std::string_view> kKeys = {"total", "logical", "tstates",
                                                      "rotations"};
  return kKeys;
}

std::optional<ErrorBudget> ErrorBudget::parse(const json::Value& v, std::string_view path,
                                              Diagnostics& diags) {
  if (v.is_number()) {
    if (!(v.as_double() > 0.0 && v.as_double() < 1.0)) {
      diags.error("value-range", std::string(path), "error budget must be in (0, 1)");
      return std::nullopt;
    }
    return from_total(v.as_double());
  }
  if (!v.is_object()) {
    diags.error("type-mismatch", std::string(path), "errorBudget must be a number or an object");
    return std::nullopt;
  }
  check_known_keys(v, json_keys(), path, diags);
  if (v.find("total") != nullptr) {
    const json::Value* total = expect(v, "total", FieldKind::kNumber, path, diags);
    if (total == nullptr || !check_probability(*total, "total", path, diags)) return std::nullopt;
    return from_total(total->as_double());
  }
  const std::size_t errors = diags.num_errors();
  const json::Value* logical = expect(v, "logical", FieldKind::kNumber, path, diags, true);
  const json::Value* tstates = expect(v, "tstates", FieldKind::kNumber, path, diags, true);
  const json::Value* rotations = expect(v, "rotations", FieldKind::kNumber, path, diags, true);
  if (logical != nullptr && logical->as_double() <= 0.0) {
    diags.error("value-range", pointer_join(path, "logical"),
                "'logical' budget part must be positive");
  }
  for (const auto& [field, key] : {std::pair{tstates, std::string_view("tstates")},
                                   std::pair{rotations, std::string_view("rotations")}}) {
    if (field != nullptr && field->as_double() < 0.0) {
      diags.error("value-range", pointer_join(path, key),
                  "'" + std::string(key) + "' budget part must be non-negative");
    }
  }
  if (logical != nullptr && tstates != nullptr && rotations != nullptr &&
      logical->as_double() + tstates->as_double() + rotations->as_double() >= 1.0) {
    diags.error("value-range", std::string(path), "error budget parts must sum below 1");
  }
  if (diags.num_errors() != errors) return std::nullopt;
  return from_parts(logical->as_double(), tstates->as_double(), rotations->as_double());
}

ErrorBudget ErrorBudget::from_json(const json::Value& v, Diagnostics* diags) {
  return parse_or_throw(diags, [&](Diagnostics& found) { return parse(v, "/errorBudget", found); });
}

json::Value ErrorBudget::to_json() const {
  json::Object o;
  o.emplace_back("total", total_);
  if (explicit_parts_.has_value()) {
    o.emplace_back("logical", explicit_parts_->logical);
    o.emplace_back("tstates", explicit_parts_->tstates);
    o.emplace_back("rotations", explicit_parts_->rotations);
  }
  return json::Value(std::move(o));
}

double ErrorBudget::total() const { return total_; }

ErrorBudgetPartition ErrorBudget::resolve(bool has_tstates, bool has_rotations) const {
  if (explicit_parts_.has_value()) {
    QRE_REQUIRE(!has_rotations || explicit_parts_->rotations > 0.0,
                "error budget: program has rotations but the rotation budget is zero");
    QRE_REQUIRE(!has_tstates || explicit_parts_->tstates > 0.0,
                "error budget: program consumes T states but the T-state budget is zero");
    return *explicit_parts_;
  }
  ErrorBudgetPartition p;
  if (has_rotations) {
    p.logical = total_ / 3.0;
    p.tstates = total_ / 3.0;
    p.rotations = total_ / 3.0;
  } else if (has_tstates) {
    p.logical = total_ / 2.0;
    p.tstates = total_ / 2.0;
  } else {
    p.logical = total_;
  }
  return p;
}

}  // namespace qre
