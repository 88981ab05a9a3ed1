#include "api/registry.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"

namespace qre::api {

namespace {

std::vector<std::string_view> keys_plus(const std::vector<std::string_view>& base,
                                        std::initializer_list<std::string_view> extra) {
  std::vector<std::string_view> keys = base;
  keys.insert(keys.end(), extra.begin(), extra.end());
  return keys;
}

}  // namespace

Registry Registry::with_builtins() {
  Registry r;
  r.register_qubit(QubitParams::gate_ns_e3());
  r.register_qubit(QubitParams::gate_ns_e4());
  r.register_qubit(QubitParams::gate_us_e3());
  r.register_qubit(QubitParams::gate_us_e4());
  r.register_qubit(QubitParams::maj_ns_e4());
  r.register_qubit(QubitParams::maj_ns_e6());
  r.register_qec(InstructionSet::kGateBased, QecScheme::surface_code_gate_based());
  r.register_qec(InstructionSet::kMajorana, QecScheme::surface_code_majorana());
  r.register_qec(InstructionSet::kMajorana, QecScheme::floquet_code());
  for (DistillationUnit& u : DistillationUnit::default_units()) {
    r.register_distillation(std::move(u));
  }
  return r;
}

Registry::Registry(Registry&& other) noexcept {
  WriterLock lock(other.mutex_);
  qubits_ = std::move(other.qubits_);
  qec_ = std::move(other.qec_);
  distillation_ = std::move(other.distillation_);
}

Registry& Registry::global() {
  static Registry instance = with_builtins();
  return instance;
}

void Registry::register_qubit_locked(QubitParams profile) {
  QRE_REQUIRE(!profile.name.empty(), "a registered qubit profile needs a name");
  profile.validate();
  for (QubitParams& q : qubits_) {
    if (q.name == profile.name) {
      q = std::move(profile);
      return;
    }
  }
  qubits_.push_back(std::move(profile));
}

void Registry::register_qubit(QubitParams profile) {
  WriterLock lock(mutex_);
  register_qubit_locked(std::move(profile));
}

const QubitParams* Registry::find_qubit_locked(std::string_view name) const {
  for (const QubitParams& q : qubits_) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

const QubitParams* Registry::find_qubit(std::string_view name) const {
  ReaderLock lock(mutex_);
  return find_qubit_locked(name);
}

std::vector<std::string> Registry::qubit_names() const {
  ReaderLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(qubits_.size());
  for (const QubitParams& q : qubits_) names.push_back(q.name);
  return names;
}

void Registry::register_qec_locked(InstructionSet set, QecScheme scheme) {
  QRE_REQUIRE(!scheme.name().empty(), "a registered QEC scheme needs a name");
  for (QecEntry& e : qec_) {
    if (e.set == set && e.scheme.name() == scheme.name()) {
      e.scheme = std::move(scheme);
      return;
    }
  }
  qec_.push_back({set, std::move(scheme)});
}

void Registry::register_qec(InstructionSet set, QecScheme scheme) {
  WriterLock lock(mutex_);
  register_qec_locked(set, std::move(scheme));
}

const QecScheme* Registry::find_qec_locked(std::string_view name, InstructionSet set) const {
  for (const QecEntry& e : qec_) {
    if (e.set == set && e.scheme.name() == name) return &e.scheme;
  }
  return nullptr;
}

const QecScheme* Registry::find_qec(std::string_view name, InstructionSet set) const {
  ReaderLock lock(mutex_);
  return find_qec_locked(name, set);
}

std::vector<std::string> Registry::qec_names() const {
  ReaderLock lock(mutex_);
  std::vector<std::string> names;
  for (const QecEntry& e : qec_) {
    if (std::find(names.begin(), names.end(), e.scheme.name()) == names.end()) {
      names.push_back(e.scheme.name());
    }
  }
  return names;
}

void Registry::register_distillation_locked(DistillationUnit unit) {
  QRE_REQUIRE(!unit.name.empty(), "a registered distillation unit needs a name");
  unit.validate();
  for (DistillationUnit& u : distillation_) {
    if (u.name == unit.name) {
      u = std::move(unit);
      return;
    }
  }
  distillation_.push_back(std::move(unit));
}

void Registry::register_distillation(DistillationUnit unit) {
  WriterLock lock(mutex_);
  register_distillation_locked(std::move(unit));
}

const DistillationUnit* Registry::find_distillation(std::string_view name) const {
  ReaderLock lock(mutex_);
  for (const DistillationUnit& u : distillation_) {
    if (u.name == name) return &u;
  }
  return nullptr;
}

std::vector<std::string> Registry::distillation_names() const {
  ReaderLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(distillation_.size());
  for (const DistillationUnit& u : distillation_) names.push_back(u.name);
  return names;
}

void Registry::load_profile_pack(const json::Value& pack, Diagnostics& diags) {
  if (!pack.is_object()) {
    diags.error("type-mismatch", "", "profile pack must be a JSON object");
    return;
  }
  // One exclusive lock across the whole pack: concurrent readers never
  // observe a half-loaded pack, and the in-pack base/override lookups below
  // must use the _locked variants.
  WriterLock lock(mutex_);
  check_known_keys(pack, {"schemaVersion", "qubitParams", "qecSchemes", "distillationUnits"},
                   "", diags);
  if (const json::Value* version = pack.find("schemaVersion")) {
    if (!version->is_number() || version->as_double() != 2.0) {
      diags.error("unsupported-version", "/schemaVersion",
                  "profile packs use schemaVersion 2");
      return;
    }
  }

  // Each entry goes through the same section parser as a job's section, so
  // a pack accepts exactly what a job accepts and reports every problem at
  // the field's own path. The pack adds only the name and base lookups.
  if (const json::Value* profiles = pack.find("qubitParams")) {
    if (!profiles->is_array()) {
      diags.error("type-mismatch", "/qubitParams", "qubitParams must be an array");
    } else {
      const std::vector<std::string_view> allowed =
          keys_plus(QubitParams::json_keys(), {"base"});
      for (std::size_t i = 0; i < profiles->as_array().size(); ++i) {
        const json::Value& entry = profiles->as_array()[i];
        const std::string path = pointer_join("/qubitParams", i);
        if (!entry.is_object()) {
          diags.error("type-mismatch", path, "qubit profile entry must be an object");
          continue;
        }
        const json::Value* name = entry.find("name");
        if (name == nullptr || !name->is_string() || name->as_string().empty()) {
          diags.error("required-missing", pointer_join(path, "name"),
                      "qubit profile entry needs a string 'name'");
          continue;
        }
        const QubitParams* base = nullptr;
        if (entry.find("base") != nullptr) {
          const json::Value* base_name = expect(entry, "base", FieldKind::kString, path, diags);
          if (base_name == nullptr) continue;
          base = find_qubit_locked(base_name->as_string());
          if (base == nullptr) {
            diags.error("unknown-name", pointer_join(path, "base"),
                        "unknown base qubit profile '" + base_name->as_string() + "'");
            continue;
          }
        } else {
          base = find_qubit_locked(name->as_string());  // re-tuning a registered profile
          if (base == nullptr && entry.find("instructionSet") == nullptr) {
            diags.error("required-missing", pointer_join(path, "instructionSet"),
                        "new qubit profile needs 'instructionSet' or 'base'");
            continue;
          }
        }
        if (std::optional<QubitParams> q = QubitParams::parse(entry, path, base, diags, allowed)) {
          q->name = name->as_string();
          register_qubit_locked(std::move(*q));
        }
      }
    }
  }

  if (const json::Value* schemes = pack.find("qecSchemes")) {
    if (!schemes->is_array()) {
      diags.error("type-mismatch", "/qecSchemes", "qecSchemes must be an array");
    } else {
      const std::vector<std::string_view> allowed =
          keys_plus(QecScheme::json_keys(), {"base", "instructionSet"});
      for (std::size_t i = 0; i < schemes->as_array().size(); ++i) {
        const json::Value& entry = schemes->as_array()[i];
        const std::string path = pointer_join("/qecSchemes", i);
        if (!entry.is_object()) {
          diags.error("type-mismatch", path, "QEC scheme entry must be an object");
          continue;
        }
        const json::Value* name = entry.find("name");
        if (name == nullptr || !name->is_string() || name->as_string().empty()) {
          diags.error("required-missing", pointer_join(path, "name"),
                      "QEC scheme entry needs a string 'name'");
          continue;
        }
        const json::Value* set_field = entry.find("instructionSet");
        InstructionSet set = InstructionSet::kGateBased;
        if (set_field == nullptr || !set_field->is_string() ||
            !try_parse_instruction_set(set_field->as_string(), set)) {
          diags.error("required-missing", pointer_join(path, "instructionSet"),
                      "QEC scheme entry needs instructionSet GateBased or Majorana");
          continue;
        }
        const QecScheme fallback = QecScheme::default_for(set);
        const QecScheme* base = find_qec_locked(name->as_string(), set);
        if (entry.find("base") != nullptr) {
          const json::Value* base_name = expect(entry, "base", FieldKind::kString, path, diags);
          if (base_name == nullptr) continue;
          base = find_qec_locked(base_name->as_string(), set);
          if (base == nullptr) {
            diags.error("unknown-name", pointer_join(path, "base"),
                        "unknown base QEC scheme '" + base_name->as_string() + "'");
            continue;
          }
        } else if (base == nullptr) {
          base = &fallback;
        }
        if (std::optional<QecScheme> scheme =
                QecScheme::parse(entry, path, base, set, diags, allowed)) {
          register_qec_locked(set, scheme->with_name(name->as_string()));
        }
      }
    }
  }

  if (const json::Value* units = pack.find("distillationUnits")) {
    if (!units->is_array()) {
      diags.error("type-mismatch", "/distillationUnits", "distillationUnits must be an array");
    } else {
      for (std::size_t i = 0; i < units->as_array().size(); ++i) {
        const std::string path = pointer_join("/distillationUnits", i);
        std::optional<DistillationUnit> unit =
            DistillationUnit::parse(units->as_array()[i], path, diags);
        if (!unit) continue;
        if (unit->name.empty()) {
          diags.error("required-missing", pointer_join(path, "name"),
                      "distillation unit entry needs a non-empty 'name'");
          continue;
        }
        register_distillation_locked(std::move(*unit));
      }
    }
  }
}

json::Value Registry::to_json() const {
  ReaderLock lock(mutex_);
  json::Object out;
  out.emplace_back("schemaVersion", 2);

  json::Array qubits;
  qubits.reserve(qubits_.size());
  for (const QubitParams& q : qubits_) qubits.push_back(q.to_json());
  out.emplace_back("qubitParams", json::Value(std::move(qubits)));

  json::Array schemes;
  schemes.reserve(qec_.size());
  for (const QecEntry& e : qec_) {
    json::Value scheme = e.scheme.to_json();
    scheme.set("instructionSet", std::string(to_string(e.set)));
    schemes.push_back(std::move(scheme));
  }
  out.emplace_back("qecSchemes", json::Value(std::move(schemes)));

  json::Array units;
  units.reserve(distillation_.size());
  for (const DistillationUnit& u : distillation_) units.push_back(u.to_json());
  out.emplace_back("distillationUnits", json::Value(std::move(units)));

  return json::Value(std::move(out));
}

}  // namespace qre::api
