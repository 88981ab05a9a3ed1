// Profile registry (API v2).
//
// The paper's estimator is valuable because its inputs are customizable:
// qubit models, QEC schemes, and distillation units are self-describing
// JSON, and real studies (Section IV-C; Quetschlich et al., arXiv:2402.12434)
// iterate over custom hardware specifications. The registry is the single
// place those named specifications live: the six built-in qubit presets, the
// surface/floquet QEC schemes, and the default distillation units are seeded
// at startup, and clients register additional profiles at runtime — directly
// or by loading a JSON "profile pack":
//
//   {
//     "schemaVersion": 2,
//     "qubitParams": [
//       {"name": "fast_transmon", "base": "qubit_gate_ns_e3",
//        "oneQubitGateTime": 20},
//       {"name": "exotic", "instructionSet": "Majorana", ...full model...}
//     ],
//     "qecSchemes": [
//       {"name": "dense_surface", "instructionSet": "GateBased",
//        "base": "surface_code", "crossingPrefactor": 0.05}
//     ],
//     "distillationUnits": [ { ...full unit specification... } ]
//   }
//
// Registration is by name with last-wins override semantics, so a pack can
// also re-tune a built-in preset. All name lookups of the job-parsing layer
// (api::validate_job, which api::input_from_document runs) resolve against a
// registry rather than against hard-coded preset tables, which is what makes
// the service extensible without recompiling.
//
// Thread safety (audited for the estimation server, which hits one shared
// registry from concurrent request threads):
//
//  * All operations are internally synchronized by a shared mutex: lookups
//    (find_*, *_names, to_json) take a shared lock and run concurrently
//    with each other; mutation (register_*, load_profile_pack) takes an
//    exclusive lock and is serialized. No registry operation is lock-free —
//    the lock-free read paths of the serving stack live elsewhere (the
//    EstimateCache / FactoryCache hit/miss/eviction counters are plain
//    atomics; see service/cache.hpp).
//  * Profiles are stored in deques, so registering a NEW name never moves
//    existing entries: pointers returned by find_* stay valid for the
//    registry's lifetime. Re-registering an EXISTING name overwrites that
//    entry in place, which would race with a reader still dereferencing a
//    previously returned pointer. Callers that mutate concurrently with
//    lookups must therefore copy out under their own discipline — the
//    serving layer sidesteps this entirely by loading all profile packs
//    before it starts accepting connections, making the serving phase
//    read-only.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "json/json.hpp"
#include "profiles/qubit_params.hpp"
#include "qec/qec_scheme.hpp"
#include "tfactory/distillation_unit.hpp"

namespace qre::api {

class Registry {
 public:
  /// An empty registry (rarely wanted; see with_builtins / global).
  Registry() = default;

  /// Movable (with_builtins returns by value) but not copyable. Moving a
  /// registry other threads are still using is a caller bug; the move only
  /// locks `other` against concurrent registration.
  Registry(Registry&& other) noexcept;
  Registry& operator=(Registry&&) = delete;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// A registry seeded with the built-in presets: the six paper qubit
  /// models, surface_code (both instruction sets) + floquet_code, and the
  /// two default distillation units.
  static Registry with_builtins();

  /// The mutable process-wide registry used by the default lookup paths
  /// (api::EstimateRequest::parse, api::run). Seeded with the builtins on first access.
  static Registry& global();

  // --- qubit profiles ----------------------------------------------------
  /// Registers (or overrides, by name) a validated qubit model.
  void register_qubit(QubitParams profile);
  const QubitParams* find_qubit(std::string_view name) const;
  std::vector<std::string> qubit_names() const;  // registration order

  // --- QEC schemes -------------------------------------------------------
  /// Registers (or overrides, by name + instruction set) a QEC scheme.
  void register_qec(InstructionSet set, QecScheme scheme);
  const QecScheme* find_qec(std::string_view name, InstructionSet set) const;
  std::vector<std::string> qec_names() const;  // unique names, in order

  // --- distillation unit templates --------------------------------------
  /// Registers (or overrides, by name) a distillation unit template, usable
  /// from jobs as {"name": "..."} without repeating the full specification.
  void register_distillation(DistillationUnit unit);
  const DistillationUnit* find_distillation(std::string_view name) const;
  std::vector<std::string> distillation_names() const;

  /// Loads a JSON profile pack (schema in the header comment). Entries go
  /// through the job's section parsers; problems are collected on `diags`
  /// at each field's path, entries with an error are skipped, valid entries
  /// are still registered.
  void load_profile_pack(const json::Value& pack, Diagnostics& diags);

  /// Dumps the full contents — the qre_cli --list-profiles document:
  /// {"schemaVersion": 2, "qubitParams": [...], "qecSchemes": [...],
  ///  "distillationUnits": [...]}.
  json::Value to_json() const;

 private:
  struct QecEntry {
    InstructionSet set;
    QecScheme scheme;
  };

  // Unlocked bodies, shared by the public entry points and by
  // load_profile_pack (which holds the exclusive lock across the whole pack
  // so a half-loaded pack is never observable).
  void register_qubit_locked(QubitParams profile) QRE_REQUIRES(mutex_);
  void register_qec_locked(InstructionSet set, QecScheme scheme) QRE_REQUIRES(mutex_);
  void register_distillation_locked(DistillationUnit unit) QRE_REQUIRES(mutex_);
  const QubitParams* find_qubit_locked(std::string_view name) const
      QRE_REQUIRES_SHARED(mutex_);
  const QecScheme* find_qec_locked(std::string_view name, InstructionSet set) const
      QRE_REQUIRES_SHARED(mutex_);

  mutable SharedMutex mutex_;
  // Deques: registering a new profile never relocates existing entries, so
  // pointers handed out by find_* survive later (new-name) registrations.
  std::deque<QubitParams> qubits_ QRE_GUARDED_BY(mutex_);
  std::deque<QecEntry> qec_ QRE_GUARDED_BY(mutex_);
  std::deque<DistillationUnit> distillation_ QRE_GUARDED_BY(mutex_);
};

}  // namespace qre::api
