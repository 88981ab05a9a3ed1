// Process-lifetime objects behind reference-count-free handles.
//
// Built-in profiles (the QEC schemes and the default distillation units)
// are copied into every estimation input and every result. Sharing their
// parts through an ordinary std::shared_ptr makes each copy and each
// destruction an atomic write to the one control block, and when a worker
// pool copies the same profile on every core those writes are what the
// cores contend on. pin_for_process() gives such a part up for good: the
// object is never destroyed, and the handle is a std::shared_ptr aliasing
// an empty owner, so it has no control block and copying it copies a
// pointer. The caller keeps the handle reachable from static storage (a
// built-in held by a function-local static), so leak checkers see the
// object as reachable rather than lost.
#pragma once

#include <memory>

namespace qre {

/// A handle to `object` with no control block; `object` lives until the
/// process exits.
template <typename T>
std::shared_ptr<T> pin_for_process(std::unique_ptr<T> object) {
  return std::shared_ptr<T>(std::shared_ptr<T>(), object.release());
}

}  // namespace qre
