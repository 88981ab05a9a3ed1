// Arithmetic formula strings.
//
// QEC schemes and distillation units are customized with small arithmetic
// formulas over named parameters, exactly as in the Azure Quantum Resource
// Estimator, e.g.
//
//   "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance"
//   "35.0 * inputErrorRate ^ 3 + 7.1 * cliffordErrorRate"
//
// Formula::parse compiles such a string into a small stack program that can
// be evaluated millions of times without re-parsing (the estimator evaluates
// formulas inside the code-distance and T-factory searches).
//
// Grammar (precedence low to high):
//   expr   := term  (('+' | '-') term)*
//   term   := factor (('*' | '/') factor)*
//   factor := unary ('^' factor)?          // right-associative power
//   unary  := '-' unary | primary
//   primary:= NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'
//
// Built-in functions: ceil, floor, sqrt, abs, exp, ln, log2, pow, min, max.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qre {

/// Variable bindings for formula evaluation.
class Environment {
 public:
  Environment() = default;

  /// Binds (or rebinds) a variable.
  void set(const std::string& name, double value) { vars_[name] = value; }

  bool has(const std::string& name) const { return vars_.count(name) != 0; }

  /// Returns the bound value; throws qre::Error when the variable is unbound.
  double get(const std::string& name) const;

  /// Names of all bound variables (sorted), used for error messages.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, double> vars_;
};

/// A parsed, immutable arithmetic formula. Copies share the compiled
/// program: copying a parsed formula is a reference-count increment, not a
/// re-allocation, and copying a pinned() one copies a pointer.
class Formula {
 public:
  /// Parses `text`; throws qre::Error with position information on failure.
  static Formula parse(std::string_view text);

  /// A handle to a copy of this formula's program that is never freed
  /// (common/pinned.hpp), for formulas that live as long as the process:
  /// the built-in QEC schemes and distillation units. Copies of the handle
  /// touch no reference count, so concurrent copies write nothing shared.
  Formula pinned() const;

  /// Evaluates against the environment; throws qre::Error for unbound
  /// variables, division by zero, or non-finite results.
  double evaluate(const Environment& env) const;

  /// The original source text.
  const std::string& text() const { return program_->text; }

  /// The distinct variable names referenced by the formula.
  const std::vector<std::string>& variables() const { return program_->var_names; }

 private:
  enum class Op : std::uint8_t {
    kPushConst,
    kPushVar,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kPow,
    kNeg,
    kCall1,  // unary builtin, operand = function id
    kCall2,  // binary builtin, operand = function id
  };

  struct Instr {
    Op op;
    std::uint32_t operand = 0;
  };

  struct Program {
    std::string text;
    std::vector<Instr> code;
    std::vector<double> constants;
    std::vector<std::string> var_names;
    std::uint32_t max_stack = 0;
  };

  friend class FormulaParser;

  explicit Formula(std::shared_ptr<const Program> program) : program_(std::move(program)) {}

  std::shared_ptr<const Program> program_;
};

}  // namespace qre
