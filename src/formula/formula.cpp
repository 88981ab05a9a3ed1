#include "formula/formula.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/pinned.hpp"

namespace qre {

double Environment::get(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end()) {
    std::ostringstream os;
    os << "formula references unbound variable '" << name << "'; bound variables are:";
    for (const auto& [k, v] : vars_) os << ' ' << k;
    throw_error(os.str());
  }
  return it->second;
}

std::vector<std::string> Environment::names() const {
  std::vector<std::string> out;
  out.reserve(vars_.size());
  for (const auto& [k, v] : vars_) out.push_back(k);
  return out;
}

namespace {

enum class Fn : std::uint32_t {
  kCeil,
  kFloor,
  kSqrt,
  kAbs,
  kExp,
  kLn,
  kLog2,
  kPow,
  kMin,
  kMax,
};

struct FnInfo {
  const char* name;
  Fn fn;
  int arity;
};

constexpr FnInfo kFunctions[] = {
    {"ceil", Fn::kCeil, 1}, {"floor", Fn::kFloor, 1}, {"sqrt", Fn::kSqrt, 1},
    {"abs", Fn::kAbs, 1},   {"exp", Fn::kExp, 1},     {"ln", Fn::kLn, 1},
    {"log2", Fn::kLog2, 1}, {"pow", Fn::kPow, 2},     {"min", Fn::kMin, 2},
    {"max", Fn::kMax, 2},
};

const FnInfo* find_function(std::string_view name) {
  for (const FnInfo& f : kFunctions) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

double apply1(Fn fn, double x) {
  switch (fn) {
    case Fn::kCeil: return std::ceil(x);
    case Fn::kFloor: return std::floor(x);
    case Fn::kSqrt: return std::sqrt(x);
    case Fn::kAbs: return std::fabs(x);
    case Fn::kExp: return std::exp(x);
    case Fn::kLn: return std::log(x);
    case Fn::kLog2: return std::log2(x);
    default: break;
  }
  QRE_ASSERT(false);
}

double apply2(Fn fn, double x, double y) {
  switch (fn) {
    case Fn::kPow: return std::pow(x, y);
    case Fn::kMin: return std::min(x, y);
    case Fn::kMax: return std::max(x, y);
    default: break;
  }
  QRE_ASSERT(false);
}

}  // namespace

/// Recursive-descent parser emitting the stack program directly.
class FormulaParser {
 public:
  FormulaParser(std::string_view text, Formula::Program& out) : text_(text), out_(out) {}

  void run() {
    skip_ws();
    QRE_REQUIRE(!at_end(), "formula is empty");
    std::uint32_t depth = parse_expr();
    skip_ws();
    if (!at_end()) fail("unexpected trailing input");
    QRE_ASSERT(depth == 1);
  }

 private:
  using Op = Formula::Op;

  [[noreturn]] void fail(const std::string& message) const {
    std::ostringstream os;
    os << "formula parse error at offset " << pos_ << " in \"" << text_ << "\": " << message;
    throw_error(os.str());
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }

  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void emit(Op op, std::uint32_t operand, std::uint32_t& depth, int delta) {
    out_.code.push_back({op, operand});
    QRE_ASSERT(delta >= 0 || depth >= static_cast<std::uint32_t>(-delta));
    depth = static_cast<std::uint32_t>(static_cast<int>(depth) + delta);
    out_.max_stack = std::max(out_.max_stack, depth);
  }

  // Each parse_* returns the stack depth after its subexpression, given the
  // entry depth threaded through `depth`. For simplicity every level tracks a
  // local depth starting from the caller's.
  std::uint32_t parse_expr(std::uint32_t depth = 0) {
    depth = parse_term(depth);
    for (;;) {
      skip_ws();
      if (consume('+')) {
        depth = parse_term(depth);
        emit(Op::kAdd, 0, depth, -1);
      } else if (consume('-')) {
        depth = parse_term(depth);
        emit(Op::kSub, 0, depth, -1);
      } else {
        return depth;
      }
    }
  }

  std::uint32_t parse_term(std::uint32_t depth) {
    depth = parse_factor(depth);
    for (;;) {
      skip_ws();
      if (consume('*')) {
        depth = parse_factor(depth);
        emit(Op::kMul, 0, depth, -1);
      } else if (consume('/')) {
        depth = parse_factor(depth);
        emit(Op::kDiv, 0, depth, -1);
      } else {
        return depth;
      }
    }
  }

  std::uint32_t parse_factor(std::uint32_t depth) {
    depth = parse_unary(depth);
    skip_ws();
    if (consume('^')) {
      depth = parse_factor(depth);  // right-associative
      emit(Op::kPow, 0, depth, -1);
    }
    return depth;
  }

  std::uint32_t parse_unary(std::uint32_t depth) {
    skip_ws();
    if (consume('-')) {
      depth = parse_unary(depth);
      emit(Op::kNeg, 0, depth, 0);
      return depth;
    }
    return parse_primary(depth);
  }

  std::uint32_t parse_primary(std::uint32_t depth) {
    skip_ws();
    char c = peek();
    if (c == '(') {
      ++pos_;
      depth = parse_expr(depth);
      if (!consume(')')) fail("expected ')'");
      return depth;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') return parse_number(depth);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') return parse_ident(depth);
    fail("expected a number, identifier, or '('");
  }

  std::uint32_t parse_number(std::uint32_t depth) {
    std::size_t start = pos_;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) || peek() == '.')) ++pos_;
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      std::size_t mark = pos_;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        pos_ = mark;  // 'e' belonged to a following identifier, not an exponent
      } else {
        while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("invalid numeric literal '" + token + "'");
    }
    if (used != token.size()) fail("invalid numeric literal '" + token + "'");
    auto idx = static_cast<std::uint32_t>(out_.constants.size());
    out_.constants.push_back(value);
    std::uint32_t d = depth;
    emit(Op::kPushConst, idx, d, +1);
    return d;
  }

  std::uint32_t parse_ident(std::uint32_t depth) {
    std::size_t start = pos_;
    while (!at_end() &&
           (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')) {
      ++pos_;
    }
    std::string name(text_.substr(start, pos_ - start));
    skip_ws();
    if (peek() == '(') {
      const FnInfo* fn = find_function(name);
      if (fn == nullptr) fail("unknown function '" + name + "'");
      ++pos_;  // consume '('
      std::uint32_t d = parse_expr(depth);
      int argc = 1;
      while (consume(',')) {
        d = parse_expr(d);
        ++argc;
      }
      if (!consume(')')) fail("expected ')' after arguments of '" + name + "'");
      if (argc != fn->arity) {
        fail("function '" + name + "' expects " + std::to_string(fn->arity) +
             " argument(s), got " + std::to_string(argc));
      }
      emit(fn->arity == 1 ? Op::kCall1 : Op::kCall2, static_cast<std::uint32_t>(fn->fn), d,
           fn->arity == 1 ? 0 : -1);
      return d;
    }
    // Variable reference: intern the name.
    auto it = std::find(out_.var_names.begin(), out_.var_names.end(), name);
    std::uint32_t idx;
    if (it == out_.var_names.end()) {
      idx = static_cast<std::uint32_t>(out_.var_names.size());
      out_.var_names.push_back(name);
    } else {
      idx = static_cast<std::uint32_t>(it - out_.var_names.begin());
    }
    std::uint32_t d = depth;
    emit(Op::kPushVar, idx, d, +1);
    return d;
  }

  std::string_view text_;
  Formula::Program& out_;
  std::size_t pos_ = 0;
};

Formula Formula::parse(std::string_view text) {
  auto program = std::make_shared<Program>();
  program->text.assign(text);
  FormulaParser parser(text, *program);
  parser.run();
  return Formula(std::move(program));
}

Formula Formula::pinned() const {
  return Formula(pin_for_process(std::make_unique<const Program>(*program_)));
}

double Formula::evaluate(const Environment& env) const {
  const Program& p = *program_;
  // Resolve variables once per evaluation, then run the stack program.
  double vars[16];
  double* var_values = vars;
  std::vector<double> var_storage;
  if (p.var_names.size() > 16) {
    var_storage.resize(p.var_names.size());
    var_values = var_storage.data();
  }
  for (std::size_t i = 0; i < p.var_names.size(); ++i) var_values[i] = env.get(p.var_names[i]);

  double stack_buf[32];
  double* stack = stack_buf;
  std::vector<double> stack_storage;
  if (p.max_stack > 32) {
    stack_storage.resize(p.max_stack);
    stack = stack_storage.data();
  }

  std::size_t sp = 0;
  for (const Instr& in : p.code) {
    switch (in.op) {
      case Op::kPushConst: stack[sp++] = p.constants[in.operand]; break;
      case Op::kPushVar: stack[sp++] = var_values[in.operand]; break;
      case Op::kAdd: --sp; stack[sp - 1] += stack[sp]; break;
      case Op::kSub: --sp; stack[sp - 1] -= stack[sp]; break;
      case Op::kMul: --sp; stack[sp - 1] *= stack[sp]; break;
      case Op::kDiv:
        --sp;
        if (stack[sp] == 0.0) throw_error("formula \"" + p.text + "\": division by zero");
        stack[sp - 1] /= stack[sp];
        break;
      case Op::kPow: --sp; stack[sp - 1] = std::pow(stack[sp - 1], stack[sp]); break;
      case Op::kNeg: stack[sp - 1] = -stack[sp - 1]; break;
      case Op::kCall1: stack[sp - 1] = apply1(static_cast<Fn>(in.operand), stack[sp - 1]); break;
      case Op::kCall2:
        --sp;
        stack[sp - 1] = apply2(static_cast<Fn>(in.operand), stack[sp - 1], stack[sp]);
        break;
    }
  }
  QRE_ASSERT(sp == 1);
  double result = stack[0];
  if (!std::isfinite(result)) {
    throw_error("formula \"" + p.text + "\" evaluated to a non-finite value");
  }
  return result;
}

}  // namespace qre
