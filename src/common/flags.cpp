#include "common/flags.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>

namespace qre::flags {

long long integer(const char* flag, const char* text, long long min, long long max) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min || value > max) {
    throw UsageError(std::string(flag) + " expects an integer in [" + std::to_string(min) +
                     ", " + std::to_string(max) + "], got '" + text + "'");
  }
  return value;
}

double seconds(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  // The negated comparison also rejects NaN.
  if (end == text || *end != '\0' || !(value > 0 && value <= INT_MAX)) {
    throw UsageError(std::string(flag) + " expects seconds in (0, " + std::to_string(INT_MAX) +
                     "], got '" + text + "'");
  }
  return value;
}

const char* nonempty(const char* flag, const char* text) {
  if (*text == '\0') throw UsageError(std::string(flag) + " expects a non-empty value");
  return text;
}

void print_help(std::FILE* out, const std::vector<Flag>& table) {
  for (const Flag& flag : table) {
    std::string label = flag.name;
    if (flag.metavar != nullptr) label = label + " " + flag.metavar;
    std::fprintf(out, "  %-18s  ", label.c_str());
    for (const char c : flag.help) {
      std::fputc(c, out);
      if (c == '\n') std::fprintf(out, "%22s", "");
    }
    std::fputc('\n', out);
  }
}

int parse(int argc, char** argv, const std::vector<Flag>& table,
          const std::function<void(const char* arg)>& positional) {
  const auto find = [&table](const char* arg) -> const Flag* {
    for (const Flag& flag : table) {
      if (std::strcmp(flag.name, arg) == 0) return &flag;
    }
    return nullptr;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      const Flag* flag = find(arg);
      if (flag == nullptr) {
        if (arg[0] == '-' && arg[1] != '\0') {
          throw UsageError(std::string("unknown option '") + arg + "'");
        }
        if (!positional) throw UsageError(std::string("unexpected argument '") + arg + "'");
        positional(arg);
        continue;
      }
      const char* value = nullptr;
      if (flag->metavar != nullptr) {
        if (i + 1 >= argc) throw UsageError(std::string(arg) + " requires " + flag->metavar);
        value = argv[++i];
        if (find(value) != nullptr) {
          throw UsageError(std::string(arg) + " requires " + flag->metavar + ", got option '" +
                           value + "'");
        }
      }
      flag->apply(value);
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

}  // namespace qre::flags
