// Command-line flags as one declarative table per tool: the same Flag rows
// drive argv parsing and the generated --help listing, so they cannot drift.
#pragma once

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace qre::flags {

/// Upper bound of every worker-count flag (--threads, --job-workers,
/// --jobs): each unit is an OS thread, so a typo must not start 100000.
inline constexpr long long kMaxWorkers = 1024;

/// A bad command line; the message names the flag and the offending value.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One row of a tool's flag table.
struct Flag {
  const char* name;     // "--port", or a short alias such as "-h"
  const char* metavar;  // value placeholder in --help ("N"); nullptr for a switch
  std::string help;     // '\n' starts a continuation line
  std::function<void(const char* value)> apply;  // value is nullptr for a switch
};

/// Parses a decimal integer in [min, max]; text strtoll cannot represent
/// is out of range, never clamped.
long long integer(const char* flag, const char* text, long long min, long long max);

/// Parses a duration in seconds: finite, > 0 and at most INT_MAX, so clock
/// deadlines and waits computed from it cannot overflow.
double seconds(const char* flag, const char* text);

/// Returns text unless it is empty.
const char* nonempty(const char* flag, const char* text);

/// Writes one aligned "  --name METAVAR  help" entry per row.
void print_help(std::FILE* out, const std::vector<Flag>& table);

/// Applies argv[1..argc) to the table. A value flag takes the next
/// argument, which must exist and must not itself be a table flag. Other
/// arguments starting with '-' (except "-" alone) are unknown options; the
/// rest go to positional, or are errors when it is empty. Returns 0, or 2
/// after printing "error: ..." to stderr.
int parse(int argc, char** argv, const std::vector<Flag>& table,
          const std::function<void(const char* arg)>& positional);

}  // namespace qre::flags
