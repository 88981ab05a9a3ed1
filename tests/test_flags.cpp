#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/flags.hpp"

namespace qre::flags {
namespace {

/// Runs parse() on {"tool", args...}, returning its status and capturing
/// its stderr.
struct ParseRun {
  int status = 0;
  std::string err;
};

ParseRun run(const std::vector<Flag>& table, std::vector<std::string> args,
             const std::function<void(const char*)>& positional = nullptr) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  testing::internal::CaptureStderr();
  ParseRun out;
  out.status = parse(static_cast<int>(argv.size()), argv.data(), table, positional);
  out.err = testing::internal::GetCapturedStderr();
  return out;
}

std::string usage_error(const std::function<void()>& body) {
  try {
    body();
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(FlagsInteger, AcceptsTheInclusiveBounds) {
  EXPECT_EQ(integer("--n", "1", 1, 1024), 1);
  EXPECT_EQ(integer("--n", "1024", 1, 1024), 1024);
  EXPECT_EQ(integer("--n", "-5", -5, 0), -5);
  EXPECT_EQ(integer("--n", "9223372036854775807", 0, LLONG_MAX), LLONG_MAX);
}

TEST(FlagsInteger, RejectsOutOfRangeAndMalformedTextNamingTheFlag) {
  EXPECT_EQ(usage_error([] { integer("--threads", "1025", 1, 1024); }),
            "--threads expects an integer in [1, 1024], got '1025'");
  EXPECT_EQ(usage_error([] { integer("--threads", "0", 1, 1024); }),
            "--threads expects an integer in [1, 1024], got '0'");
  for (const char* bad : {"", "abc", "12x", "1.5", " "}) {
    EXPECT_NE(usage_error([bad] { integer("--n", bad, 0, 10); }), "") << bad;
  }
  // 20 digits overflow strtoll: an error, never clamped to LLONG_MAX.
  EXPECT_NE(usage_error([] { integer("--n", "99999999999999999999", 0, LLONG_MAX); }), "");
  EXPECT_NE(usage_error([] { integer("--n", "-99999999999999999999", LLONG_MIN, 0); }), "");
}

TEST(FlagsSeconds, AcceptsFiniteDurationsUpToIntMax) {
  EXPECT_EQ(seconds("--s", "0.5"), 0.5);
  EXPECT_EQ(seconds("--s", "2147483647"), INT_MAX);
}

TEST(FlagsSeconds, RejectsZeroInfNanAndHugeValues) {
  EXPECT_EQ(usage_error([] { seconds("--deadline", "0"); }),
            "--deadline expects seconds in (0, 2147483647], got '0'");
  for (const char* bad : {"inf", "nan", "1e12", "-1", "", "5s"}) {
    EXPECT_NE(usage_error([bad] { seconds("--deadline", bad); }), "") << bad;
  }
}

TEST(FlagsNonempty, RejectsTheEmptyString) {
  EXPECT_STREQ(nonempty("--cache-dir", "d"), "d");
  EXPECT_EQ(usage_error([] { nonempty("--cache-dir", ""); }),
            "--cache-dir expects a non-empty value");
}

class FlagsParse : public testing::Test {
 protected:
  std::vector<Flag> table_ = {
      {"--on", nullptr, "a switch", [this](const char*) { on_ = true; }},
      {"--n", "N", "a count", [this](const char* v) { n_ = integer("--n", v, 1, 8); }},
      {"--dir", "DIR", "a directory\nsecond line",
       [this](const char* v) { dir_ = nonempty("--dir", v); }},
  };
  bool on_ = false;
  long long n_ = 0;
  std::string dir_;
};

TEST_F(FlagsParse, AppliesSwitchesAndValues) {
  std::vector<std::string> positional;
  const ParseRun r = run(table_, {"--on", "--n", "3", "job.json", "--dir", "d"},
                         [&](const char* arg) { positional.emplace_back(arg); });
  EXPECT_EQ(r.status, 0);
  EXPECT_EQ(r.err, "");
  EXPECT_TRUE(on_);
  EXPECT_EQ(n_, 3);
  EXPECT_EQ(dir_, "d");
  EXPECT_EQ(positional, std::vector<std::string>{"job.json"});
}

TEST_F(FlagsParse, ValueParserErrorsExitTwoNamingTheFlag) {
  EXPECT_EQ(run(table_, {"--n", "9"}).err,
            "error: --n expects an integer in [1, 8], got '9'\n");
  const ParseRun empty = run(table_, {"--dir", ""});
  EXPECT_EQ(empty.status, 2);
  EXPECT_EQ(empty.err, "error: --dir expects a non-empty value\n");
}

TEST_F(FlagsParse, MissingValueAtTheEndIsAnError) {
  const ParseRun r = run(table_, {"--on", "--n"});
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.err, "error: --n requires N\n");
}

TEST_F(FlagsParse, ATableFlagIsNotAValue) {
  const ParseRun r = run(table_, {"--dir", "--on"});
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.err, "error: --dir requires DIR, got option '--on'\n");
  EXPECT_FALSE(on_);
  // Anything else, including another dash-word, is taken as the value.
  EXPECT_EQ(run(table_, {"--dir", "-"}).status, 0);
  EXPECT_EQ(dir_, "-");
  EXPECT_EQ(run(table_, {"--dir", "--not-a-flag"}).status, 0);
  EXPECT_EQ(dir_, "--not-a-flag");
}

TEST_F(FlagsParse, UnknownOptionsAreErrors) {
  const ParseRun r = run(table_, {"--nope"}, [](const char*) {});
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.err, "error: unknown option '--nope'\n");
  EXPECT_EQ(run(table_, {"-x"}, [](const char*) {}).status, 2);
}

TEST_F(FlagsParse, LoneDashIsPositional) {
  std::vector<std::string> positional;
  EXPECT_EQ(run(table_, {"-"}, [&](const char* arg) { positional.emplace_back(arg); }).status,
            0);
  EXPECT_EQ(positional, std::vector<std::string>{"-"});
}

TEST_F(FlagsParse, NoPositionalCallbackRejectsPaths) {
  const ParseRun r = run(table_, {"--on", "job.json"});
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.err, "error: unexpected argument 'job.json'\n");
}

TEST_F(FlagsParse, PositionalCallbackMayRejectWithAUsageError) {
  const ParseRun r =
      run(table_, {"a.json"}, [](const char*) { throw UsageError("one path only"); });
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.err, "error: one path only\n");
}

TEST_F(FlagsParse, PrintHelpListsEveryRowAndHelpLine) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  print_help(f, table_);
  std::rewind(f);
  std::string text;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) text.push_back(static_cast<char>(c));
  std::fclose(f);
  EXPECT_EQ(text,
            "  --on                a switch\n"
            "  --n N               a count\n"
            "  --dir DIR           a directory\n"
            "                      second line\n");
}

}  // namespace
}  // namespace qre::flags
