#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "json/json.hpp"

namespace qre::json {
namespace {

/// The number formatter's reference: the smallest "%.*g" precision below 17
/// whose text reads back as `d`, else "%.17g". The writer must match it byte
/// for byte; it is slow (up to 16 printf/scanf rounds), so only tests use it.
std::string reference_number(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, d);
    double back = 0.0;
    std::sscanf(shorter, "%lf", &back);
    if (back == d) return shorter;
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse("1e-4").as_double(), 1e-4);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegersStayIntegers) {
  Value v = parse("1000000000000");
  EXPECT_TRUE(v.is_number());
  EXPECT_EQ(v.as_int(), 1000000000000ll);
  EXPECT_EQ(v.dump(), "1000000000000");
  // Whole-valued doubles also convert to integers on demand.
  EXPECT_EQ(parse("3.0").as_int(), 3);
}

TEST(Json, ParseNested) {
  Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  EXPECT_TRUE(v.is_object());
  const Array& a = v.at("a").as_array();
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").at("e").is_null());
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"c\"\\")").as_string(), "a\nb\t\"c\"\\");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");  // UTF-8 e-acute
}

TEST(Json, DumpRoundTrip) {
  const char* text = R"({"name":"qubit_maj_ns_e4","errorBudget":0.0001,"counts":[1,2,3],)"
                     R"("nested":{"ok":true,"missing":null}})";
  Value v = parse(text);
  Value again = parse(v.dump());
  EXPECT_TRUE(v == again);
}

TEST(Json, ObjectOrderPreserved) {
  Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.as_object();
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
  EXPECT_EQ(v.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, PrettyPrinting) {
  Value v = parse(R"({"a": [1, 2]})");
  std::string pretty = v.pretty();
  EXPECT_NE(pretty.find("\n  \"a\": ["), std::string::npos);
  EXPECT_NE(pretty.find("\n    1"), std::string::npos);
}

TEST(Json, SetInsertsAndReplaces) {
  Value v = parse("{}");
  v.set("x", Value(1));
  v.set("y", Value("two"));
  v.set("x", Value(3));
  EXPECT_EQ(v.at("x").as_int(), 3);
  EXPECT_EQ(v.as_object().size(), 2u);
}

TEST(Json, FindMissing) {
  Value v = parse(R"({"present": 1})");
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_THROW(v.at("absent"), Error);
  EXPECT_EQ(parse("[1]").find("x"), nullptr);  // non-object
}

TEST(Json, TypeErrors) {
  Value v = parse(R"({"s": "text", "n": -1})");
  EXPECT_THROW(v.at("s").as_int(), Error);
  EXPECT_THROW(v.at("s").as_array(), Error);
  EXPECT_THROW(v.at("n").as_uint(), Error);  // negative where count expected
  EXPECT_THROW(v.at("s").as_bool(), Error);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1,]"), Error);
  EXPECT_THROW(parse("{\"a\" 1}"), Error);
  EXPECT_THROW(parse("tru"), Error);
  EXPECT_THROW(parse("1 2"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("{1: 2}"), Error);
}

TEST(Json, ErrorsCarryPosition) {
  try {
    parse("{\n  \"a\": tru\n}");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, NumberFormatting) {
  EXPECT_EQ(Value(0.0001).dump(), "0.0001");
  EXPECT_EQ(Value(std::int64_t{20597}).dump(), "20597");
  EXPECT_EQ(Value(1.12e11).dump(), "1.12e+11");  // double, shortest round-trip
  Value v = parse(Value(0.1).dump());
  EXPECT_DOUBLE_EQ(v.as_double(), 0.1);
}

TEST(Json, ReferenceFormatterMatchesTheFixedExpectations) {
  // Pins the oracle below to the same literals NumberFormatting checks.
  EXPECT_EQ(reference_number(0.0001), "0.0001");
  EXPECT_EQ(reference_number(1.12e11), "1.12e+11");
  EXPECT_EQ(reference_number(0.1), "0.1");
  EXPECT_EQ(reference_number(-0.0), "-0");
  EXPECT_EQ(reference_number(5e-324), "5e-324");
  EXPECT_EQ(reference_number(DBL_MAX), "1.7976931348623157e+308");
}

TEST(Json, NumberFormattingMatchesTheReferenceByteForByte) {
  std::vector<double> cases = {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX,
                               DBL_EPSILON, 0.1, 1.0 / 3.0, 2.0 / 3.0};
  // Decimal powers and their neighbours.
  for (int e = -324; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    cases.insert(cases.end(), {p, std::nextafter(p, 0.0), std::nextafter(p, HUGE_VAL)});
  }
  // Both sides of every binade edge, where the rounding interval is
  // asymmetric and the shortest digit count is not always enough.
  for (int k = -1074; k <= 1023; ++k) {
    const double p = std::ldexp(1.0, k);
    cases.insert(cases.end(), {p, std::nextafter(p, 0.0), std::nextafter(p, HUGE_VAL)});
  }
  std::mt19937_64 rng(20260412);
  for (int i = 0; i < 20000; ++i) {  // subnormals
    cases.push_back(from_bits(rng() & ((std::uint64_t{1} << 52) - 1)));
  }
  for (int i = 0; i < 20000; ++i) {  // short decimals, as the estimator emits
    const int exponent = static_cast<int>(rng() % 40) - 20;
    cases.push_back(static_cast<double>(rng() % 100000) * std::pow(10.0, exponent));
  }
  while (cases.size() < 200000) {  // raw bit patterns
    const double d = from_bits(rng());
    if (std::isfinite(d)) cases.push_back(d);
  }
  // Ties between two 17-digit values, broken to the even digit.
  for (double fraction : {0.25, 0.75}) {
    const double d = std::ldexp(1.0, 50) + fraction;
    cases.insert(cases.end(), {d, -d});
  }
  // Where "%.ng" switches layout: n = 1..17 significant digits at decimal
  // exponents -5, -4, -1, 0, n - 1 and n, both signs.
  for (int n = 1; n <= 17; ++n) {
    for (const char* digits : {"12345678912345678", "99999999999999999"}) {
      for (int exponent : {-5, -4, -1, 0, n - 1, n}) {
        const std::string text = std::string(digits, n) + "e" + std::to_string(exponent - (n - 1));
        const double d = std::strtod(text.c_str(), nullptr);
        cases.insert(cases.end(), {d, -d});
      }
    }
  }
  std::size_t mismatches = 0;
  for (double d : cases) {
    const std::string got = Value(d).dump();
    const std::string want = reference_number(d);
    // The parser must also read every emitted number back exactly.
    if ((got != want || parse(got).as_double() != d) && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << d << ": got " << got << ", want " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases.size() << " doubles";
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
  EXPECT_EQ(Value(-HUGE_VAL).dump(), "null");
}

TEST(Json, NumberGrammarIsExactlyRfc8259) {
  EXPECT_EQ(parse("0").as_int(), 0);
  EXPECT_EQ(parse("-0.0").dump(), "-0");
  EXPECT_DOUBLE_EQ(parse("0.5").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(parse("1E5").as_double(), 1e5);
  EXPECT_DOUBLE_EQ(parse("1e-5").as_double(), 1e-5);
  EXPECT_DOUBLE_EQ(parse("-1.5e+3").as_double(), -1500.0);
  EXPECT_EQ(parse("[0,-0.5e0]").dump(), "[0,-0.5]");
  for (const char* bad : {".5", "1.", "01", "-01", "1e", "1e+", "-", "+1", "1.e5", "-.5",
                          "0x10", "1e5.", "[01]", "[1.]", "{\"a\":1e}"}) {
    EXPECT_THROW(parse(bad), Error) << bad;
  }
}

TEST(Json, NegativeZeroKeepsItsSign) {
  // The integer token "-0" has no int64 of its own; it reads as -0.0.
  EXPECT_EQ(parse("-0").dump(), "-0");
  EXPECT_TRUE(std::signbit(parse("-0").as_double()));
  EXPECT_EQ(parse("-0").as_int(), 0);
  EXPECT_EQ(parse("0").dump(), "0");
  EXPECT_EQ(parse("[-0,0,-0.0]").dump(), "[-0,0,-0]");
  // A raw leaf's pretty() re-parses its bytes, so the sign survives it too.
  EXPECT_EQ(Value::raw("[-0]").pretty(), "[\n  -0\n]");
  EXPECT_EQ(Value::raw(R"({"a":-0})").pretty(), Value(Object{{"a", Value(-0.0)}}).pretty());
}

TEST(Json, IntegersOutsideInt64AreRejectedNotRounded) {
  EXPECT_EQ(parse("9223372036854775807").as_int(), INT64_MAX);
  EXPECT_EQ(parse("-9223372036854775808").as_int(), INT64_MIN);
  for (const char* bad : {"18446744073709551615", "9223372036854775808",
                          "-9223372036854775809", "[1,100000000000000000000000]"}) {
    try {
      parse(bad);
      ADD_FAILURE() << bad << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("64-bit"), std::string::npos) << e.what();
    }
  }
  // Written as a double, the same magnitude is fine.
  EXPECT_DOUBLE_EQ(parse("1.8446744073709552e19").as_double(), 18446744073709551615.0);
  EXPECT_THROW(parse("1e999"), Error);
}

TEST(Json, NestingCapIsExact) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(parse(nested(kMaxNestingDepth)).dump(), nested(kMaxNestingDepth));
  try {
    parse(nested(kMaxNestingDepth + 1));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string want = "nesting deeper than " + std::to_string(kMaxNestingDepth);
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
  std::string objects;
  for (int i = 0; i <= kMaxNestingDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(static_cast<std::size_t>(kMaxNestingDepth) + 1, '}');
  EXPECT_THROW(parse(objects), Error);
  // Far past the cap, an unterminated run fails without exhausting the stack.
  EXPECT_THROW(parse(std::string(100000, '[')), Error);
}

TEST(Json, ParseFileMissing) { EXPECT_THROW(parse_file("/nonexistent/x.json"), Error); }

// ------------------------------------------------------------ raw leaves --

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every estimate document in a golden file: the "results" entries of a
/// batch, the "result" of each frontier point.
std::vector<Value*> result_documents(Value& golden) {
  std::vector<Value*> out;
  for (auto& [key, section] : golden.as_object()) {
    if (key == "results") {
      for (Value& r : section.as_array()) out.push_back(&r);
    } else if (key == "frontier") {
      for (Value& point : section.as_array()) {
        for (auto& [field, value] : point.as_object()) {
          if (field == "result") out.push_back(&value);
        }
      }
    }
  }
  return out;
}

TEST(JsonRaw, LeafWritesTheBytesOfItsTreeAcrossTheGoldenCorpus) {
  for (const char* name : {"fig3_multiplication_sweep.json", "fig4_hardware_profiles.json",
                           "frontier_example.json"}) {
    SCOPED_TRACE(name);
    const std::string text = read_text(QRE_SOURCE_DIR "/tests/data/golden/" + std::string(name));
    ASSERT_FALSE(text.empty());
    Value golden = parse(text);
    const std::string compact = golden.dump();
    std::vector<Value*> results = result_documents(golden);
    ASSERT_GE(results.size(), 3u);
    for (Value* r : results) {
      const Value raw = Value::raw(r->dump());
      EXPECT_EQ(raw.dump(), r->dump());
      EXPECT_EQ(raw.pretty(), r->pretty());
      *r = raw;
    }
    // Spliced into the enclosing document, the leaves re-indent at their
    // own depth: the file's bytes come back exactly.
    EXPECT_TRUE(results.front()->is_raw());
    EXPECT_EQ(golden.dump(), compact);
    EXPECT_EQ(golden.pretty() + "\n", text);
  }
}

TEST(JsonRaw, EqualityComparesSerializations) {
  const Value tree = parse(R"({"a":[1,2.5,"x"],"b":{"c":null}})");
  const Value raw = Value::raw(tree.dump());
  EXPECT_TRUE(raw == tree);
  EXPECT_TRUE(tree == raw);
  EXPECT_TRUE(raw == Value::raw(tree.dump()));
  EXPECT_FALSE(raw == parse(R"({"a":[1,2.5,"x"],"b":{"c":0}})"));
  EXPECT_FALSE(raw == Value::raw(R"({"b":{"c":null},"a":[1,2.5,"x"]})"));  // order matters
  // Inside containers the comparison recurses down to the leaf.
  Array with_raw{raw, Value(1)};
  Array with_tree{tree, Value(1)};
  EXPECT_TRUE(Value(with_raw) == Value(with_tree));
}

TEST(JsonRaw, ReadersSeeAnOpaqueLeafUntilMaterialized) {
  const Value tree = parse(R"({"physicalCounts":{"physicalQubits":42}})");
  const Value raw = Value::raw(tree.dump());
  EXPECT_TRUE(raw.is_raw());
  EXPECT_FALSE(raw.is_object());
  EXPECT_EQ(raw.find("physicalCounts"), nullptr);  // never parses implicitly
  EXPECT_THROW(raw.at("physicalCounts"), Error);
  EXPECT_THROW(raw.as_object(), Error);
  EXPECT_THROW(tree.raw_bytes(), Error);

  const Value fields = raw.materialize();
  EXPECT_FALSE(fields.is_raw());
  EXPECT_EQ(fields.at("physicalCounts").at("physicalQubits").as_uint(), 42u);
  EXPECT_EQ(tree.materialize().dump(), tree.dump());  // a tree stays as it is

  const Value copy = raw;  // copies share the bytes
  EXPECT_EQ(copy.raw_bytes().get(), raw.raw_bytes().get());
}

// --------------------------------------------------------------- gather --

/// The pieces of `g`, concatenated.
std::string joined_pieces(const Gathered& g) {
  std::vector<std::string_view> pieces;
  g.append_pieces(pieces);
  std::string out;
  for (std::string_view piece : pieces) {
    EXPECT_FALSE(piece.empty());
    out.append(piece);
  }
  return out;
}

TEST(JsonGather, PiecesConcatenateToDump) {
  const Value leaf = Value::raw(R"({"physicalCounts":{"physicalQubits":42}})");
  const Value empty_leaf = Value::raw(R"({})");
  const std::vector<Value> cases = {
      leaf,                                                    // raw root
      Value(Array{leaf, Value(1), leaf, empty_leaf}),          // raw leaves in an array
      Value(Object{{"results", Value(Array{leaf, leaf})},      // in nested containers
                   {"batchStats", Value(Object{{"numItems", Value(2)}})},
                   {"last", leaf}}),
      Value(Array{}),                                          // empty containers
      Value(Object{}),
      Value(Object{{"a", Value(Array{})}, {"b", Value(Object{})}, {"c", leaf}}),
      parse(R"({"a":[1,2.5,"x\n"],"b":{"c":null,"d":true}})"),  // no raw leaves
      Value("text"),
  };
  for (const Value& v : cases) {
    SCOPED_TRACE(v.dump());
    Gathered g;
    v.gather(g);
    EXPECT_EQ(joined_pieces(g), v.dump());
    EXPECT_EQ(g.size(), v.dump().size());
  }
}

TEST(JsonGather, LeavesAreSplicedNotCopied) {
  const Value leaf = Value::raw(R"({"x":1})");
  const Value doc(Object{{"results", Value(Array{leaf, leaf})}, {"n", Value(2)}});
  Gathered g;
  doc.gather(g);
  EXPECT_EQ(g.text, R"({"results":[,],"n":2})");
  ASSERT_EQ(g.splices.size(), 2u);
  EXPECT_EQ(g.splices[0].first, std::string_view(R"({"results":[)").size());
  EXPECT_EQ(g.splices[1].first, g.splices[0].first + 1);
  for (const Splice& splice : g.splices) EXPECT_EQ(splice.second.get(), leaf.raw_bytes().get());

  // gather() appends: a second document continues the same text and splices.
  leaf.gather(g);
  EXPECT_EQ(joined_pieces(g), doc.dump() + leaf.dump());

  // Plain text is one piece.
  EXPECT_EQ(joined_pieces(Gathered("abc")), "abc");
  EXPECT_EQ(joined_pieces(Gathered()), "");
}

}  // namespace
}  // namespace qre::json
