// Property/fuzz tests for the input surfaces: deterministic-seed mutation
// of valid schema-v2 documents (key deletion, type swaps, value
// replacement) and raw byte corruption, asserting the validator, the JSON
// parser, the HTTP message layer, and the router never crash and always
// answer with structured diagnostics (or a 4xx envelope) instead.
//
// All randomness is seeded per-iteration, so any failure reproduces
// exactly from the test log.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/error.hpp"
#include "frontier/explorer.hpp"
#include "json/json.hpp"
#include "server/http.hpp"
#include "server/router.hpp"
#include "store/estimate_store.hpp"
#include "store/store.hpp"

#ifndef QRE_SOURCE_DIR
#define QRE_SOURCE_DIR "."
#endif

namespace qre {
namespace {

const char* kSingleJob = R"({
  "schemaVersion": 2,
  "logicalCounts": {"numQubits": 10, "tCount": 1000, "rotationCount": 10,
                    "rotationDepth": 5},
  "qubitParams": {"name": "qubit_gate_ns_e3"},
  "qecScheme": {"name": "surface_code"},
  "errorBudget": {"logical": 0.0005, "tstates": 0.0003, "rotations": 0.0002},
  "constraints": {"maxTFactories": 4, "logicalDepthFactor": 1.5},
  "estimateType": "singlePoint"
})";

const char* kFrontierJob = R"({
  "schemaVersion": 2,
  "logicalCounts": {"numQubits": 10, "tCount": 1000},
  "qubitParams": {"name": "qubit_gate_ns_e3"},
  "frontier": {"maxProbes": 8, "qubitTolerance": 0.1, "runtimeTolerance": 0.1,
               "errorBudgets": [0.01, 0.001]}
})";

// --------------------------------------------------- document mutations ---

/// A grab-bag of replacement values covering every JSON type plus common
/// pathological numbers.
json::Value random_junk(std::mt19937_64& rng) {
  switch (rng() % 10) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(true);
    case 2: return json::Value(-1);
    case 3: return json::Value(0);
    case 4: return json::Value(1e308);
    case 5: return json::Value(-1e-308);
    case 6: return json::Value("junk");
    case 7: return json::Value(json::Array{});
    case 8: return json::Value(json::Object{});
    default: return json::Value(3.25);
  }
}

/// Applies one random structural mutation somewhere in the tree: delete a
/// key, swap a value for junk of another type, or recurse into a child.
void mutate(json::Value& node, std::mt19937_64& rng, int depth = 0) {
  if (depth > 6 || (!node.is_object() && !node.is_array()) || rng() % 4 == 0) {
    node = random_junk(rng);
    return;
  }
  if (node.is_object()) {
    json::Object& object = node.as_object();
    if (object.empty()) {
      node = random_junk(rng);
      return;
    }
    const std::size_t pick = rng() % object.size();
    if (rng() % 3 == 0) {
      object.erase(object.begin() + static_cast<std::ptrdiff_t>(pick));  // key deletion
    } else {
      mutate(object[pick].second, rng, depth + 1);
    }
    return;
  }
  json::Array& array = node.as_array();
  if (array.empty()) {
    node = random_junk(rng);
    return;
  }
  const std::size_t pick = rng() % array.size();
  if (rng() % 4 == 0) {
    array.erase(array.begin() + static_cast<std::ptrdiff_t>(pick));
  } else {
    mutate(array[pick], rng, depth + 1);
  }
}

/// The property every input surface must hold: parse + validate never
/// throw, and whatever diagnostics come back are structurally sound.
void expect_graceful_validation(const json::Value& document) {
  api::Registry registry = api::Registry::with_builtins();
  api::EstimateRequest request;
  ASSERT_NO_THROW(request = api::EstimateRequest::parse(document, registry));
  if (request.ok()) {
    ASSERT_NO_THROW(
        api::validate_batch_items(request.document, registry, request.diagnostics));
    // api::run reads a validated "frontier" section this way.
    if (const json::Value* section = request.document.is_object()
                                         ? request.document.find("frontier")
                                         : nullptr) {
      Diagnostics sink;
      ASSERT_NO_THROW(frontier::ExploreOptions::from_json(*section, &sink));
    }
    // Valid means parsable: a single job that validates builds its input.
    const bool single_job = request.document.find("items") == nullptr &&
                            request.document.find("sweep") == nullptr &&
                            request.document.find("frontier") == nullptr;
    if (single_job) {
      Diagnostics sink;
      ASSERT_NO_THROW(api::input_from_document(request.document, registry, &sink));
    }
  }
  for (const Diagnostic& d : request.diagnostics.entries()) {
    EXPECT_FALSE(d.code.empty());
    EXPECT_FALSE(d.message.empty());
    if (!d.path.empty()) {
      EXPECT_EQ(d.path.front(), '/');
    }
  }
  // The diagnostics document itself always serializes.
  EXPECT_NO_THROW((void)request.diagnostics.to_json().dump());
}

TEST(SchemaFuzz, MutatedDocumentsAlwaysValidateGracefully) {
  const std::vector<json::Value> seeds = {
      json::parse(kSingleJob),
      json::parse(kFrontierJob),
      json::parse_file(QRE_SOURCE_DIR "/examples/fig4_sweep_job.json"),
      json::parse_file(QRE_SOURCE_DIR "/examples/frontier_job.json"),
      json::parse_file(QRE_SOURCE_DIR "/tests/data/invalid_rotation_depth_precision.json"),
      json::parse_file(QRE_SOURCE_DIR "/tests/data/invalid_preset_instruction_set.json"),
  };
  for (std::size_t seed_index = 0; seed_index < seeds.size(); ++seed_index) {
    for (std::uint64_t iteration = 0; iteration < 300; ++iteration) {
      std::mt19937_64 rng(1000 * seed_index + iteration);
      json::Value document = seeds[seed_index];
      const std::uint64_t rounds = 1 + rng() % 4;
      for (std::uint64_t r = 0; r < rounds; ++r) mutate(document, rng);
      SCOPED_TRACE("seed_index=" + std::to_string(seed_index) +
                   " iteration=" + std::to_string(iteration));
      expect_graceful_validation(document);
    }
  }
}

// ------------------------------------------------------ byte corruption ---

std::string corrupt_bytes(std::string text, std::mt19937_64& rng) {
  if (text.empty()) return text;
  const std::uint64_t edits = 1 + rng() % 8;
  for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos = rng() % text.size();
    switch (rng() % 3) {
      case 0: text[pos] = static_cast<char>(rng() % 256); break;   // substitute
      case 1: text.erase(pos, 1); break;                            // delete
      default: text.insert(pos, 1, static_cast<char>(rng() % 256)); // insert
    }
  }
  return text;
}

TEST(SchemaFuzz, CorruptedJsonTextParsesOrThrowsQreError) {
  const std::string source = kSingleJob;
  for (std::uint64_t iteration = 0; iteration < 500; ++iteration) {
    std::mt19937_64 rng(77000 + iteration);
    const std::string corrupted = corrupt_bytes(source, rng);
    SCOPED_TRACE("iteration=" + std::to_string(iteration));
    try {
      json::Value document = json::parse(corrupted);
      // Still-parseable text must still validate gracefully.
      expect_graceful_validation(document);
    } catch (const Error&) {
      // Structured rejection is the expected failure mode.
    }
    // Anything else (std::bad_alloc, segfault, uncaught logic_error) fails
    // the test by escaping the try.
  }
}

// ------------------------------------------------------------ HTTP layer ---

server::ByteSource memory_source(std::string data) {
  auto stream = std::make_shared<std::pair<std::string, std::size_t>>(std::move(data), 0);
  return [stream](char* out, std::size_t len) -> long {
    const std::string& bytes = stream->first;
    std::size_t& pos = stream->second;
    if (pos >= bytes.size()) return 0;
    const std::size_t n = std::min(len, bytes.size() - pos);
    std::memcpy(out, bytes.data() + pos, n);
    pos += n;
    return static_cast<long>(n);
  };
}

TEST(SchemaFuzz, CorruptedHttpRequestsNeverCrashTheMessageLayer) {
  const std::string valid =
      "POST /v2/estimate HTTP/1.1\r\n"
      "Host: fuzz\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 17\r\n"
      "\r\n"
      "{\"numQubits\": 10}";
  const std::string chunked =
      "POST /v2/jobs HTTP/1.1\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "6\r\n{\"a\":1\r\n1\r\n}\r\n0\r\n\r\n";
  for (std::uint64_t iteration = 0; iteration < 600; ++iteration) {
    std::mt19937_64 rng(909000 + iteration);
    const std::string& base = iteration % 2 == 0 ? valid : chunked;
    std::string corrupted = corrupt_bytes(base, rng);
    if (rng() % 3 == 0) corrupted.resize(rng() % (corrupted.size() + 1));  // truncate
    SCOPED_TRACE("iteration=" + std::to_string(iteration));
    std::string buffer;
    server::Request request;
    server::ReadLimits limits;
    limits.max_header_bytes = 4096;
    limits.max_body_bytes = 4096;
    server::ReadStatus status = server::ReadStatus::kBadRequest;
    ASSERT_NO_THROW(status = read_request(memory_source(corrupted), buffer, request, limits));
    if (status == server::ReadStatus::kOk) {
      // Whatever parsed must be internally consistent enough to inspect.
      EXPECT_NO_THROW((void)request.path());
      EXPECT_NO_THROW((void)request.keep_alive());
    }
  }
}

/// Runs one fabricated request through the real router and returns the
/// parsed response; asserts exactly one well-formed response was written.
server::ParsedResponse route(server::Router& router, const std::string& method,
                             const std::string& target, const std::string& body) {
  server::Request request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.1";
  request.headers.push_back({"Connection", "close"});
  request.body = body;
  std::string wire;
  server::ByteSink sink = [&wire](std::string_view data) {
    wire.append(data);
    return true;
  };
  router.handle(request, sink);
  std::string buffer;
  server::ParsedResponse response;
  EXPECT_EQ(read_response(memory_source(wire), buffer, response), server::ReadStatus::kOk)
      << "router wrote an unparseable response";
  return response;
}

TEST(SchemaFuzz, RouterAnswersCorruptedBodiesWithStructured4xx) {
  api::Registry registry = api::Registry::with_builtins();
  server::Service service(registry);
  server::Router router(service);

  const std::string source = kSingleJob;
  for (std::uint64_t iteration = 0; iteration < 200; ++iteration) {
    std::mt19937_64 rng(31000 + iteration);
    std::string corrupted = corrupt_bytes(source, rng);
    SCOPED_TRACE("iteration=" + std::to_string(iteration));
    // /v2/validate never estimates, so arbitrary still-valid mutants are
    // cheap; the endpoint must answer 200 or 422 with a diagnostics body,
    // or 400 for unparseable JSON — always a JSON document.
    server::ParsedResponse response = route(router, "POST", "/v2/validate", corrupted);
    EXPECT_TRUE(response.status == 200 || response.status == 400 ||
                response.status == 422)
        << "unexpected status " << response.status;
    json::Value body;
    ASSERT_NO_THROW(body = json::parse(response.body));
    if (response.status == 400) {
      EXPECT_NE(body.find("error"), nullptr);
    } else {
      EXPECT_NE(body.find("diagnostics"), nullptr);
    }
  }

  // Definitely-unparseable bodies on the estimating endpoints: structured
  // 400s, never an exception, never a hung worker. Explicit length keeps
  // the embedded NUL in the body instead of truncating the literal. The
  // mutator above stops at depth 6; the deep body is the far end, which
  // would overflow the stack without the parser's nesting cap.
  const std::string junk = std::string(1, '\0') + "\xff not json";
  std::string deep;
  for (int i = 0; i < 50000; ++i) deep += i % 2 == 0 ? "{\"a\":[" : "[";
  for (const std::string& body : {junk, deep}) {
    for (const char* target : {"/v2/estimate", "/v2/jobs"}) {
      server::ParsedResponse response = route(router, "POST", target, body);
      EXPECT_EQ(response.status, 400);
      EXPECT_NE(json::parse(response.body).find("error"), nullptr);
    }
  }
}

// --------------------------------------------------- store image fuzzing ---

// Mutated store files follow the same graceful-degradation contract as
// mutated JSON: the reader either rejects the file as a whole with a
// structured qre::Error (unusable header) or opens it and serves whatever
// records survive their checksums — never a crash, never a wrong value.
TEST(SchemaFuzz, MutatedStoreImagesLoadGracefullyOrRejectCleanly) {
  std::vector<store::Record> records;
  for (int i = 0; i < 12; ++i) {
    records.push_back({"{\"job\":" + std::to_string(i) + "}",
                       "{\"result\":" + std::to_string(i) + "}"});
  }
  const std::string image = store::encode_store(records);

  char dir_pattern[] = "/tmp/qre_fuzz_store.XXXXXX";
  ASSERT_NE(::mkdtemp(dir_pattern), nullptr);
  const std::string dir = dir_pattern;
  const std::string path = dir + "/" + std::string(store::kStoreFileName);

  for (std::uint64_t iteration = 0; iteration < 300; ++iteration) {
    std::mt19937_64 rng(91000 + iteration);
    const std::string corrupted = corrupt_bytes(image, rng);
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fwrite(corrupted.data(), 1, corrupted.size(), f);
      std::fclose(f);
    }
    SCOPED_TRACE("iteration=" + std::to_string(iteration));
    try {
      store::StoreReader reader(path);
      // The header survived; every intact record must replay its exact
      // original value, and corrupt ones are skipped, not misread.
      reader.for_each([&](std::string_view key, std::string_view value) {
        for (const store::Record& r : records) {
          if (key == r.key) {
            EXPECT_EQ(value, r.value);
            return;
          }
        }
      });
    } catch (const Error&) {
      // Whole-file rejection is the expected failure mode.
    }

    // The serving layer on top degrades to a logged cold start, never a
    // process failure: load() must not throw on any mutant.
    store::EstimateStore estimate_store(dir);
    store::LoadResult loaded;
    ASSERT_NO_THROW(loaded = estimate_store.load());
    EXPECT_TRUE(loaded.file_found);
  }

  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace qre
