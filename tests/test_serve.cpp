// Tests for lhd/serve: wire-format round trips and decoder hardening
// (truncation at every offset, seed-corpus regressions, frame-sync
// recovery), and the Server itself — caching, admission control under a
// full queue, weight reloads racing in-flight traffic, and concurrent
// clients over real socketpair transports.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "lhd/core/cnn_detector.hpp"
#include "lhd/core/scan.hpp"
#include "lhd/nn/serialize.hpp"
#include "lhd/obs/json.hpp"
#include "lhd/serve/client.hpp"
#include "lhd/serve/protocol.hpp"
#include "lhd/serve/server.hpp"
#include "lhd/serve/transport.hpp"
#include "lhd/testkit/testkit.hpp"

namespace lhd::serve {
namespace {

using geom::Rect;
using testkit::FaultyIStream;
using testkit::for_each_fail_point;
using testkit::load_hex_file;
using testkit::random_bytes;
using testkit::random_rects;

// ------------------------------------------------------------- helpers ----

std::vector<std::uint8_t> encode_request_bytes(const Request& req) {
  std::ostringstream os;
  encode_request(req, os);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> encode_response_bytes(const Response& resp) {
  std::ostringstream os;
  encode_response(resp, os);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

std::istringstream byte_stream(const std::vector<std::uint8_t>& bytes) {
  return std::istringstream(std::string(bytes.begin(), bytes.end()));
}

/// Decode one request from `bytes`, expecting a WireError; ADD_FAILURE
/// and a placeholder error otherwise so the caller's asserts still run.
WireError expect_wire_error(const std::vector<std::uint8_t>& bytes) {
  auto in = byte_stream(bytes);
  try {
    const auto req = decode_request(in);
    ADD_FAILURE() << "expected WireError, got "
                  << (req ? "a decoded request" : "clean EOF");
  } catch (const WireError& e) {
    return e;
  }
  return WireError(0, "placeholder: decode did not throw", false);
}

std::vector<std::uint8_t> corpus_bytes(const std::string& name) {
  return load_hex_file(std::string(LHD_FIXTURES_DIR) + "/serve_corpus/" +
                       name);
}

std::string random_model_name(Rng& rng, std::size_t max_len = 8) {
  std::string name;
  const auto len = rng.next_below(max_len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    name.push_back(static_cast<char>('a' + rng.next_below(26)));
  }
  return name;
}

Request random_request(Rng& rng, std::size_t size) {
  Request req;
  req.tenant = static_cast<std::uint32_t>(rng.next_u64());
  switch (rng.next_below(4)) {
    case 0: {
      ScoreClip body;
      body.model = random_model_name(rng);
      body.window_nm = static_cast<std::int32_t>(rng.next_int(64, 4096));
      body.rects = random_rects(rng, rng.next_below(size + 1), 2048);
      req.body = std::move(body);
      break;
    }
    case 1: {
      ScanRegion body;
      body.model = random_model_name(rng);
      body.window_nm = static_cast<std::int32_t>(rng.next_int(64, 4096));
      body.stride_nm = static_cast<std::int32_t>(rng.next_int(32, 2048));
      body.rects = random_rects(rng, rng.next_below(size + 1), 4096);
      req.body = std::move(body);
      break;
    }
    case 2: {
      ReloadWeights body;
      body.model = random_model_name(rng);
      body.weights = random_bytes(rng, rng.next_below(4 * size + 1));
      req.body = std::move(body);
      break;
    }
    default:
      req.body = Stats{};
      break;
  }
  return req;
}

Response random_response(Rng& rng, std::size_t size) {
  Response resp;
  const auto op = static_cast<Op>(rng.next_below(kOpCount));
  switch (rng.next_below(3)) {
    case 0:  // Ok body for a random op
      switch (op) {
        case Op::ScoreClip:
          resp.body = ScoreResult{static_cast<float>(rng.next_double(-8, 8))};
          break;
        case Op::ScanRegion: {
          ScanResultWire body;
          body.windows_total = rng.next_u64() % 1000;
          body.cache_hits = rng.next_u64() % 1000;
          body.cache_misses = rng.next_u64() % 1000;
          const auto n = rng.next_below(size + 1);
          for (std::size_t i = 0; i < n; ++i) {
            ScanHitWire hit;
            hit.window = testkit::random_rect(rng, 1 << 20);
            hit.score = static_cast<float>(rng.next_double(-8, 8));
            body.hits.push_back(hit);
          }
          resp.body = std::move(body);
          break;
        }
        case Op::ReloadWeights:
          resp.body = ReloadResult{rng.next_u64() % 1000};
          break;
        case Op::Stats: {
          StatsResult body;
          body.json = "{\"n\":" + std::to_string(rng.next_below(100)) + "}";
          resp.body = std::move(body);
          break;
        }
      }
      break;
    case 1:
      resp.body = BusyResult{op};
      break;
    default:
      resp.body = ErrorResult{op, random_model_name(rng, 3 * size + 1)};
      break;
  }
  return resp;
}

/// Deterministic, thread-safe detector whose score depends only on the
/// clip's total rect area, shifted by a per-instance offset so tests can
/// tell weight "versions" apart.
class StubDetector final : public core::Detector {
 public:
  explicit StubDetector(float offset = 0.0f) : offset_(offset) {}

  std::string name() const override { return "stub"; }
  void train(const data::Dataset&) override {}
  float score(const data::Clip& clip) const override {
    double sum = 0.0;
    for (const auto& r : clip.rects) sum += static_cast<double>(r.area());
    return offset_ + static_cast<float>(sum / (1024.0 * 1024.0));
  }
  bool predict(const data::Clip& clip) const override {
    return score(clip) > threshold_;
  }
  void set_threshold(float threshold) override { threshold_ = threshold; }
  float threshold() const override { return threshold_; }

 private:
  float offset_ = 0.0f;
  float threshold_ = 0.0f;
};

/// Detector whose score() blocks until released — lets tests hold a
/// request in flight deterministically. (Raw std primitives are fine in
/// tests; the lint rule gates src/ only.)
class GateDetector final : public core::Detector {
 public:
  std::string name() const override { return "gate"; }
  void train(const data::Dataset&) override {}
  float score(const data::Clip& clip) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    return inner_.score(clip);
  }
  bool predict(const data::Clip& clip) const override {
    return score(clip) > 0.0f;
  }
  void set_threshold(float) override {}
  float threshold() const override { return 0.0f; }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Block until at least `n` score() calls are waiting at the gate.
  void wait_for_waiters(int n) const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return waiting_ >= n; });
  }

 private:
  StubDetector inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable int waiting_ = 0;
  bool open_ = false;
};

Request score_request(std::vector<Rect> rects, std::uint32_t tenant = 0,
                      std::int32_t window_nm = 1024) {
  Request req;
  req.tenant = tenant;
  ScoreClip body;
  body.window_nm = window_nm;
  body.rects = std::move(rects);
  req.body = std::move(body);
  return req;
}

// ------------------------------------------------- protocol round trips ---

TEST(ServeProtocol, RequestRoundTripsEveryOp) {
  std::vector<Request> requests;
  requests.push_back(score_request({{0, 0, 100, 200}}, 7));
  {
    Request req;
    req.tenant = 42;
    ScanRegion body;
    body.model = "cnn";
    body.window_nm = 2048;
    body.stride_nm = 512;
    body.rects = {{-100, -50, 300, 400}, {1000, 1000, 1200, 1300}};
    req.body = std::move(body);
    requests.push_back(std::move(req));
  }
  {
    Request req;
    ReloadWeights body;
    body.model = "m";
    body.weights = {0xDE, 0xAD, 0xBE, 0xEF};
    req.body = std::move(body);
    requests.push_back(std::move(req));
  }
  {
    Request req;
    req.tenant = 0xFFFFFFFFu;
    req.body = Stats{};
    requests.push_back(std::move(req));
  }

  for (const auto& req : requests) {
    auto in = byte_stream(encode_request_bytes(req));
    const auto decoded = decode_request(in);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, req) << "op " << static_cast<int>(request_op(req));
    // Exactly one frame consumed: the stream is now at clean EOF.
    EXPECT_FALSE(decode_request(in).has_value());
  }
}

TEST(ServeProtocol, ResponseRoundTripsEveryStatusAndOp) {
  std::vector<Response> responses;
  responses.push_back({ScoreResult{1.25f}});
  {
    ScanResultWire body;
    body.windows_total = 9;
    body.cache_hits = 4;
    body.cache_misses = 5;
    body.hits = {{{0, 0, 1024, 1024}, 2.5f}, {{512, 0, 1536, 1024}, -1.0f}};
    responses.push_back({std::move(body)});
  }
  responses.push_back({ReloadResult{3}});
  responses.push_back({StatsResult{"{\"a\":1}"}});
  for (std::uint8_t op = 0; op < kOpCount; ++op) {
    responses.push_back({BusyResult{static_cast<Op>(op)}});
    responses.push_back({ErrorResult{static_cast<Op>(op), "why not"}});
  }

  for (const auto& resp : responses) {
    auto in = byte_stream(encode_response_bytes(resp));
    EXPECT_EQ(decode_response(in), resp);
  }
}

TEST(ServeProtocol, ResponseStatusAndOpAccessors) {
  EXPECT_EQ(response_status(Response{ScoreResult{}}), Status::Ok);
  EXPECT_EQ(response_op(Response{ScoreResult{}}), Op::ScoreClip);
  EXPECT_EQ(response_status(Response{StatsResult{}}), Status::Ok);
  EXPECT_EQ(response_op(Response{StatsResult{}}), Op::Stats);
  const Response busy{BusyResult{Op::ScanRegion}};
  EXPECT_EQ(response_status(busy), Status::Busy);
  EXPECT_EQ(response_op(busy), Op::ScanRegion);
  const Response err{ErrorResult{Op::ReloadWeights, "no"}};
  EXPECT_EQ(response_status(err), Status::Error);
  EXPECT_EQ(response_op(err), Op::ReloadWeights);
}

TEST(ServeProtocol, RequestRoundTripProperty) {
  CHECK_PROPERTY("serve-request-round-trip", 64,
                 [](Rng& rng, std::size_t size) {
                   const Request req = random_request(rng, size);
                   auto in = byte_stream(encode_request_bytes(req));
                   const auto decoded = decode_request(in);
                   LHD_CHECK(decoded.has_value(),
                             "round trip lost the request");
                   LHD_CHECK(*decoded == req, "request round trip mismatch");
                 });
}

TEST(ServeProtocol, ResponseRoundTripProperty) {
  CHECK_PROPERTY("serve-response-round-trip", 64,
                 [](Rng& rng, std::size_t size) {
                   const Response resp = random_response(rng, size);
                   auto in = byte_stream(encode_response_bytes(resp));
                   LHD_CHECK(decode_response(in) == resp,
                             "response round trip mismatch");
                 });
}

// ------------------------------------------------- truncation hardening ---

TEST(ServeProtocol, RequestTruncatedAtEveryOffset) {
  Request req = score_request({{0, 0, 100, 200}, {300, 300, 512, 700}}, 7);
  std::get<ScoreClip>(req.body).model = "model-x";
  const auto bytes = encode_request_bytes(req);
  ASSERT_GT(bytes.size(), 20u);

  for_each_fail_point(bytes, [](std::istream& in, std::size_t fail_at) {
    if (fail_at == 0) {
      // Nothing readable at all is a clean goodbye, not an error.
      EXPECT_FALSE(decode_request(in).has_value()) << "fail_at=0";
      return;
    }
    try {
      (void)decode_request(in);
      ADD_FAILURE() << "no error at fail_at=" << fail_at;
    } catch (const WireError& e) {
      // Truncation never leaves the stream frame-synchronized.
      EXPECT_FALSE(e.recoverable()) << "fail_at=" << fail_at;
      EXPECT_LE(e.offset(), fail_at) << "fail_at=" << fail_at;
    }
  });
}

TEST(ServeProtocol, ResponseTruncatedAtEveryOffset) {
  ScanResultWire body;
  body.windows_total = 4;
  body.cache_misses = 4;
  body.hits = {{{0, 0, 1024, 1024}, 1.5f}};
  const auto bytes = encode_response_bytes(Response{std::move(body)});

  for_each_fail_point(bytes, [](std::istream& in, std::size_t fail_at) {
    EXPECT_THROW((void)decode_response(in), WireError)
        << "fail_at=" << fail_at;
  });
}

TEST(ServeProtocol, FaultyStreamNeverReadsPastFailPoint) {
  const auto bytes = encode_request_bytes(score_request({{0, 0, 64, 64}}));
  for (std::size_t fail_at = 1; fail_at < bytes.size(); ++fail_at) {
    FaultyIStream in(bytes, fail_at);
    EXPECT_THROW((void)decode_request(in), WireError);
    EXPECT_LE(in.bytes_served(), fail_at);
  }
}

// --------------------------------------------------------- seed corpus ----

// Every corpus file gets a regression test pinning the decoder's verdict
// (decoded value, or WireError recoverability + op attribution). The
// meta-test at the end keeps this list and the directory in sync.
constexpr const char* kCorpusFiles[] = {
    "bad_magic.hex",         "bad_op.hex",
    "bad_version.hex",       "name_overflow.hex",
    "oversize_payload.hex",  "rect_count_lie.hex",
    "trailing_garbage.hex",  "truncated_payload.hex",
    "valid_reload.hex",      "valid_scan_region.hex",
    "valid_score_clip.hex",  "valid_stats.hex",
    "weight_cap_lie.hex",
};

TEST(ServeCorpus, ValidScoreClip) {
  auto in = byte_stream(corpus_bytes("valid_score_clip.hex"));
  const auto req = decode_request(in);
  ASSERT_TRUE(req.has_value());
  Request expected = score_request({{0, 0, 100, 200}}, 7);
  std::get<ScoreClip>(expected.body).model = "m";
  EXPECT_EQ(*req, expected);
}

TEST(ServeCorpus, ValidScanRegion) {
  auto in = byte_stream(corpus_bytes("valid_scan_region.hex"));
  const auto req = decode_request(in);
  ASSERT_TRUE(req.has_value());
  ASSERT_EQ(request_op(*req), Op::ScanRegion);
  const auto& body = std::get<ScanRegion>(req->body);
  EXPECT_EQ(body.model, "m");
  EXPECT_EQ(body.window_nm, 1024);
  EXPECT_EQ(body.stride_nm, 512);
  EXPECT_EQ(body.rects.size(), 2u);
}

TEST(ServeCorpus, ValidReload) {
  auto in = byte_stream(corpus_bytes("valid_reload.hex"));
  const auto req = decode_request(in);
  ASSERT_TRUE(req.has_value());
  ASSERT_EQ(request_op(*req), Op::ReloadWeights);
  const auto& body = std::get<ReloadWeights>(req->body);
  EXPECT_EQ(body.model, "m");
  EXPECT_EQ(body.weights, (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(ServeCorpus, ValidStats) {
  auto in = byte_stream(corpus_bytes("valid_stats.hex"));
  const auto req = decode_request(in);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(request_op(*req), Op::Stats);
}

TEST(ServeCorpus, BadMagicUnrecoverableAtOffsetZero) {
  const auto e = expect_wire_error(corpus_bytes("bad_magic.hex"));
  EXPECT_FALSE(e.recoverable());
  EXPECT_EQ(e.offset(), 0u);
  EXPECT_FALSE(e.op().has_value());
}

TEST(ServeCorpus, BadVersionUnrecoverable) {
  const auto e = expect_wire_error(corpus_bytes("bad_version.hex"));
  EXPECT_FALSE(e.recoverable());
  EXPECT_EQ(e.offset(), 4u);
  EXPECT_FALSE(e.op().has_value());
}

TEST(ServeCorpus, BadOpUnrecoverable) {
  const auto e = expect_wire_error(corpus_bytes("bad_op.hex"));
  EXPECT_FALSE(e.recoverable());
  EXPECT_EQ(e.offset(), 12u);
  EXPECT_FALSE(e.op().has_value());
}

TEST(ServeCorpus, OversizePayloadRejectedBeforeAllocation) {
  const auto e = expect_wire_error(corpus_bytes("oversize_payload.hex"));
  EXPECT_FALSE(e.recoverable());
  EXPECT_NE(std::string(e.what()).find("payload"), std::string::npos);
}

TEST(ServeCorpus, TruncatedPayloadUnrecoverable) {
  const auto e = expect_wire_error(corpus_bytes("truncated_payload.hex"));
  EXPECT_FALSE(e.recoverable());
}

TEST(ServeCorpus, NameOverflowRecoverableWithOp) {
  const auto e = expect_wire_error(corpus_bytes("name_overflow.hex"));
  EXPECT_TRUE(e.recoverable());
  ASSERT_TRUE(e.op().has_value());
  EXPECT_EQ(*e.op(), Op::ScoreClip);
}

TEST(ServeCorpus, RectCountLieRecoverable) {
  const auto e = expect_wire_error(corpus_bytes("rect_count_lie.hex"));
  EXPECT_TRUE(e.recoverable());
  ASSERT_TRUE(e.op().has_value());
  EXPECT_EQ(*e.op(), Op::ScoreClip);
}

TEST(ServeCorpus, TrailingGarbageRecoverable) {
  const auto e = expect_wire_error(corpus_bytes("trailing_garbage.hex"));
  EXPECT_TRUE(e.recoverable());
  ASSERT_TRUE(e.op().has_value());
  EXPECT_EQ(*e.op(), Op::Stats);
}

TEST(ServeCorpus, WeightCapLieRecoverable) {
  const auto e = expect_wire_error(corpus_bytes("weight_cap_lie.hex"));
  EXPECT_TRUE(e.recoverable());
  ASSERT_TRUE(e.op().has_value());
  EXPECT_EQ(*e.op(), Op::ReloadWeights);
}

TEST(ServeCorpus, RecoverableErrorLeavesStreamFrameSynchronized) {
  // A bad payload inside an intact frame must consume exactly that frame:
  // the next frame on the same stream still decodes.
  auto bytes = corpus_bytes("name_overflow.hex");
  const auto next = corpus_bytes("valid_stats.hex");
  bytes.insert(bytes.end(), next.begin(), next.end());
  auto in = byte_stream(bytes);
  EXPECT_THROW((void)decode_request(in), WireError);
  const auto req = decode_request(in);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(request_op(*req), Op::Stats);
}

TEST(ServeCorpus, EveryCorpusFileHasARegressionTest) {
  std::set<std::string> on_disk;
  const std::string dir = std::string(LHD_FIXTURES_DIR) + "/serve_corpus";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    on_disk.insert(entry.path().filename().string());
  }
  const std::set<std::string> listed(std::begin(kCorpusFiles),
                                     std::end(kCorpusFiles));
  EXPECT_EQ(on_disk, listed)
      << "tests/fixtures/serve_corpus and kCorpusFiles disagree — every "
         "corpus file needs a regression test here";
}

// -------------------------------------------------------------- server ----

/// Detector whose score depends on where the geometry sits in the window
/// (like the CNN's DCT features), so a memo that shifted clips would
/// return a wrong score.
class PositionDetector final : public core::Detector {
 public:
  std::string name() const override { return "position"; }
  void train(const data::Dataset&) override {}
  float score(const data::Clip& clip) const override {
    double sum = 0.0;
    for (const auto& r : clip.rects) sum += r.xlo + 2.0 * r.ylo;
    return static_cast<float>(sum / clip.window_nm);
  }
  bool predict(const data::Clip& clip) const override {
    return score(clip) > 0.0f;
  }
  void set_threshold(float) override {}
  float threshold() const override { return 0.0f; }
};

float score_of(const Response& resp) {
  EXPECT_TRUE(std::holds_alternative<ScoreResult>(resp.body));
  return std::holds_alternative<ScoreResult>(resp.body)
             ? std::get<ScoreResult>(resp.body).score
             : 0.0f;
}

TEST(ServeServer, ScoreCachesCanonicalFormAcrossTenants) {
  // The cache key is the clip as sent, rect order aside: the same clip
  // from a second tenant (listed in another order) hits the cache, while a
  // translated copy misses and is scored on its own geometry.
  const auto detector = std::make_shared<PositionDetector>();
  Server server;
  server.add_model("default", detector);

  const std::vector<Rect> rects = {{10, 10, 110, 210}, {300, 40, 360, 90}};
  const float first = score_of(server.handle(score_request(rects, 1)));
  const std::vector<Rect> permuted(rects.rbegin(), rects.rend());
  const float second = score_of(server.handle(score_request(permuted, 2)));
  EXPECT_EQ(first, second);
  EXPECT_EQ(server.registry().counter("serve.tenant.1.cache_misses").value(),
            1u);
  EXPECT_EQ(server.registry().counter("serve.tenant.2.cache_hits").value(),
            1u);

  std::vector<Rect> moved = rects;
  for (auto& r : moved) r = r.shifted(500, 300);
  const float third = score_of(server.handle(score_request(moved, 2)));
  data::Clip want;
  want.rects = moved;
  want.window_nm = 1024;
  EXPECT_EQ(third, detector->score(want));
  EXPECT_NE(third, first);
  EXPECT_EQ(server.registry().counter("serve.tenant.2.cache_misses").value(),
            1u);
  EXPECT_EQ(server.registry().counter("serve.responses_ok").value(), 3u);
}

TEST(ServeServer, UnknownModelIsATypedError) {
  Server server;
  server.add_model("default", std::make_shared<StubDetector>());
  Request req = score_request({{0, 0, 10, 10}});
  std::get<ScoreClip>(req.body).model = "no-such-model";
  const auto resp = server.handle(req);
  ASSERT_TRUE(std::holds_alternative<ErrorResult>(resp.body));
  EXPECT_EQ(std::get<ErrorResult>(resp.body).op, Op::ScoreClip);
}

TEST(ServeServer, ScoreRejectsRectsOutsideWindow) {
  Server server;
  server.add_model("default", std::make_shared<StubDetector>());
  const auto resp = server.handle(score_request({{-5, 0, 10, 10}}));
  ASSERT_TRUE(std::holds_alternative<ErrorResult>(resp.body));
  const auto over = server.handle(score_request({{0, 0, 2048, 10}}, 0, 1024));
  ASSERT_TRUE(std::holds_alternative<ErrorResult>(over.body));
}

TEST(ServeServer, ScanMatchesDirectDedupScan) {
  const auto detector = std::make_shared<StubDetector>();
  std::vector<Rect> rects;
  for (int cx = 0; cx < 4; ++cx) {
    for (int cy = 0; cy < 3; ++cy) {
      rects.push_back({cx * 1024 + 100, cy * 1024 + 100, cx * 1024 + 400,
                       cy * 1024 + 900});
      rects.push_back({cx * 1024 + 600, cy * 1024 + 200, cx * 1024 + 900,
                       cy * 1024 + 800});
    }
  }

  Server server;
  server.add_model("default", detector);
  Request req;
  ScanRegion body;
  body.window_nm = 1024;
  body.stride_nm = 512;
  body.rects = rects;
  req.body = std::move(body);
  const auto resp = server.handle(req);
  ASSERT_TRUE(std::holds_alternative<ScanResultWire>(resp.body))
      << "scan failed: "
      << (std::holds_alternative<ErrorResult>(resp.body)
              ? std::get<ErrorResult>(resp.body).message
              : "");
  const auto& wire = std::get<ScanResultWire>(resp.body);

  core::ChipIndex chip(rects);
  core::ScanConfig config;
  config.window_nm = 1024;
  config.stride_nm = 512;
  config.threads = 1;
  config.dedup = true;
  const auto direct = core::scan_chip(chip, *detector, config);

  EXPECT_EQ(wire.windows_total, direct.windows_total);
  EXPECT_EQ(wire.cache_hits, direct.cache_hits);
  EXPECT_EQ(wire.cache_misses, direct.cache_misses);
  ASSERT_EQ(wire.hits.size(), direct.hits.size());
  for (std::size_t i = 0; i < wire.hits.size(); ++i) {
    EXPECT_EQ(wire.hits[i].window, direct.hits[i].window);
    EXPECT_EQ(wire.hits[i].score, direct.hits[i].score);
  }
}

TEST(ServeServer, ScanCapsRejectHostileRegions) {
  ServerConfig config;
  config.max_scan_windows = 16;
  Server server(config);
  server.add_model("default", std::make_shared<StubDetector>());

  const auto error_of = [&](ScanRegion body) {
    Request req;
    req.body = std::move(body);
    const auto resp = server.handle(req);
    EXPECT_TRUE(std::holds_alternative<ErrorResult>(resp.body));
    return std::holds_alternative<ErrorResult>(resp.body)
               ? std::get<ErrorResult>(resp.body).message
               : std::string();
  };

  // Two far-apart rects: the extent cap must fire before any spatial
  // index allocates a bucket grid over the whole span.
  ScanRegion extent_bomb;
  extent_bomb.rects = {{0, 0, 10, 10}, {2'000'000, 0, 2'000'010, 10}};
  EXPECT_NE(error_of(std::move(extent_bomb)).find("extent"),
            std::string::npos);

  // Coordinates beyond ±2^30 would overflow 32-bit extent math.
  ScanRegion coord_bomb;
  coord_bomb.rects = {{0, 0, (1 << 30) + 2, 10}};
  EXPECT_NE(error_of(std::move(coord_bomb)).find("2^30"), std::string::npos);

  // A dense but in-extent region over the window budget.
  ScanRegion window_bomb;
  window_bomb.stride_nm = 64;
  window_bomb.rects = {{0, 0, 8192, 8192}};
  EXPECT_NE(error_of(std::move(window_bomb)).find("window"),
            std::string::npos);

  // Degenerate stride.
  ScanRegion bad_stride;
  bad_stride.stride_nm = 0;
  bad_stride.rects = {{0, 0, 100, 100}};
  EXPECT_NE(error_of(std::move(bad_stride)).find("stride"),
            std::string::npos);
}

TEST(ServeServer, ScanRegionSpanningTheFullCoordRangeFindsBothEdges) {
  // Regression: two rects at x = -2^30 and x = 2^30 pass scan-region
  // validation (coordinates within ±2^30), but the spatial index did its
  // bucket math in 32 bits and lost the right-hand rect: the scan saw one
  // non-empty window instead of two.
  constexpr geom::Coord kEdge = geom::Coord{1} << 30;
  ServerConfig config;
  config.max_scan_extent_nm = std::int64_t{1} << 32;
  Server server(config);
  server.add_model("default", std::make_shared<StubDetector>());
  Request req;
  ScanRegion body;
  body.window_nm = 1024;
  body.stride_nm = kEdge - 64;  // windows at -2^30, -64 and 2^30 - 128
  body.rects = {{-kEdge, 0, -kEdge + 100, 100}, {kEdge - 100, 0, kEdge, 100}};
  req.body = std::move(body);
  const auto resp = server.handle(req);
  ASSERT_TRUE(std::holds_alternative<ScanResultWire>(resp.body))
      << std::get<ErrorResult>(resp.body).message;
  const auto& wire = std::get<ScanResultWire>(resp.body);
  EXPECT_EQ(wire.windows_total, 3u);
  ASSERT_EQ(wire.hits.size(), 2u);
  EXPECT_EQ(wire.hits[0].window.xlo, -kEdge);
  EXPECT_EQ(wire.hits[1].window.xlo, kEdge - 128);
  EXPECT_EQ(wire.hits[0].score, wire.hits[1].score);  // same area each
}

TEST(ServeServer, FullQueueAnswersTypedBusy) {
  const auto gate = std::make_shared<GateDetector>();
  ServerConfig config;
  config.score_workers = 1;
  config.max_queue = 1;
  Server server(config);
  server.add_model("default", gate);

  std::thread blocked([&] {
    const auto resp = server.handle(score_request({{0, 0, 64, 64}}, 1));
    EXPECT_TRUE(std::holds_alternative<ScoreResult>(resp.body));
  });
  gate->wait_for_waiters(1);

  // One request is in flight and the bound is 1: the next scoring request
  // must be rejected up front, typed and op-tagged — never queued.
  const auto busy = server.handle(score_request({{0, 0, 64, 64}}, 2));
  ASSERT_TRUE(std::holds_alternative<BusyResult>(busy.body));
  EXPECT_EQ(std::get<BusyResult>(busy.body).op, Op::ScoreClip);
  EXPECT_EQ(server.registry().counter("serve.responses_busy").value(), 1u);
  EXPECT_EQ(server.registry().counter("serve.tenant.2.busy").value(), 1u);

  // Control ops bypass admission: stats still answers while saturated.
  Request stats;
  stats.body = Stats{};
  EXPECT_TRUE(
      std::holds_alternative<StatsResult>(server.handle(stats).body));

  gate->open();
  blocked.join();
  // Capacity released: scoring admits again.
  const auto after = server.handle(score_request({{0, 0, 64, 64}}, 3));
  EXPECT_TRUE(std::holds_alternative<ScoreResult>(after.body));
}

TEST(ServeServer, ReloadMidTrafficFinishesInFlightOnOldSnapshot) {
  const auto gate = std::make_shared<GateDetector>();
  Server server;
  server.add_model("default", gate, [](const std::vector<std::uint8_t>& w) {
    LHD_CHECK(!w.empty(), "empty weight blob");
    return std::make_shared<StubDetector>(static_cast<float>(w[0]));
  });
  EXPECT_EQ(server.model_version("default"), 1u);

  std::optional<float> in_flight_score;
  std::thread blocked([&] {
    const auto resp = server.handle(score_request({{0, 0, 1024, 1024}}, 1));
    ASSERT_TRUE(std::holds_alternative<ScoreResult>(resp.body));
    in_flight_score = std::get<ScoreResult>(resp.body).score;
  });
  gate->wait_for_waiters(1);

  // Reload while the request above is still inside the old detector.
  Request reload;
  ReloadWeights body;
  body.weights = {42};
  reload.body = std::move(body);
  const auto resp = server.handle(reload);
  ASSERT_TRUE(std::holds_alternative<ReloadResult>(resp.body));
  EXPECT_EQ(std::get<ReloadResult>(resp.body).version, 2u);
  EXPECT_EQ(server.model_version("default"), 2u);

  gate->open();
  blocked.join();
  // The in-flight request finished on the old snapshot (gate scores with
  // offset 0), not the new offset-42 weights.
  ASSERT_TRUE(in_flight_score.has_value());
  EXPECT_EQ(*in_flight_score, 1.0f);

  // New traffic sees the new weights, through a fresh cache (a miss, not
  // a stale version-1 memo).
  const auto fresh = server.handle(score_request({{0, 0, 1024, 1024}}, 1));
  ASSERT_TRUE(std::holds_alternative<ScoreResult>(fresh.body));
  EXPECT_EQ(std::get<ScoreResult>(fresh.body).score, 43.0f);
  EXPECT_EQ(server.registry().counter("serve.tenant.1.cache_misses").value(),
            2u);
}

TEST(ServeServer, RejectedReloadLeavesModelServing) {
  Server server;
  server.add_model("default", std::make_shared<StubDetector>(),
                   [](const std::vector<std::uint8_t>& w)
                       -> std::shared_ptr<const core::Detector> {
                     LHD_CHECK(!w.empty() && w[0] != 0xFF, "corrupt blob");
                     return std::make_shared<StubDetector>(
                         static_cast<float>(w[0]));
                   });

  Request reload;
  ReloadWeights body;
  body.weights = {0xFF};
  reload.body = std::move(body);
  const auto resp = server.handle(reload);
  ASSERT_TRUE(std::holds_alternative<ErrorResult>(resp.body));
  EXPECT_EQ(std::get<ErrorResult>(resp.body).op, Op::ReloadWeights);
  EXPECT_EQ(server.model_version("default"), 1u);
  EXPECT_TRUE(std::holds_alternative<ScoreResult>(
      server.handle(score_request({{0, 0, 64, 64}})).body));
}

TEST(ServeServer, ReloadWithoutLoaderIsATypedError) {
  Server server;
  server.add_model("default", std::make_shared<StubDetector>());
  Request reload;
  ReloadWeights body;
  body.weights = {1};
  reload.body = std::move(body);
  const auto resp = server.handle(reload);
  ASSERT_TRUE(std::holds_alternative<ErrorResult>(resp.body));
  EXPECT_EQ(server.model_version("default"), 1u);
}

TEST(ServeServer, CnnWeightReloadIsBitExact) {
  // Two untrained CNNs with different init seeds = two weight versions.
  core::CnnDetectorConfig config_a;
  config_a.seed = 11;
  core::CnnDetectorConfig config_b;
  config_b.seed = 99;
  const auto det_a = std::make_shared<core::CnnDetector>("cnn", config_a);
  core::CnnDetector det_b("cnn", config_b);
  std::ostringstream blob;
  nn::save_weights(det_b.network(), blob);
  const std::string blob_str = blob.str();

  Server server;
  server.add_model("cnn", det_a, cnn_weight_loader("cnn", config_a));

  const auto rects = std::vector<Rect>{{100, 100, 400, 900},
                                       {600, 200, 900, 800}};
  // The server scores exactly the clip it was sent.
  data::Clip clip;
  clip.rects = rects;
  clip.window_nm = 1024;

  Request reload;
  ReloadWeights body;
  body.model = "cnn";
  body.weights.assign(blob_str.begin(), blob_str.end());
  reload.body = std::move(body);
  const auto resp = server.handle(reload);
  ASSERT_TRUE(std::holds_alternative<ReloadResult>(resp.body))
      << std::get<ErrorResult>(resp.body).message;

  const auto scored = server.handle(score_request(rects, 0, 1024));
  ASSERT_TRUE(std::holds_alternative<ScoreResult>(scored.body));
  EXPECT_EQ(std::get<ScoreResult>(scored.body).score, det_b.score(clip));
}

TEST(ServeServer, StatsJsonIsParseableAndCounts) {
  Server server;
  server.add_model("default", std::make_shared<StubDetector>());
  (void)server.handle(score_request({{0, 0, 100, 100}}, 5));
  (void)server.handle(score_request({{0, 0, 100, 100}}, 5));

  const auto json = obs::Json::parse(server.stats_json());
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.at("server").at("max_queue").as_int(), 32);
  const auto& model = json.at("models").at("default");
  EXPECT_EQ(model.at("version").as_int(), 1);
  EXPECT_EQ(model.at("cache").at("size").as_int(), 1);
  EXPECT_EQ(
      json.at("counters").at("serve.tenant.5.cache_hits").as_int(), 1);
  EXPECT_EQ(json.at("counters").at("serve.responses_ok").as_int(), 2);
  EXPECT_GE(
      json.at("histograms").at("serve.latency_seconds").at("count").as_int(),
      2);

  // The stats *op* carries the same document.
  Request stats;
  stats.body = Stats{};
  const auto resp = server.handle(stats);
  ASSERT_TRUE(std::holds_alternative<StatsResult>(resp.body));
  EXPECT_TRUE(
      obs::Json::parse(std::get<StatsResult>(resp.body).json).is_object());
}

TEST(ServeServer, HandleAfterStopIsATypedError) {
  Server server;
  server.add_model("default", std::make_shared<StubDetector>());
  server.stop();
  const auto resp = server.handle(score_request({{0, 0, 64, 64}}));
  ASSERT_TRUE(std::holds_alternative<ErrorResult>(resp.body));
  EXPECT_NE(std::get<ErrorResult>(resp.body).message.find("stopping"),
            std::string::npos);
}

// ---------------------------------------------------- transport + serve ---

TEST(ServeTransport, SocketpairRoundTrip) {
  auto [server_end, client_end] = socketpair_transport();
  Server server;
  server.add_model("default", std::make_shared<StubDetector>());
  server.attach(std::move(server_end));

  Client client(*client_end, /*tenant=*/7);
  const auto resp = client.score_clip("", 1024, {{0, 0, 100, 200}});
  ASSERT_TRUE(std::holds_alternative<ScoreResult>(resp.body));
  const auto stats = client.stats();
  ASSERT_TRUE(std::holds_alternative<StatsResult>(stats.body));
  server.stop();
}

TEST(ServeTransport, RecoverableWireErrorKeepsSessionAlive) {
  auto [server_end, client_end] = socketpair_transport();
  Server server;
  server.add_model("default", std::make_shared<StubDetector>());
  server.attach(std::move(server_end));

  // Inject a frame with a bad payload (name over the cap) raw onto the
  // wire: the session must answer a typed error and keep serving.
  const auto bad = corpus_bytes("name_overflow.hex");
  client_end->out().write(reinterpret_cast<const char*>(bad.data()),
                          static_cast<std::streamsize>(bad.size()));
  client_end->out().flush();
  const auto err = decode_response(client_end->in());
  ASSERT_TRUE(std::holds_alternative<ErrorResult>(err.body));
  EXPECT_EQ(std::get<ErrorResult>(err.body).op, Op::ScoreClip);

  Client client(*client_end);
  const auto resp = client.score_clip("", 1024, {{0, 0, 100, 200}});
  EXPECT_TRUE(std::holds_alternative<ScoreResult>(resp.body));
  server.stop();
}

TEST(ServeTransport, StopInterruptsIdleSessions) {
  auto [server_end, client_end] = socketpair_transport();
  Server server;
  server.add_model("default", std::make_shared<StubDetector>());
  server.attach(std::move(server_end));
  // No traffic: the session blocks in decode. stop() must interrupt it
  // and return rather than hang. (The test passing *is* the assertion.)
  server.stop();
}

TEST(ServeTransport, ConcurrentClientsWithReloadsAndStats) {
  ServerConfig config;
  config.score_workers = 2;
  config.max_queue = 4;  // small bound so Busy actually happens under load
  Server server(config);
  server.add_model("default", std::make_shared<StubDetector>(),
                   [](const std::vector<std::uint8_t>& w) {
                     LHD_CHECK(!w.empty(), "empty blob");
                     return std::make_shared<StubDetector>(
                         static_cast<float>(w[0]));
                   });

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> ok{0};
  std::atomic<int> busy{0};
  std::atomic<int> errors{0};

  std::vector<std::shared_ptr<Transport>> client_ends;
  for (int c = 0; c < kClients; ++c) {
    auto [server_end, client_end] = socketpair_transport();
    server.attach(std::move(server_end));
    client_ends.push_back(std::move(client_end));
  }

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(1000 + static_cast<std::uint64_t>(c));
      Client client(*client_ends[static_cast<std::size_t>(c)],
                    static_cast<std::uint32_t>(c));
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Response resp;
        switch (rng.next_below(3)) {
          case 0:
            resp = client.score_clip("", 1024,
                                     random_rects(rng, 1 + rng.next_below(4),
                                                  1024));
            break;
          case 1:
            resp = client.scan_region("", 1024, 512,
                                      random_rects(rng, 4, 4096));
            break;
          default:
            resp = client.stats();
            break;
        }
        switch (response_status(resp)) {
          case Status::Ok:
            ok.fetch_add(1);
            break;
          case Status::Busy:
            busy.fetch_add(1);
            break;
          case Status::Error:
            errors.fetch_add(1);
            break;
        }
      }
    });
  }
  // Reload concurrently with the traffic above: every response must still
  // be Ok or Busy — a reload must never fail an in-flight request.
  std::thread reloader([&] {
    for (std::uint8_t v = 1; v <= 5; ++v) {
      Request reload;
      ReloadWeights body;
      body.weights = {v};
      reload.body = std::move(body);
      const auto resp = server.handle(reload);
      EXPECT_TRUE(std::holds_alternative<ReloadResult>(resp.body));
    }
  });

  for (auto& t : threads) t.join();
  reloader.join();
  server.stop();

  EXPECT_EQ(ok.load() + busy.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(server.model_version("default"), 6u);
}

}  // namespace
}  // namespace lhd::serve
