// libFuzzer harness for the serve wire decoder and request handler (built
// with -DLHD_FUZZ=ON).
//
// Contract under fuzz: for ANY byte string, decode_request either decodes
// a frame or throws WireError — never crashes, never allocates past the
// protocol caps. A decoded request is then driven through a real Server
// (small DoS caps, stub detector) and its response re-encoded and
// re-decoded, so handler-side validation and the response coder fuzz for
// free. The stream is drained frame by frame, recovering across
// recoverable payload errors exactly like Server::serve does.
//
// Seed corpus: tests/fixtures/serve_corpus (one hex file per crash class;
// every file also has a regression test in tests/test_serve.cpp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "lhd/core/detector.hpp"
#include "lhd/serve/protocol.hpp"
#include "lhd/serve/server.hpp"
#include "lhd/util/check.hpp"

namespace {

// Trivial thread-safe detector: score = rect count (cheap, deterministic).
class CountDetector final : public lhd::core::Detector {
 public:
  std::string name() const override { return "count"; }
  void train(const lhd::data::Dataset&) override {}
  float score(const lhd::data::Clip& clip) const override {
    return static_cast<float>(clip.rects.size());
  }
  bool predict(const lhd::data::Clip& clip) const override {
    return score(clip) > 0.0f;
  }
  void set_threshold(float) override {}
  float threshold() const override { return 0.0f; }
};

lhd::serve::Server& shared_server() {
  // One server per process; tiny caps so hostile decoded requests cannot
  // make a single fuzz iteration expensive.
  static lhd::serve::Server* server = [] {
    lhd::serve::ServerConfig config;
    config.score_workers = 1;
    config.max_queue = 4;
    config.session_workers = 1;
    config.cache_capacity = 64;
    config.cache_shards = 2;
    config.max_scan_windows = 64;
    config.max_scan_extent_nm = 1 << 16;
    auto* s = new lhd::serve::Server(config);
    s->add_model("default", std::make_shared<CountDetector>(),
                 [](const std::vector<std::uint8_t>& w) {
                   LHD_CHECK(w.size() % 2 == 0, "odd blob rejected");
                   return std::make_shared<CountDetector>();
                 });
    return s;
  }();
  return *server;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  auto& server = shared_server();
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  // Drain the stream like a session loop: recoverable payload errors skip
  // one frame, anything else ends the session.
  for (;;) {
    try {
      const auto req = lhd::serve::decode_request(in);
      if (!req) break;  // clean EOF
      const auto resp = server.handle(*req);
      std::ostringstream out;
      lhd::serve::encode_response(resp, out);
      std::istringstream back(out.str());
      (void)lhd::serve::decode_response(back);
    } catch (const lhd::serve::WireError& e) {
      if (!e.recoverable()) break;
    } catch (const lhd::Error&) {
      break;  // encode-side cap (e.g. oversized stats payload): give up
    }
  }
  return 0;
}
