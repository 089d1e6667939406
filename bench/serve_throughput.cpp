// Serve-layer throughput: requests/second through the lhd::serve daemon,
// isolating the serving overhead (wire coding, admission control, score
// caching, per-tenant accounting) from model cost — the detector is a
// deliberately trivial geometry hash, so every microsecond measured is
// the serve stack's.
//
// Three cells, each one RunReport phase in BENCH_serve_throughput.json:
//   handle_score  in-process Server::handle() on one thread (no wire) —
//                 the admission + cache + dispatch floor;
//   wire_score    --clients concurrent blocking clients over socketpair
//                 transports, distinct patterns per client (cache misses
//                 + hits mixed), Busy answers counted not retried;
//   wire_scan     the scan-region op over the wire, small dense regions.
//
// The server's full stats document (the stats op payload) is embedded in
// the report under "server_stats", so cache hit rates and per-tenant
// tallies land next to the timing numbers.
//
// Flags: --requests=4000 --clients=4 --workers=2 --queue=64
// --report=<path> (default BENCH_serve_throughput.json, empty disables)

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"
#include "lhd/core/detector.hpp"
#include "lhd/serve/client.hpp"
#include "lhd/serve/server.hpp"
#include "lhd/serve/transport.hpp"

namespace {

using namespace lhd;

/// Thread-safe stand-in detector: score = total rect area, at essentially
/// zero cost, so the bench measures serving, not scoring.
class AreaDetector final : public core::Detector {
 public:
  std::string name() const override { return "area"; }
  void train(const data::Dataset&) override {}
  float score(const data::Clip& clip) const override {
    double sum = 0.0;
    for (const auto& r : clip.rects) sum += static_cast<double>(r.area());
    return static_cast<float>(sum / (1024.0 * 1024.0));
  }
  bool predict(const data::Clip& clip) const override {
    return score(clip) > threshold_;
  }
  void set_threshold(float threshold) override { threshold_ = threshold; }
  float threshold() const override { return threshold_; }

 private:
  float threshold_ = 0.0f;
};

/// A small per-request clip; `variant` cycles a few distinct clips so the
/// score cache sees a realistic hit/miss mix.
std::vector<geom::Rect> clip_for(int variant) {
  const geom::Coord w = 100 + 37 * (variant % 8);
  return {{0, 0, w, 200}, {500, 300, 500 + w, 700}};
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::bench_init(cli);
  const int requests = static_cast<int>(cli.get_int("requests", 4000));
  const int clients = static_cast<int>(cli.get_int("clients", 4));

  serve::ServerConfig config;
  config.score_workers = static_cast<std::size_t>(cli.get_int("workers", 2));
  config.max_queue = static_cast<std::size_t>(cli.get_int("queue", 64));
  serve::Server server(config);
  server.add_model("default", std::make_shared<AreaDetector>());

  obs::RunReport report("serve_throughput", "");
  report.set_config("requests", requests);
  report.set_config("clients", clients);
  report.set_config("score_workers",
                    static_cast<long long>(config.score_workers));
  report.set_config("max_queue", static_cast<long long>(config.max_queue));

  Table table("serve throughput");
  table.set_header({"cell", "requests", "ok", "busy", "seconds", "req_per_s"});
  const auto record = [&](const std::string& name, int total, long long ok,
                          long long busy, double seconds) {
    obs::Json extra = obs::Json::object();
    extra["requests"] = total;
    extra["ok"] = ok;
    extra["busy"] = busy;
    extra["req_per_s"] =
        seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
    report.add_phase(name, seconds, std::move(extra));
    table.add_row({name, Table::cell(static_cast<long long>(total)),
                   Table::cell(ok), Table::cell(busy),
                   Table::cell(seconds, 3),
                   Table::cell(seconds > 0
                                   ? static_cast<double>(total) / seconds
                                   : 0.0,
                               0)});
  };

  // --- in-process handle() floor -------------------------------------------
  {
    long long ok = 0;
    Stopwatch sw;
    for (int i = 0; i < requests; ++i) {
      serve::Request req;
      serve::ScoreClip body;
      body.rects = clip_for(i);
      req.body = std::move(body);
      if (serve::response_status(server.handle(req)) == serve::Status::Ok) {
        ++ok;
      }
    }
    record("handle_score", requests, ok, 0, sw.seconds());
  }

  // --- concurrent clients over socketpair wires ----------------------------
  const auto wire_cell = [&](const std::string& name, bool scan) {
    std::vector<std::shared_ptr<serve::Transport>> ends;
    for (int c = 0; c < clients; ++c) {
      auto [server_end, client_end] = serve::socketpair_transport();
      server.attach(std::move(server_end));
      ends.push_back(std::move(client_end));
    }
    const int per_client = requests / std::max(clients, 1);
    std::atomic<long long> ok{0};
    std::atomic<long long> busy{0};
    Stopwatch sw;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::Client client(*ends[static_cast<std::size_t>(c)],
                             static_cast<std::uint32_t>(c));
        for (int i = 0; i < per_client; ++i) {
          const auto resp =
              scan ? client.scan_region("", 1024, 512,
                                        {{0, 0, 2048, 2048},
                                         {2048, 0, 4096, 1024}})
                   : client.score_clip("", 1024, clip_for(c * 131 + i));
          switch (serve::response_status(resp)) {
            case serve::Status::Ok:
              ok.fetch_add(1);
              break;
            case serve::Status::Busy:
              busy.fetch_add(1);
              break;
            case serve::Status::Error:
              break;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    record(name, per_client * clients, ok.load(), busy.load(), sw.seconds());
  };
  wire_cell("wire_score", /*scan=*/false);
  wire_cell("wire_scan", /*scan=*/true);

  report.root()["server_stats"] = obs::Json::parse(server.stats_json());
  server.stop();

  bench::print_table(table);
  bench::write_report(report, cli, "serve_throughput");
  return 0;
}
