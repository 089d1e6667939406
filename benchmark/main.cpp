// lhd_bench: the end-to-end benchmark program (see benchmark/README.md).
//
//   lhd_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--record <set.json>]
//       Runs one workload in this process. Prints `workload metric value
//       unit` per metric, then, as the last line, one JSON object with
//       correct / attempted / failed / metrics. --record appends the full
//       run record (counts and supporting numbers included) to a set file.
//   lhd_bench --list
//       Prints the workload names, one per line.
//   lhd_bench compare <setA.json> <setB.json> [--benchmark <path>]
//       Compares two sets with the bounds of BENCHMARK.json.
//
// Flags take `--name value` or `--name=value`.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "lhd/util/log.hpp"

namespace lhd::bench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"scan_unique", run_scan_unique},
      {"scan_periodic_flat", run_scan_periodic_flat},
      {"scan_periodic_hier", run_scan_periodic_hier},
      {"serve_hot", run_serve_hot},
      {"serve_cold", run_serve_cold},
      {"train", run_train},
  };
  return all;
}

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool has(const std::string& name) const { return flags.count(name) > 0; }
  std::string get(const std::string& name, const std::string& def) const {
    const auto it = flags.find(name);
    return it == flags.end() ? def : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      args.flags[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.flags[body] = argv[++i];
    } else {
      args.flags[body] = "1";
    }
  }
  return args;
}

obs::Json metrics_json(const RunResult& result) {
  obs::Json metrics = obs::Json::object();
  for (const Metric& m : result.metrics) {
    obs::Json entry = obs::Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = std::move(entry);
  }
  return metrics;
}

/// Appends the run to a set file: a JSON array of run records.
void append_record(const std::string& path, const Options& opt,
                   const RunResult& result) {
  obs::Json set = obs::Json::array();
  if (std::filesystem::exists(path)) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    set = obs::Json::parse(text.str());
  }
  obs::Json run = obs::Json::object();
  run["workload"] = opt.workload;
  run["seed"] = static_cast<unsigned long long>(opt.seed);
  run["seconds"] = opt.seconds;
  run["trace"] = opt.trace;
  run["smoke"] = opt.smoke;
  run["correct"] = result.correct;
  run["attempted"] = static_cast<unsigned long long>(result.attempted);
  run["failed"] = static_cast<unsigned long long>(result.failed);
  obs::Json errors = obs::Json::array();
  for (const std::string& e : result.errors) errors.push_back(e);
  run["errors"] = std::move(errors);
  run["metrics"] = metrics_json(result);
  run["counts"] = result.counts;
  run["info"] = result.info;
  set.push_back(std::move(run));
  std::ofstream out(path);
  out << set.dump(1) << "\n";
  LHD_CHECK_MSG(out.good(), "cannot write set file " << path);
}

int run_workload(const Args& args) {
  Options opt;
  opt.workload = args.get("workload", "");
  opt.seed = std::stoull(args.get("seed", "1"));
  opt.seconds = std::stod(args.get("seconds", "10"));
  opt.trace = args.get("trace", "0") != "0";
  opt.smoke = args.get("smoke", "0") != "0";
  LHD_CHECK_MSG(opt.seconds > 0, "--seconds must be positive");
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (opt.workload == w.name) workload = &w;
  }
  LHD_CHECK_MSG(workload != nullptr, "unknown workload '" << opt.workload
                                                          << "' (see --list)");
  const RunResult result = workload->run(opt);

  for (const std::string& e : result.errors) {
    std::cerr << opt.workload << " seed " << opt.seed << ": " << e << "\n";
  }
  for (const Metric& m : result.metrics) {
    std::cout << opt.workload << " " << m.name << " " << m.value << " "
              << m.unit << "\n";
  }
  if (args.has("record")) append_record(args.get("record", ""), opt, result);
  obs::Json line = obs::Json::object();
  line["correct"] = result.correct;
  line["attempted"] = static_cast<unsigned long long>(result.attempted);
  line["failed"] = static_cast<unsigned long long>(result.failed);
  line["metrics"] = metrics_json(result);
  std::cout << line.dump(0) << std::endl;
  return 0;
}

}  // namespace

}  // namespace lhd::bench

int main(int argc, char** argv) {
  using namespace lhd::bench;
  lhd::set_log_level(lhd::LogLevel::Warn);
  try {
    const Args args = parse_args(argc, argv);
    if (args.has("list")) {
      for (const Workload& w : workloads()) std::cout << w.name << "\n";
      return 0;
    }
    if (!args.positional.empty() && args.positional[0] == "compare") {
      if (args.positional.size() != 3) {
        std::cerr << "usage: lhd_bench compare <setA.json> <setB.json> "
                     "[--benchmark BENCHMARK.json]\n";
        return 2;
      }
      return compare_sets(args.positional[1], args.positional[2],
                          args.get("benchmark", "BENCHMARK.json"));
    }
    if (!args.has("workload") || !args.positional.empty()) {
      std::cerr << "usage: lhd_bench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> (see benchmark/README.md)\n";
      return 2;
    }
    return run_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "lhd_bench: " << e.what() << "\n";
    return 1;
  }
}
