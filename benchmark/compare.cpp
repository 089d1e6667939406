// `lhd_bench compare`: two sets of runs (JSON arrays of run records, as
// run.sh writes them) judged against the end-to-end bounds of
// BENCHMARK.json.
//
// For every workload x end-to-end metric it prints both sides' median and
// quartiles, the share of seed-paired runs set B won, and a verdict:
//   unresolved  either side's quartile spread exceeds the bound, unless
//               every run of B is better than every run of A;
//   worse       B's median is worse than A's by more than the bound;
//   better      B won at least 9 in 10 of at least 10 seed-paired runs
//               and the medians differ by more than A's quartile spread;
//   same        otherwise.
// It then diffs the exact counts of runs with the same workload, seed and
// mode and prints every difference as "answer changed".
//
// Exit status: 0, or 1 when an answer changed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "bench.hpp"
#include "lhd/util/check.hpp"

namespace lhd::bench {

namespace {

obs::Json load(const std::string& path) {
  std::ifstream in(path);
  LHD_CHECK_MSG(in.good(), "cannot read " << path);
  std::stringstream text;
  text << in.rdbuf();
  return obs::Json::parse(text.str());
}

/// A gain needs at least this many seed-paired runs.
constexpr std::size_t kMinPairs = 10;

/// Runs of one workload in one mode, keyed by seed (first run wins).
using BySeed = std::map<std::uint64_t, const obs::Json*>;

std::map<std::string, BySeed> group(const obs::Json& set, bool trace) {
  LHD_CHECK(set.is_array(), "a set file holds a JSON array of runs");
  std::map<std::string, BySeed> out;
  for (const obs::Json& run : set.items()) {
    if (run.at("trace").as_bool() != trace) continue;
    out[run.at("workload").as_string()].emplace(
        static_cast<std::uint64_t>(run.at("seed").as_int()), &run);
  }
  return out;
}

struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  double spread() const { return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0; }
};

Summary summarize(const std::vector<double>& values) {
  return {quantile(values, 0.5), quantile(values, 0.25),
          quantile(values, 0.75)};
}

std::vector<double> values_of(const BySeed& runs, const std::string& metric) {
  std::vector<double> out;
  for (const auto& [seed, run] : runs) {
    const obs::Json& m = run->at("metrics").at(metric);
    if (!m.is_null()) out.push_back(m.at("value").as_double());
  }
  return out;
}

const char* verdict(const std::vector<double>& a, const std::vector<double>& b,
                    const Summary& sa, const Summary& sb, bool lower_better,
                    double bound, std::size_t pairs, double won) {
  const auto better = [&](double x, double y) {
    return lower_better ? x < y : x > y;
  };
  const bool all_better =
      lower_better ? *std::max_element(b.begin(), b.end()) <
                         *std::min_element(a.begin(), a.end())
                   : *std::min_element(b.begin(), b.end()) >
                         *std::max_element(a.begin(), a.end());
  if (std::max(sa.spread(), sb.spread()) > bound) {
    return all_better ? "better" : "unresolved";
  }
  const double change = (sb.median - sa.median) / std::fabs(sa.median);
  const double worsening = lower_better ? change : -change;
  if (worsening > bound) return "worse";
  if (pairs >= kMinPairs && won >= 0.9 && better(sb.median, sa.median) &&
      std::fabs(sb.median - sa.median) > sa.q3 - sa.q1) {
    return "better";
  }
  return "same";
}

}  // namespace

int compare_sets(const std::string& set_a, const std::string& set_b,
                 const std::string& benchmark_json) {
  const obs::Json a_set = load(set_a);
  const obs::Json b_set = load(set_b);
  const obs::Json benchmark = load(benchmark_json);

  std::printf("%-20s %-18s %26s %26s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "change", "won",
              "verdict");
  {
    const auto a = group(a_set, false);
    const auto b = group(b_set, false);
    for (const auto& [workload, a_runs] : a) {
      const auto it = b.find(workload);
      if (it == b.end()) continue;
      const BySeed& b_runs = it->second;
      for (const obs::Json& def : benchmark.at("end_to_end").items()) {
        const std::string metric = def.at("name").as_string();
        const bool lower = def.at("better").as_string() == "lower";
        const double bound = def.at("bound").as_double();
        const std::vector<double> av = values_of(a_runs, metric);
        const std::vector<double> bv = values_of(b_runs, metric);
        if (av.empty() || bv.empty()) continue;
        std::size_t pairs = 0, wins = 0;
        for (const auto& [seed, run] : a_runs) {
          const auto other = b_runs.find(seed);
          if (other == b_runs.end()) continue;
          const double x = run->at("metrics").at(metric).at("value").as_double();
          const double y =
              other->second->at("metrics").at(metric).at("value").as_double();
          ++pairs;
          wins += lower ? y < x : y > x;
        }
        const double won =
            pairs > 0 ? static_cast<double>(wins) / static_cast<double>(pairs)
                      : 0.0;
        const Summary sa = summarize(av);
        const Summary sb = summarize(bv);
        char a_text[64], b_text[64];
        std::snprintf(a_text, sizeof a_text, "%.4g [%.4g, %.4g]", sa.median,
                      sa.q1, sa.q3);
        std::snprintf(b_text, sizeof b_text, "%.4g [%.4g, %.4g]", sb.median,
                      sb.q1, sb.q3);
        std::printf("%-20s %-18s %26s %26s %+7.1f%% %5.0f%%  %s\n",
                    workload.c_str(), metric.c_str(), a_text, b_text,
                    100.0 * (sb.median - sa.median) / std::fabs(sa.median),
                    100.0 * won, verdict(av, bv, sa, sb, lower, bound, pairs, won));
      }
    }
  }

  // Exact answers: a changed count means a changed result, whatever the
  // timing says.
  int changed = 0;
  for (const bool trace : {false, true}) {
    const auto a = group(a_set, trace);
    const auto b = group(b_set, trace);
    for (const auto& [workload, a_runs] : a) {
      const auto it = b.find(workload);
      if (it == b.end()) continue;
      for (const auto& [seed, run] : a_runs) {
        const auto other = it->second.find(seed);
        if (other == it->second.end()) continue;
        const obs::Json& ca = run->at("counts");
        const obs::Json& cb = other->second->at("counts");
        std::map<std::string, int> keys;
        for (const auto& [key, value] : ca.members()) keys[key] = 0;
        for (const auto& [key, value] : cb.members()) keys[key] = 0;
        for (const auto& [key, unused] : keys) {
          if (ca.at(key) == cb.at(key)) continue;
          ++changed;
          std::printf("answer changed: %s seed %llu%s %s: %s -> %s\n",
                      workload.c_str(), static_cast<unsigned long long>(seed),
                      trace ? " (traced)" : "", key.c_str(),
                      ca.at(key).dump(0).c_str(), cb.at(key).dump(0).c_str());
        }
      }
    }
  }
  if (changed == 0) std::printf("answers: no exact count changed\n");
  return changed == 0 ? 0 : 1;
}

}  // namespace lhd::bench
