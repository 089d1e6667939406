#include "lhd/lint/rules.hpp"

#include <algorithm>
#include <array>
#include <sstream>

namespace lhd::lint {

namespace {

// ---------------------------------------------------------------- helpers --

/// Non-comment tokens, in order — what the compiler would see.
std::vector<const Token*> code_tokens(const FileContext& f) {
  std::vector<const Token*> out;
  out.reserve(f.tokens.size());
  for (const Token& t : f.tokens) {
    if (t.kind != TokKind::Comment) out.push_back(&t);
  }
  return out;
}

bool is_ident(const Token* t, std::string_view text) {
  return t->kind == TokKind::Identifier && t->text == text;
}

bool is_punct(const Token* t, std::string_view text) {
  return t->kind == TokKind::Punct && t->text == text;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool contains_ident(const FileContext& f, std::string_view name) {
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::Identifier && t.text == name) return true;
  }
  return false;
}

void report(std::vector<Finding>& out, const Rule& rule, const FileContext& f,
            int line, std::string message) {
  out.push_back(Finding{rule.id(), f.path, line, std::move(message)});
}

/// Module ranks mirroring the dependency order declared in
/// src/CMakeLists.txt: util <- obs <- geom <- gds <- litho <- data <-
/// synth <- feature <- {ml, nn} <- core <- serve <- {testkit, lint}
/// (the last two are tool/test-only peers and must not include each
/// other). An include is legal only when it points at a strictly lower
/// rank or stays inside the module.
const std::map<std::string, int>& module_ranks() {
  static const std::map<std::string, int> ranks = {
      {"util", 0}, {"obs", 1},     {"geom", 2},    {"gds", 3},
      {"litho", 4}, {"data", 5},   {"synth", 6},   {"feature", 7},
      {"ml", 8},   {"nn", 8},      {"core", 9},    {"serve", 10},
      {"testkit", 11}, {"lint", 11},
  };
  return ranks;
}

// -------------------------------------------------- R1: mutex-guards ------

/// Port of check_lint.sh rule 1a, token-accurate: a public core/obs/util
/// header that declares a mutex member must annotate at least one piece
/// of state with LHD_GUARDED_BY. A mutex protecting nothing *declared*
/// protects nothing *checked* by Clang's Thread Safety Analysis.
class MutexGuardsRule final : public Rule {
 public:
  const char* id() const override { return "mutex-guards"; }
  const char* description() const override {
    return "a core/obs/util header declaring a mutex member must have "
           "LHD_GUARDED_BY-annotated state";
  }

  void check(const RepoContext& repo, std::vector<Finding>& out) const override {
    for (const FileContext& f : repo.files) {
      if (!f.is_header) continue;
      if (!starts_with(f.path, "src/lhd/core/") &&
          !starts_with(f.path, "src/lhd/obs/") &&
          !starts_with(f.path, "src/lhd/util/")) {
        continue;
      }
      if (f.path == "src/lhd/util/thread_annotations.hpp") continue;
      const auto toks = code_tokens(f);
      const bool annotated = contains_ident(f, "LHD_GUARDED_BY");
      for (std::size_t i = 0; i < toks.size(); ++i) {
        const int decl_line = toks[i]->line;
        std::size_t j = i;
        if (is_ident(toks[j], "mutable")) ++j;
        if (!match_mutex_type(toks, j)) continue;
        // Member name, then optional LHD_* attribute macro with its
        // argument list (e.g. LHD_ACQUIRED_BEFORE(other_)), then ';'.
        if (j >= toks.size() || toks[j]->kind != TokKind::Identifier) continue;
        ++j;
        if (j < toks.size() && toks[j]->kind == TokKind::Identifier &&
            starts_with(toks[j]->text, "LHD_")) {
          ++j;
          j = skip_paren_group(toks, j);
        }
        if (j >= toks.size() || !is_punct(toks[j], ";")) continue;
        if (!annotated) {
          report(out, *this, f, decl_line,
                 "mutex member declared but the header has no "
                 "LHD_GUARDED_BY state — annotate what this mutex protects");
        }
        i = j;  // past the ';' — `lhd::Mutex m_;` must not re-match at `Mutex`
      }
    }
  }

 private:
  /// Advance j past `lhd::Mutex`, `Mutex`, or `std::*mutex`; false if the
  /// tokens at j are not a mutex type.
  static bool match_mutex_type(const std::vector<const Token*>& t,
                               std::size_t& j) {
    if (j < t.size() && is_ident(t[j], "lhd") && j + 1 < t.size() &&
        is_punct(t[j + 1], "::")) {
      j += 2;
    } else if (j < t.size() && is_ident(t[j], "std") && j + 1 < t.size() &&
               is_punct(t[j + 1], "::")) {
      j += 2;
      static constexpr std::array<std::string_view, 4> kStd = {
          "mutex", "recursive_mutex", "shared_mutex", "timed_mutex"};
      if (j < t.size() && t[j]->kind == TokKind::Identifier &&
          std::find(kStd.begin(), kStd.end(), t[j]->text) != kStd.end()) {
        ++j;
        return true;
      }
      return false;
    }
    if (j < t.size() && is_ident(t[j], "Mutex")) {
      ++j;
      return true;
    }
    return false;
  }

  static std::size_t skip_paren_group(const std::vector<const Token*>& t,
                                      std::size_t j) {
    if (j >= t.size() || !is_punct(t[j], "(")) return j;
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (is_punct(t[j], "(")) ++depth;
      if (is_punct(t[j], ")") && --depth == 0) return j + 1;
    }
    return j;
  }
};

// -------------------------------------------- R2: raw-sync-primitive ------

/// Port of check_lint.sh rule 1b, token-accurate: raw std synchronization
/// primitives are banned in src/lhd/ outside the annotated shim — locking
/// the analysis cannot see silently reopens the hole the shim closed.
class RawSyncPrimitiveRule final : public Rule {
 public:
  const char* id() const override { return "raw-sync-primitive"; }
  const char* description() const override {
    return "raw std sync primitives are banned in src/ — use "
           "lhd::Mutex/MutexLock/CondVar (util/thread_annotations.hpp)";
  }

  void check(const RepoContext& repo, std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 11> kBanned = {
        "mutex",          "recursive_mutex",
        "shared_mutex",   "timed_mutex",
        "recursive_timed_mutex",
        "lock_guard",     "unique_lock",
        "scoped_lock",    "shared_lock",
        "condition_variable", "condition_variable_any"};
    for (const FileContext& f : repo.files) {
      if (!starts_with(f.path, "src/lhd/")) continue;
      if (f.path == "src/lhd/util/thread_annotations.hpp") continue;
      const auto toks = code_tokens(f);
      for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (is_ident(toks[i], "std") && is_punct(toks[i + 1], "::") &&
            toks[i + 2]->kind == TokKind::Identifier &&
            std::find(kBanned.begin(), kBanned.end(), toks[i + 2]->text) !=
                kBanned.end()) {
          report(out, *this, f, toks[i]->line,
                 "raw std::" + toks[i + 2]->text +
                     " — use the annotated lhd shim from "
                     "util/thread_annotations.hpp");
        }
      }
    }
  }
};

// ------------------------------------------------------ R3: layering ------

/// Includes between src/lhd modules must follow the dependency DAG
/// downward. An upward (or sideways) include is how "util grows a core
/// dependency" starts; the build may even still link, because static
/// libraries hide cycles until they bite.
class LayeringRule final : public Rule {
 public:
  const char* id() const override { return "layering"; }
  const char* description() const override {
    return "module includes must follow the src/CMakeLists.txt dependency "
           "order downward (no upward or cross-peer includes)";
  }

  void check(const RepoContext& repo, std::vector<Finding>& out) const override {
    const auto& ranks = module_ranks();
    for (const FileContext& f : repo.files) {
      if (f.module.empty()) continue;
      const auto src_rank = ranks.find(f.module);
      if (src_rank == ranks.end()) continue;
      for (const Token& t : f.tokens) {
        if (t.kind != TokKind::HeaderName) continue;
        if (!starts_with(t.text, "\"lhd/")) continue;
        const std::string_view rest = std::string_view(t.text).substr(5);
        const std::size_t slash = rest.find('/');
        if (slash == std::string_view::npos) continue;
        const std::string dest(rest.substr(0, slash));
        const auto dest_rank = ranks.find(dest);
        if (dest_rank == ranks.end()) continue;  // unknown module: not ours
        if (dest == f.module) continue;
        if (dest_rank->second > src_rank->second ||
            dest_rank->second == src_rank->second) {
          std::ostringstream msg;
          msg << "'" << f.module << "' must not include '" << dest
              << "' (dependency order is util <- obs <- geom <- gds <- "
                 "litho <- data <- synth <- feature <- {ml,nn} <- core <- "
                 "serve <- {testkit,lint})";
          report(out, *this, f, t.line, msg.str());
        }
      }
    }
  }
};

// --------------------------------------------------- R4: determinism ------

/// The bit-identical-scan contract (serial == parallel == dedup ==
/// hierarchical, PRs 1/5/6) only holds if nothing on a scan-result path
/// consumes entropy or the wall clock. Seeded lhd::Rng is fine — it is
/// deterministic by construction; time belongs to util/obs instruments
/// (Stopwatch, ScopedTimer), whose readings feed reports, never results.
class DeterminismRule final : public Rule {
 public:
  const char* id() const override { return "determinism"; }
  const char* description() const override {
    return "no entropy or wall-clock sources in result-bearing modules "
           "(core/gds/geom/data/feature/ml/nn) — use seeded lhd::Rng "
           "and the obs timers";
  }

  void check(const RepoContext& repo, std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 7> kModules = {
        "core", "gds", "geom", "data", "feature", "ml", "nn"};
    // Referencing any of these at all is a finding.
    static constexpr std::array<std::string_view, 13> kBannedIdents = {
        "rand",     "srand",   "rand_r",  "drand48",       "erand48",
        "lrand48",  "mrand48", "random_device", "random_shuffle",
        "system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday"};
    // These are everyday words, so only a *call* is a finding.
    static constexpr std::array<std::string_view, 3> kBannedCalls = {
        "time", "clock", "clock_gettime"};
    for (const FileContext& f : repo.files) {
      if (std::find(kModules.begin(), kModules.end(), f.module) ==
          kModules.end()) {
        continue;
      }
      const auto toks = code_tokens(f);
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i]->kind != TokKind::Identifier) continue;
        // Member access (x.time(), p->clock()) is the object's own API,
        // not libc; qualified ::time / std::time stays banned.
        const bool member =
            i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
        if (member) continue;
        const std::string& name = toks[i]->text;
        const bool banned_ident =
            std::find(kBannedIdents.begin(), kBannedIdents.end(), name) !=
            kBannedIdents.end();
        const bool banned_call =
            std::find(kBannedCalls.begin(), kBannedCalls.end(), name) !=
                kBannedCalls.end() &&
            i + 1 < toks.size() && is_punct(toks[i + 1], "(");
        if (banned_ident || banned_call) {
          report(out, *this, f, toks[i]->line,
                 "'" + name +
                     "' is a nondeterminism source — module '" + f.module +
                     "' is under the bit-identical-scan contract (seeded "
                     "lhd::Rng / obs timers are the sanctioned paths)");
        }
      }
    }
  }
};

// ------------------------------------------------ R5: decoder-bounds ------

/// In the attacker-facing binary decoders every allocation driven by a
/// stream-supplied size must go through lhd::bounded_reserve /
/// lhd::bounded_resize (util/bounded.hpp), which force the caller to name
/// the cap. A raw member reserve()/resize() is exactly how "trust the
/// length field" regressions come back.
class DecoderBoundsRule final : public Rule {
 public:
  const char* id() const override { return "decoder-bounds"; }
  const char* description() const override {
    return "decoder files must reserve/resize through lhd::bounded_reserve/"
           "bounded_resize, never raw member calls";
  }

  void check(const RepoContext& repo, std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 4> kDecoders = {
        "src/lhd/gds/reader.cpp", "src/lhd/nn/serialize.cpp",
        "src/lhd/data/io.cpp", "src/lhd/serve/protocol.cpp"};
    for (const FileContext& f : repo.files) {
      if (std::find(kDecoders.begin(), kDecoders.end(), f.path) ==
          kDecoders.end()) {
        continue;
      }
      const auto toks = code_tokens(f);
      for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if ((is_punct(toks[i], ".") || is_punct(toks[i], "->")) &&
            (is_ident(toks[i + 1], "reserve") ||
             is_ident(toks[i + 1], "resize")) &&
            is_punct(toks[i + 2], "(")) {
          report(out, *this, f, toks[i + 1]->line,
                 "raw ." + toks[i + 1]->text +
                     "() in a decoder — route it through lhd::bounded_" +
                     toks[i + 1]->text + " (util/bounded.hpp) with an "
                     "explicit cap");
        }
      }
    }
  }
};

// ----------------------------------------------- R6: header-hygiene ------

/// Two hygiene invariants: every header carries `#pragma once` (double
/// inclusion elsewhere shows up as baffling redefinition walls), and
/// std::thread/std::jthread never appear outside util/thread_pool —
/// threads spawned behind the pool's back dodge its shutdown join, its
/// sizing, and the TSan suppression story.
class HeaderHygieneRule final : public Rule {
 public:
  const char* id() const override { return "header-hygiene"; }
  const char* description() const override {
    return "#pragma once in every header; std::thread only inside "
           "util/thread_pool";
  }

  void check(const RepoContext& repo, std::vector<Finding>& out) const override {
    for (const FileContext& f : repo.files) {
      const auto toks = code_tokens(f);
      if (f.is_header && !has_pragma_once(toks)) {
        report(out, *this, f, 1,
               "header lacks #pragma once");
      }
      if (f.path == "src/lhd/util/thread_pool.hpp" ||
          f.path == "src/lhd/util/thread_pool.cpp") {
        continue;
      }
      for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (is_ident(toks[i], "std") && is_punct(toks[i + 1], "::") &&
            (is_ident(toks[i + 2], "thread") ||
             is_ident(toks[i + 2], "jthread"))) {
          report(out, *this, f, toks[i]->line,
                 "std::" + toks[i + 2]->text +
                     " outside util/thread_pool — run work on "
                     "lhd::ThreadPool (or extend the pool's API) so threads "
                     "are joined, sized and sanitizer-visible in one place");
        }
      }
    }
  }

 private:
  static bool has_pragma_once(const std::vector<const Token*>& toks) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i]->kind == TokKind::Directive && toks[i]->text == "pragma" &&
          is_ident(toks[i + 1], "once")) {
        return true;
      }
    }
    return toks.size() == 1 && toks[0]->kind == TokKind::Directive &&
           toks[0]->text == "pragma";  // degenerate one-token file: not once
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<MutexGuardsRule>());
  rules.push_back(std::make_unique<RawSyncPrimitiveRule>());
  rules.push_back(std::make_unique<LayeringRule>());
  rules.push_back(std::make_unique<DeterminismRule>());
  rules.push_back(std::make_unique<DecoderBoundsRule>());
  rules.push_back(std::make_unique<HeaderHygieneRule>());
  return rules;
}

}  // namespace lhd::lint
