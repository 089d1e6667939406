#!/usr/bin/env bash
# Docs lint, run as a ctest (see tests/CMakeLists.txt). Fails when:
#   1. a src/lhd/<module>/ directory is missing from README.md's
#      "Architecture — module map" section,
#   2. a public header in src/lhd/core/ or src/lhd/obs/ lacks a Doxygen
#      @file file-header comment (the place thread-safety guarantees live), or
#   3. an LHD_* CMake knob declared in CMakeLists.txt is missing from
#      README.md's "Build & run knobs" table, a `CMake option` row of that
#      table names a knob CMakeLists.txt does not declare, an
#      `environment` row names a variable nothing reads, or a
#      `ScanConfig::<field>` row names a field struct ScanConfig
#      (src/lhd/core/scan.hpp) does not declare, or
#   4. a lint rule id shipped in src/lhd/lint/rules.hpp (the kAllRuleIds
#      registry) has no backticked mention in docs/STATIC_ANALYSIS.md's
#      triage guide, or
#   5. a serve protocol op shipped in src/lhd/serve/protocol.hpp (the
#      kOpNames block) has no backticked mention in docs/SERVE.md —
#      adding a wire op means writing it down, or
#   6. a backticked `Suite.Test` name in README.md or docs/*.md has no
#      TEST*(Suite, Test) under tests/ — docs must not name a test that
#      was renamed or deleted, or
#   7. a relative link target in README.md or docs/*.md does not exist —
#      deleting or moving a file means updating the links to it, or
#   8. an instrument src/lhd/serve/server.cpp registers (a "serve.<name>"
#      literal, or a leaf passed to its tenant_leaf/op_leaf helpers) has no
#      backticked mention in docs/SERVE.md's Observability section —
#      what the stats op reports is written down.
# Run from anywhere: paths resolve relative to this script's repo root.

check_name="check_docs"
# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

readme="$root/README.md"
[ -f "$readme" ] || { echo "$check_name: README.md not found" >&2; exit 1; }

# --- 1. every module directory appears in the README module map ------------
for dir in "$root"/src/lhd/*/; do
  module="$(basename "$dir")"
  # A module counts as documented when the map links to its directory,
  # e.g. **[`core/`](src/lhd/core)**.
  if ! grep -q "(src/lhd/$module)" "$readme"; then
    fail "module 'src/lhd/$module' is not in README.md's module map"
  fi
done

# --- 2. public core/obs headers carry a @file doc comment ------------------
for header in "$root"/src/lhd/core/*.hpp "$root"/src/lhd/obs/*.hpp; do
  # The @file marker must sit in the first few lines, i.e. be a real
  # file-header comment rather than buried documentation.
  if ! head -5 "$header" | grep -q "@file"; then
    fail "header '${header#"$root"/}' lacks a @file file-header comment"
  fi
done

# --- 3. every LHD_* CMake knob is in the README knobs table ----------------
# Knobs are declared as option(LHD_X ...) or set(LHD_X ... CACHE ...); each
# must have a `LHD_X` row in the "Build & run knobs" table.
knobs="$(grep -oE '^(option|set)\(LHD_[A-Z_]+' "$root/CMakeLists.txt" |
  sed -E 's/^(option|set)\(//' | sort -u)"
for knob in $knobs; do
  if ! grep -q "\`$knob\`" "$readme"; then
    fail "CMake knob '$knob' is missing from README.md's knobs table"
  fi
done
# And the other way: a `CMake option` row must name a declared knob, and
# an `environment` row a variable that something reads — a getenv("NAME")
# under src/ or tools/, or NAME in one of the other scripts/.
table_rows() {
  grep -E '^\| `[A-Z][A-Z0-9_]*` \| '"$1"' \|' "$readme" | cut -d'`' -f2 |
    sort -u
}
for knob in $(table_rows 'CMake option'); do
  if ! grep -qx "$knob" <<< "$knobs"; then
    fail "README.md's knobs table lists CMake option '$knob', which CMakeLists.txt does not declare"
  fi
done
for var in $(table_rows 'environment'); do
  if ! grep -rqF "getenv(\"$var\")" "$root/src" "$root/tools" &&
     ! grep -rqw --exclude=check_docs.sh "$var" "$root/scripts"; then
    fail "README.md's knobs table lists environment variable '$var', which nothing under src/, tools/ or scripts/ reads"
  fi
done
# And an API row `ScanConfig::<field>` must name a field declared in
# struct ScanConfig: a deleted field takes its row with it.
scan_hpp="$root/src/lhd/core/scan.hpp"
scan_fields="$(sed -n '/^struct ScanConfig {/,/^};/p' "$scan_hpp" |
  grep -vE '^ *//' | grep -oE '[A-Za-z_][A-Za-z0-9_]*( = [^;]*)?;$' |
  sed -E 's/( = .*)?;$//' | sort -u)"
[ -n "$scan_fields" ] || fail "could not extract any fields from struct ScanConfig in $scan_hpp"
for field in $(grep -oE '^\| `ScanConfig::[A-Za-z_][A-Za-z0-9_]*` \|' "$readme" |
               cut -d'`' -f2 | sed 's/^ScanConfig:://' | sort -u); do
  if ! grep -qx "$field" <<< "$scan_fields"; then
    fail "README.md's knobs table lists ScanConfig::$field, which struct ScanConfig in src/lhd/core/scan.hpp does not declare"
  fi
done

# --- 4. every shipped lint rule id is documented in the triage guide -------
# The single source of truth is the kAllRuleIds block in rules.hpp; each id
# listed there must appear backticked in docs/STATIC_ANALYSIS.md so a
# finding's rule id always leads to a written remedy.
rules_hpp="$root/src/lhd/lint/rules.hpp"
sa_doc="$root/docs/STATIC_ANALYSIS.md"
if [ -f "$rules_hpp" ]; then
  if [ ! -f "$sa_doc" ]; then
    fail "docs/STATIC_ANALYSIS.md is missing but src/lhd/lint ships rules"
  else
    rule_ids="$(sed -n '/kAllRuleIds\[\]/,/};/p' "$rules_hpp" |
      grep -oE '"[a-z][a-z0-9-]*"' | tr -d '"' | sort -u)"
    [ -n "$rule_ids" ] || fail "could not extract any rule ids from $rules_hpp (kAllRuleIds block)"
    for rule_id in $rule_ids; do
      if ! grep -q "\`$rule_id\`" "$sa_doc"; then
        fail "lint rule '$rule_id' (kAllRuleIds) is not documented in docs/STATIC_ANALYSIS.md"
      fi
    done
  fi
fi

# --- 5. every serve protocol op is documented ------------------------------
# The single source of truth is the kOpNames block in
# src/lhd/serve/protocol.hpp; each op named there must appear backticked
# in docs/SERVE.md (the wire-format contract), so "add an op" always
# includes writing it down.
protocol_hpp="$root/src/lhd/serve/protocol.hpp"
serve_doc="$root/docs/SERVE.md"
if [ -f "$protocol_hpp" ]; then
  if [ ! -f "$serve_doc" ]; then
    fail "docs/SERVE.md is missing but src/lhd/serve ships a wire protocol"
  else
    op_names="$(sed -n '/kOpNames\[\]/,/};/p' "$protocol_hpp" |
      grep -oE '"[a-z][a-z0-9-]*"' | tr -d '"' | sort -u)"
    [ -n "$op_names" ] || fail "could not extract any op names from $protocol_hpp (kOpNames block)"
    for op_name in $op_names; do
      if ! grep -q "\`$op_name\`" "$serve_doc"; then
        fail "serve op '$op_name' (kOpNames) is not documented in docs/SERVE.md"
      fi
    done
  fi
fi

# --- 6. every test the docs name exists -------------------------------------
# A backticked `Suite.Test` (both parts starting upper-case, so file names
# such as `DESIGN.md` do not match) must be declared as TEST(Suite, Test),
# TEST_F or TEST_P somewhere under tests/.
test_names="$(grep -ohE '`[A-Z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*`' \
  "$readme" "$root"/docs/*.md | tr -d '`' | sort -u)"
for test_name in $test_names; do
  suite="${test_name%%.*}"
  test="${test_name#*.}"
  if ! grep -rqE "TEST(_F|_P)?\($suite, *$test\)" "$root/tests"; then
    fail "docs name test '$test_name', which no TEST*($suite, $test) under tests/ declares"
  fi
done

# --- 7. every relative link target in the docs exists ----------------------
# A markdown link [text](target) resolves from the linking file's own
# directory; an #anchor suffix is stripped, and http(s) links and
# same-file anchors are skipped.
for doc in "$readme" "$root"/docs/*.md; do
  dir="$(dirname "$doc")"
  while IFS= read -r link; do
    case "$link" in "" | http://* | https://* | "#"*) continue ;; esac
    target="${link%%#*}"
    if [ ! -e "$dir/$target" ]; then
      fail "${doc#"$root"/} links to '$link', which does not exist"
    fi
  done <<< "$(grep -oE '\]\([^) ]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')"
done

# --- 8. every serve instrument is in SERVE.md's Observability section -----
# Full names are the "serve.<name>" literals in server.cpp (the
# "serve.tenant." and "serve.op." prefixes end in a dot and are skipped);
# per-tenant and per-op leaves are the literals passed to tenant_leaf(...)
# and op_leaf(...), documented as `serve.tenant.<id>.<leaf>` and
# `serve.op.<name>.<leaf>`.
server_cpp="$root/src/lhd/serve/server.cpp"
if [ -f "$server_cpp" ] && [ -f "$serve_doc" ]; then
  observability="$(sed -n '/^## Observability/,/^## /p' "$serve_doc")"
  [ -n "$observability" ] || fail "docs/SERVE.md has no '## Observability' section"
  instruments="$(
    grep -oE '"serve\.[a-z_.]*[a-z_]"' "$server_cpp" | tr -d '"'
    grep -oE 'tenant_leaf\("[a-z_]+"\)' "$server_cpp" |
      sed -E 's/^tenant_leaf\("(.*)"\)$/serve.tenant.<id>.\1/'
    grep -oE 'op_leaf\("[a-z_]+"\)' "$server_cpp" |
      sed -E 's/^op_leaf\("(.*)"\)$/serve.op.<name>.\1/'
  )"
  [ -n "$instruments" ] || fail "could not extract any instrument names from $server_cpp"
  for instrument in $(sort -u <<< "$instruments"); do
    if ! grep -qF "\`$instrument\`" <<< "$observability"; then
      fail "serve instrument '$instrument' (src/lhd/serve/server.cpp) is not in docs/SERVE.md's Observability section"
    fi
  done
fi

finish "update README.md's module map / knobs table, docs/STATIC_ANALYSIS.md's rule-id coverage, docs/SERVE.md's op and instrument coverage, the test names or link targets the docs cite, or add the missing @file header comments"
