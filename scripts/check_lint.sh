#!/usr/bin/env bash
# Static-analysis gate, run as a ctest (see tests/CMakeLists.txt).
#
#   check_lint.sh [BUILD_DIR]
#
# Layers (docs/STATIC_ANALYSIS.md has the full four-layer picture and the
# triage guide; the house rules run as their own `lhd_lint` ctest):
#   1. clang-tidy over every src/ translation unit via the build dir's
#      compile_commands.json and the repo .clang-tidy (skipped with a note
#      when clang-tidy is not installed).
#   2. shellcheck over scripts/*.sh (skipped with a note when absent).
#
# BUILD_DIR defaults to <repo>/build.

check_name="check_lint"
# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

build_dir="${1:-$root/build}"

# --- 1. clang-tidy ---------------------------------------------------------
if have clang-tidy; then
  if [ ! -f "$build_dir/compile_commands.json" ]; then
    fail "no compile_commands.json in '$build_dir' — configure with cmake first (CMAKE_EXPORT_COMPILE_COMMANDS is on by default)"
  else
    # Only first-party TUs; the database also holds tests/bench/examples.
    tidy_out="$(find "$root/src" -name '*.cpp' -print0 |
      xargs -0 clang-tidy -p "$build_dir" --quiet 2> /dev/null)"
    if echo "$tidy_out" | grep -qE 'warning:|error:'; then
      echo "$tidy_out" >&2
      fail "clang-tidy reported findings (config: .clang-tidy)"
    fi
  fi
else
  note "SKIP clang-tidy (not installed)"
fi

# --- 2. shellcheck ---------------------------------------------------------
if have shellcheck; then
  if ! shellcheck "$root"/scripts/*.sh; then
    fail "shellcheck reported findings in scripts/"
  fi
else
  note "SKIP shellcheck (not installed)"
fi

finish "see docs/STATIC_ANALYSIS.md for how to triage"
