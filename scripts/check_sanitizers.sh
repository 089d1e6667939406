#!/usr/bin/env bash
# Sanitizer sweep, run as two ctests (see tests/CMakeLists.txt):
#
#   check_sanitizers.sh thread               # -> check_sanitizers_tsan
#   check_sanitizers.sh address,undefined    # -> check_sanitizers_asan_ubsan
#
# For the requested mode it:
#   1. probes that the configured (or default) C++ compiler can actually
#      link -fsanitize=<mode> — distro toolchains sometimes ship without
#      the runtime; without it, exit 77 (ctest SKIPPED via
#      SKIP_RETURN_CODE);
#   2. configures a dedicated build tree (build-san-<tag>) with
#      -DLHD_SANITIZE=<mode> -DLHD_NATIVE=OFF;
#   3. builds the test binaries named in LHD_SANITIZER_TARGETS (default
#      "test_util test_core test_serve test_feature test_nn test_nn_grad
#      test_property" — the concurrency-heavy suites, the serve daemon
#      suite, the feature suite with its shared DCT basis caches, the nn
#      suites whose GEMM kernels index packed thread_local scratch, and
#      the property suite, whose nn-backward-parity drives the conv
#      im2col/col2im runs over random shapes, k = 5 with pad = 2 on inputs
#      narrower than the kernel's reach among them; the full suite under
#      TSan is minutes, not seconds) and runs each directly with
#      --gtest_filter=-*ScanParity*: the four *ScanParity* properties in
#      test_property scan with the CNN and take ~595 s under ASan alone,
#      past the sweep's 900 s ctest timeout.
#
# The binaries are run directly rather than through the inner tree's
# ctest: that would re-enter this script (it is itself a ctest) and drag
# in the toolchain-probing checks. Any sanitizer report fails the check —
# UBSan builds use -fno-sanitize-recover=all (top-level CMakeLists), and
# TSan/ASan exit non-zero on findings by default.

check_name="check_sanitizers"
# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

mode="${1:-}"
case "$mode" in
  thread | address | undefined | address,undefined) ;;
  *)
    fail "usage: check_sanitizers.sh <thread|address|undefined|address,undefined>"
    finish
    ;;
esac
tag="$(echo "$mode" | tr ',' '-')"
targets="${LHD_SANITIZER_TARGETS:-test_util test_core test_serve test_feature test_nn test_nn_grad test_property}"

# --- 1. probe that the compiler can link this sanitizer --------------------
cxx="${CXX:-c++}"
if ! have "$cxx"; then
  note "SKIP: no C++ compiler '$cxx' on PATH"
  exit 77
fi
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
echo 'int main() { return 0; }' > "$probe_dir/probe.cpp"
if ! "$cxx" "-fsanitize=$mode" "$probe_dir/probe.cpp" -o "$probe_dir/probe" \
     2> "$probe_dir/probe.log"; then
  note "SKIP: $cxx cannot link -fsanitize=$mode (runtime not installed?)"
  exit 77
fi

# --- 2. configure the dedicated tree ----------------------------------------
build_dir="$root/build-san-$tag"
if ! cmake -B "$build_dir" -S "$root" \
     "-DLHD_SANITIZE=$mode" \
     -DLHD_NATIVE=OFF \
     > "$build_dir.cmake.log" 2>&1; then
  tail -30 "$build_dir.cmake.log" >&2
  fail "cmake configure with -DLHD_SANITIZE=$mode failed"
  finish
fi

# --- 3. build and run the selected test binaries -----------------------------
# shellcheck disable=SC2086  # word-splitting of $targets is the interface
if ! cmake --build "$build_dir" --target $targets -j \
     > "$build_dir.build.log" 2>&1; then
  tail -30 "$build_dir.build.log" >&2
  fail "building [$targets] under -fsanitize=$mode failed"
  finish
fi

for target in $targets; do
  bin="$build_dir/tests/$target"
  if [ ! -x "$bin" ]; then
    fail "$target did not produce $bin (is it a tests/ binary?)"
    continue
  fi
  log="$build_dir/$target.run.log"
  if "$bin" --gtest_brief=1 '--gtest_filter=-*ScanParity*' > "$log" 2>&1; then
    note "$target: OK under -fsanitize=$mode"
  else
    tail -40 "$log" >&2
    fail "$target failed under -fsanitize=$mode (log tail above; full log: $log)"
  fi
done

finish "a sanitizer finding is a real bug until proven otherwise — see docs/STATIC_ANALYSIS.md"
