#!/bin/sh
# Configure, build and run the full test suite under ASan + UBSan, with
# libstdc++'s precondition checks (_GLIBCXX_ASSERTIONS) turned on.
# Usage: tools/sanitize.sh [build-dir]   (default: build-asan)
set -eu

build_dir="${1:-build-asan}"
src_dir="$(dirname "$0")/.."

cmake -B "$build_dir" -S "$src_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DONELAB_SANITIZE=ON \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
cmake --build "$build_dir" -j "$(nproc)"

# halt_on_error keeps UBSan findings from scrolling past as warnings.
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "$build_dir" --output-on-failure
