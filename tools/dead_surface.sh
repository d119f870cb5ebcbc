#!/usr/bin/env bash
# Dead-surface sweep: prints every function defined in src/*.cpp that the
# tier-1 tests never execute.
#
#   tools/dead_surface.sh BUILD_DIR
#
# Configures an -O0 --coverage Debug build of the library and tests in
# BUILD_DIR, runs ctest there, then runs `gcov -j` over the library's
# objects (CMakeFiles/nuevomatch.dir) and lists each src/*.cpp function
# whose execution count is 0, as `file:line: name`.
#
# The list holds candidates, not verdicts: a function counts as dead only
# if grep also finds no caller in examples/, bench/ or perfbench/ (tier-1
# does not run those). Functions defined inline in headers are left out:
# every translation unit that includes them reports its own count.
set -euo pipefail

build=${1:?usage: tools/dead_surface.sh BUILD_DIR}
root=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-4}
mkdir -p "$build"
build=$(cd "$build" && pwd)

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 --coverage" \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$build" -j"$jobs" >/dev/null
find "$build/CMakeFiles/nuevomatch.dir" -name '*.gcda' -delete
if ! (cd "$build" && ctest -j"$jobs" >/dev/null); then
  echo "warning: some tests failed; the list counts only what ran" >&2
fi

out="$build/dead_surface"
rm -rf "$out"
mkdir -p "$out"
(cd "$out" && find "$build/CMakeFiles/nuevomatch.dir" -name '*.gcda' -print0 |
  xargs -0 gcov -j -p >/dev/null 2>&1)

python3 - "$root" "$out" <<'EOF'
import glob, gzip, json, os, sys

root, out = sys.argv[1], sys.argv[2]
counts = {}
for path in glob.glob(os.path.join(out, "*.gcov.json.gz")):
    with gzip.open(path) as f:
        report = json.load(f)
    cwd = report.get("current_working_directory", "")
    for entry in report["files"]:
        src = os.path.relpath(os.path.normpath(os.path.join(cwd, entry["file"])), root)
        if not (src.startswith("src" + os.sep) and src.endswith(".cpp")):
            continue
        for fn in entry["functions"]:
            key = (src, fn["start_line"], fn["demangled_name"])
            counts[key] = max(counts.get(key, 0), fn["execution_count"])

dead = sorted(k for k, n in counts.items() if n == 0)
for src, line, name in dead:
    print(f"{src}:{line}: {name}")
print(f"{len(dead)} of {len(counts)} src/*.cpp functions never ran", file=sys.stderr)
EOF
