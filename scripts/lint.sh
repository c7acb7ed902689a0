#!/usr/bin/env bash
# Static-analysis runner: clang-tidy (when available) over the whole tree,
# then bc-analyze, the repository linter. Both stages must be clean for the
# script to exit 0.
#
# Usage:
#   scripts/lint.sh [--build-dir DIR] [--strict] [paths...]
#
#   --build-dir DIR  build tree holding compile_commands.json
#                    (default: build/release, then build, else configure
#                    build/release via the release preset)
#   --strict         fail (exit 2) when clang-tidy is not installed instead
#                    of skipping the clang-tidy stage with a warning
#   paths            files or directories to lint (default: src tests bench
#                    examples; the analyzer's fixtures are skipped)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

build_dir=""
strict=0
paths=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir)
      build_dir="$2"
      shift 2
      ;;
    --strict)
      strict=1
      shift
      ;;
    -h|--help)
      sed -n '2,15p' "$0"
      exit 0
      ;;
    *)
      paths+=("$1")
      shift
      ;;
  esac
done
if [[ ${#paths[@]} -eq 0 ]]; then
  paths=(src tests bench examples)
fi

status=0

# --- stage 1: clang-tidy ----------------------------------------------------
clang_tidy="${CLANG_TIDY:-}"
if [[ -z "$clang_tidy" ]]; then
  for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                   clang-tidy-16 clang-tidy-15 clang-tidy-14; do
    if command -v "$candidate" > /dev/null 2>&1; then
      clang_tidy="$candidate"
      break
    fi
  done
fi

if [[ -z "$clang_tidy" ]]; then
  if [[ "$strict" -eq 1 ]]; then
    echo "lint.sh: clang-tidy not found and --strict given" >&2
    exit 2
  fi
  echo "lint.sh: clang-tidy not found; skipping the clang-tidy stage" >&2
else
  if [[ -z "$build_dir" ]]; then
    if [[ -f build/release/compile_commands.json ]]; then
      build_dir=build/release
    elif [[ -f build/compile_commands.json ]]; then
      build_dir=build
    else
      echo "lint.sh: configuring build/release for compile_commands.json" >&2
      cmake --preset release > /dev/null
      build_dir=build/release
    fi
  fi
  if [[ ! -f "$build_dir/compile_commands.json" ]]; then
    echo "lint.sh: $build_dir/compile_commands.json missing; configure with" \
         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON (the release preset does)" >&2
    exit 2
  fi

  mapfile -t sources < <(find "${paths[@]}" -name '*.cpp' -type f \
                           -not -path '*/analysis_tool/fixtures/*' | sort)
  echo "lint.sh: clang-tidy ($clang_tidy) over ${#sources[@]} files" >&2
  if ! "$clang_tidy" -p "$build_dir" --quiet "${sources[@]}"; then
    status=1
  fi
fi

# --- stage 2: bc-analyze ----------------------------------------------------
if ! python3 scripts/bc_analyze.py "${paths[@]}"; then
  status=1
fi

if [[ "$status" -ne 0 ]]; then
  echo "lint.sh: FAIL" >&2
else
  echo "lint.sh: OK" >&2
fi
exit "$status"
