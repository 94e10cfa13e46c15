#!/usr/bin/env bash
# Build the ladder benchmark from source, then run it with the given
# arguments (see ladder/README.md).  Build output goes to stderr so the
# last line of stdout stays the benchmark's JSON result.  The shared dune
# cache is off, so the build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./ladder/main.exe >&2
exec ./_build/default/ladder/main.exe "$@"
