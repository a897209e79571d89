#!/usr/bin/env bash
# The benchmark command: builds nfpbench/main.exe from source with dune,
# then runs it with the arguments given, e.g.
#
#   bash nfpbench/run.sh --workload fwd5_64B --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Build output goes to _build/; the
# build's progress goes to standard error, so the last line of standard
# output is the benchmark's JSON result. See nfpbench/README.md.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f nfpbench/dune ]; then
  echo "nfpbench: run from the root of a full checkout (dune-project, lib/ and nfpbench/ are needed)" >&2
  exit 2
fi

# The OCaml toolchain may live in an opam switch that is not on PATH.
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./nfpbench/main.exe 1>&2

# Provenance: the commit when the checkout is a git work tree, and in
# every case a digest of the library sources the benchmark was built from.
commit=unknown
if [ -d .git ]; then
  commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
sources=$(find lib -name '*.ml' -o -name '*.mli' | LC_ALL=C sort | xargs cat | md5sum | cut -c1-12)

NFPBENCH_COMMIT="$commit+lib:$sources" exec ./_build/default/nfpbench/main.exe "$@"
