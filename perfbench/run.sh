#!/bin/sh
# Build cschedd, csched and the load generator from this checkout, then
# run one benchmark run:
#
#   sh perfbench/run.sh --workload hot_mix --seed 1 --seconds 20 --trace 0
#
# Everything the run writes goes to _build/ and .perfbench/ in the
# checkout.  Without the repository's sources next to perfbench/ the
# build is impossible, so the script exits non-zero without a result.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no cyclesteal source tree in $(pwd)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./bin/cschedd.exe ./bin/csched.exe ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe --bin _build/default/bin "$@"
