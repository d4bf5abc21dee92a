#!/bin/sh
# Build the end-to-end benchmark from source and run it with the given
# arguments, from the root of a checkout:
#   sh e2ebench/run.sh --workload paper --seed 0 --seconds 15 --trace 0
# A failed build exits non-zero before anything is measured.
exec dune exec --root . --cache=disabled --display quiet ./e2ebench/e2e.exe -- "$@"
