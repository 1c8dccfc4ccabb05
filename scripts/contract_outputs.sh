#!/usr/bin/env bash
# Write the byte-level output contract of the checkout in the current
# directory into DIR: every `simulate` preset CSV, the trajectory CSVs of
# paths the presets do not take (three modes, the adaptive scheme, a
# blow-up, standard output), the standard threshold report and the
# prop2-grid chart, each with its exit code in NAME.exit.
# Two checkouts give the same DIR contents exactly when their outputs agree:
#   (cd base && scripts/contract_outputs.sh /tmp/a)
#   (cd head && scripts/contract_outputs.sh /tmp/b) && diff -r /tmp/a /tmp/b
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 DIR" >&2
    exit 2
fi
out=$1
mkdir -p "$out"
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

run() {
    name=$1
    shift
    python3 -m fishbone "$@" --out "$out/$name" >"$out/$name.stdout" 2>"$out/$name.stderr"
    echo $? >"$out/$name.exit"
}

# the package must come from this checkout, not from an installed copy
presets=$(python3 -c '
import sys
import fishbone.cli
if not fishbone.cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"fishbone imported from {fishbone.cli.__file__}, not {sys.argv[1]}")
print(" ".join(fishbone.cli.PRESETS))
' "$PWD/src/") || exit 1
# a preset that blows up exits 4 with a partial CSV; the exit code is part
# of the contract
for p in $presets; do
    run "$p.csv" simulate --preset "$p"
done
run modes3.csv simulate --modes 3 --t-end 1
run adaptive.csv simulate --scheme adaptive_embedded --t-end 5
# onset, then blow-up after three samples: exit 4, partial CSV
run blowup.csv simulate --sigma 1100 --t-end 1
# the CSV on standard output, the summary on standard error
python3 -m fishbone simulate --t-end 0.5 --out - >"$out/stdout.csv" 2>"$out/stdout.csv.stderr"
echo $? >"$out/stdout.csv.exit"
run threshold.txt threshold --bracket 1.40:1.60 --tol 1e-3
run prop2-grid.csv hill --preset prop2-grid
