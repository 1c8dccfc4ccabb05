#!/usr/bin/env bash
# Write the byte-level output contract of the checkout in the current
# directory into DIR: every `simulate` preset CSV, the trajectory CSVs of
# paths the presets do not take (three and four modes, two modes on the
# adaptive scheme, the adaptive scheme, seeds of -0.0 and -1.47 and cross
# at delta = 0, a short step onto t_end, a blow-up under each scheme and
# one at three modes, standard output), the standard threshold report,
# threshold searches of other models, schemes and invalid brackets, sweeps
# of the three variants, the prop2-grid chart and a chart over the longest
# forced horizon, the cross sweep, the
# prop2-grid chart, an aerodynamic preset and the standard-output CSV also
# on one CPU (taskset), each with its exit code in NAME.exit, and a run
# whose CSV goes to a full device (/dev/full).
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

# $pin, unquoted, is the command (if any) that runs python3
pin=
run() {
    name=$1
    shift
    $pin python3 -m fishbone "$@" --out "$out/$name" >"$out/$name.stdout" 2>"$out/$name.stderr"
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
# the m-mode right-hand side under both schemes: the mmode benchmark
# item, the adaptive driver at two modes, and a three-mode blow-up (exit 4)
run modes4.csv simulate --modes 4 --t-end 2
run modes2-adaptive.csv simulate --modes 2 --scheme adaptive_embedded --t-end 1
run blowup-modes3.csv simulate --modes 3 --sigma 1100 --t-end 1
run adaptive.csv simulate --scheme adaptive_embedded --t-end 5
# 333 steps of 0.003 sampled every 3 steps, then a short step of 0.0014
# onto t_end
run tail-step.csv simulate --step 0.003 --t-end 1.0004
# seeds no preset takes: -0.0 and a negative amplitude, where the signs of
# zeros in the aerodynamic sums show, and cross at delta = 0, which runs
# the kernel without aerodynamic terms
run cross-sigma-neg0.csv simulate --variant cross --delta 0.01 --sigma -0.0 --t-end 1
run crosszero-sigma-neg.csv simulate --variant crosszero --delta 0.03 --sigma -1.47 --t-end 20
run cross-delta0.csv simulate --variant cross --delta 0 --sigma 1.47 --t-end 20
# onset, then blow-up after three samples: exit 4, partial CSV
run blowup.csv simulate --sigma 1100 --t-end 1
# a blow-up on an adaptive step: exit 4 at t=4.87271e-05
run blowup-adaptive.csv simulate --scheme adaptive_embedded --sigma 12000 --t-end 1
# the CSV on standard output, the summary on standard error
python3 -m fishbone simulate --t-end 0.5 --out - >"$out/stdout.csv" 2>"$out/stdout.csv.stderr"
echo $? >"$out/stdout.csv.exit"
# a CSV that cannot be written: exit 3 with one line on standard error
python3 -m fishbone simulate --t-end 1 --out /dev/full >"$out/full-disk.stdout" \
    2>"$out/full-disk.stderr"
echo $? >"$out/full-disk.exit"
run threshold.txt threshold --bracket 1.40:1.60 --tol 1e-3
# searches whose probes take other paths: onset already at the low end and
# none at the high end (exit 5), the forced response crossing gain 300, two
# modes (numpy), and the adaptive scheme, which has no threshold flag
run threshold-onset-at-lo.txt threshold --bracket 1.40:1.60 --variant cross --delta 0.05 --t-end 50
run threshold-quiet-at-hi.txt threshold --bracket 0.1:0.2 --t-end 50
run threshold-crosszero.txt threshold --bracket 0.5:2.0 --variant crosszero --delta 0.05 \
    --onset-gain 300 --t-end 1
run threshold-modes2.txt threshold --bracket 4:16 --tol 1 --modes 2 --t-end 2
python3 -c '
import sys
from fishbone.cli import format_threshold_report
from fishbone.integrator import IntegratorConfig, Scheme
from fishbone.model import ModelSpec, Variant
from fishbone.threshold import find_threshold
config = IntegratorConfig(scheme=Scheme.ADAPTIVE_EMBEDDED, t_end=10.0)
result = find_threshold(ModelSpec(Variant.ISOLATED), (1.5, 3.5), 0.25, config)
sys.stdout.write(format_threshold_report(result))
' >"$out/threshold-adaptive.txt" 2>"$out/threshold-adaptive.txt.stderr"
echo $? >"$out/threshold-adaptive.txt.exit"
# sweeps with onset, quiet and blow-up rows; where two CPUs are free they
# fan out to forked children, and their rows must not depend on it
run sweep-cross.csv sweep --deltas 0,0.01,0.05 --sigmas 1.2,1.47,1100 --t-end 20
run sweep-crosszero.csv sweep --variant crosszero --deltas 0.01,0.05 --sigmas 1.2,1.47 \
    --onset-gain 300 --t-end 20
run sweep-modes2.csv sweep --variant isolated --modes 2 --deltas 0 --sigmas 1.47,4,16 --t-end 2
run prop2-grid.csv hill --preset prop2-grid
# the longest forced horizon, whose half periods are taken a bounded block
# at a time, and a horizon the magnitude guard ends early (E = 6)
run hill-long-horizon.csv hill --grid 0.5,6 --delta 0.01 --horizon-periods 100000
# the same sweep and chart bound to one CPU, where they run serially: with
# the runs above, both paths of each checkout are in the contract
pin="taskset -c 0"
run sweep-cross-1cpu.csv sweep --deltas 0,0.01,0.05 --sigmas 1.2,1.47,1100 --t-end 20
run prop2-grid-1cpu.csv hill --preset prop2-grid
# a simulate CSV, to a file and to standard output, written in-process
# after the run, where two CPUs let a forked child write it during the run
run fig2-d001-1cpu.csv simulate --preset fig2-d001
$pin python3 -m fishbone simulate --t-end 0.5 --out - >"$out/stdout-1cpu.csv" \
    2>"$out/stdout-1cpu.csv.stderr"
echo $? >"$out/stdout-1cpu.csv.exit"
