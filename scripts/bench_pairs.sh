#!/usr/bin/env bash
# Alternating parent/change runs of the end-to-end benchmark (benchmark/,
# BENCHMARK.json), the way the choosing-metrics guide (section 8) asks a
# performance claim to be shown on a small, noisy box:
#
#   scripts/bench_pairs.sh <workload>[,<workload>...]|all <pairs> [parent-rev]
#
# `all` is every workload BENCHMARK.json names; the tables of all the
# workloads asked for are printed together at the end. The parent (default
# HEAD; the change is the working tree) is exported with `git archive` into
# target/bench_pairs/<sha>/ and built there once; the change is built in
# place. Each pair runs `csq_benchmark run --trace 0` on
# both sides with the same fresh seed (seconds-since-epoch + pair number),
# the side that goes first alternating. Printed per end-to-end metric: each
# side's median and quartiles, the medians' difference against the parent's
# inter-quartile distance, and the pairs the change won (ties count for
# neither side). A run that is not `correct: true` with `failed: 0` aborts.
# Runs last as long as the benchmark itself says (`csq_benchmark run`'s
# default, the `run_seconds` of BENCHMARK.json).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
workloads=${1//,/ }
pairs=$2
parent_rev=${3:-HEAD}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
if [ "$workloads" = all ]; then
    workloads=$(tr '{' '\n' <BENCHMARK.json | sed -n '/"workloads"/,/"end_to_end"/p' |
        sed -n 's/.*"name": "\([^"]*\)".*/\1/p')
fi
sha=$(git rev-parse --short=12 "$parent_rev^{commit}")
parent_dir=$root/target/bench_pairs/$sha
if [ ! -d "$parent_dir" ]; then
    mkdir -p "$parent_dir"
    git archive "$sha" | tar -x -C "$parent_dir"
fi
build() {
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
echo "building parent $sha and the working tree ..." >&2
build "$parent_dir"
build "$root"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# run <side> <dir> <seed>: appends the side's metrics line to
# $out/$workload.<side>.
run() {
    local line
    line=$("$2/benchmark/target/release/csq_benchmark" run --workload "$workload" \
        --seed "$3" --trace 0 | tail -n 1)
    case $line in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
        echo "$1 run of $workload on seed $3 was not correct: $line" >&2
        exit 1
        ;;
    esac
    echo "$line" >>"$out/$workload.$1"
    echo "  $1: $(echo "$line" | sed 's/.*"metrics": //')" >&2
}
for workload in $workloads; do
    base=$(date +%s)
    for pair in $(seq 1 "$pairs"); do
        seed=$((base + pair))
        echo "$workload pair $pair/$pairs (seed $seed)" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$parent_dir" "$seed"
            run change "$root" "$seed"
        else
            run change "$root" "$seed"
            run parent "$parent_dir" "$seed"
        fi
    done
done

# The metric names and which way is better come from BENCHMARK.json.
metrics=$(tr '{' '\n' <BENCHMARK.json | sed -n '/"end_to_end"/,/"per_layer"/p' |
    sed -n 's/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*/\1:\2/p')
value() { # value <file> <metric>: one value per run, in run order
    sed -n "s/.*\"$2\": {\"value\": \([-0-9.eE+]*\).*/\1/p" "$1"
}
quartiles() { # stdin: values; stdout: "median q1 q3"
    sort -g | awk '
        function quantile(q,    pos, lo) {
            pos = 1 + (NR - 1) * q; lo = int(pos)
            return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        { v[NR] = $1 }
        END { print quantile(0.5), quantile(0.25), quantile(0.75) }'
}
for workload in $workloads; do
    echo
    echo "$workload, $pairs pairs, parent $sha, $(nproc) core(s)"
    printf '%-24s %-30s %-30s %8s %10s %6s\n' metric 'parent median [q1, q3]' \
        'change median [q1, q3]' delta 'parent IQR' wins
    for entry in $metrics; do
        name=${entry%%:*}
        better=${entry##*:}
        read -r pm p1 p3 < <(value "$out/$workload.parent" "$name" | quartiles)
        read -r cm c1 c3 < <(value "$out/$workload.change" "$name" | quartiles)
        wins=$(paste <(value "$out/$workload.parent" "$name") \
            <(value "$out/$workload.change" "$name") |
            awk -v better="$better" '
                $1 != $2 { decided++; if (better == "lower" ? $2 < $1 : $2 > $1) wins++ }
                END { printf "%d/%d", wins, decided }')
        awk -v name="$name" -v pm="$pm" -v p1="$p1" -v p3="$p3" -v cm="$cm" -v c1="$c1" \
            -v c3="$c3" -v wins="$wins" 'BEGIN {
                printf "%-24s %-30s %-30s %+7.1f%% %10.4g %6s\n", name,
                    sprintf("%.4g [%.4g, %.4g]", pm, p1, p3),
                    sprintf("%.4g [%.4g, %.4g]", cm, c1, c3),
                    pm ? (cm - pm) / pm * 100 : 0, p3 - p1, wins
            }'
    done
done
