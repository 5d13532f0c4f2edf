#!/usr/bin/env bash
# perf-ab: is command B slower than command A, measured on this host now?
#
# Runs two refrint-cli command prefixes, A and B, over the perf suite's
# scenarios in alternating pairs and times every process on its CPU clock
# (bash `time`, user + sys). It fails (exit 1) when the median of all the
# pairs' B/A ratios exceeds BOUND, and prints each scenario's median too.
# Both runs of a pair see the same host at nearly the same time, so host
# drift cancels; no committed rate is involved. One pair's ratio can still
# stray far (0.5-2.0 on a shared 2-vCPU VM), which is why the verdict is
# the median over every scenario's pairs, not any one scenario's.
#
# Usage: scripts/perf_ab.sh BOUND 'A-PREFIX' 'B-PREFIX'
# (exit 2 on a malformed argument or a command that fails)
#
# A prefix is a refrint-cli binary, its subcommand and any flags; the
# script appends each scenario's flags. Two uses:
#
#   # a regression gate: the parent's build against the change's
#   scripts/perf_ab.sh 1.05 'parent-target/release/refrint-cli run' \
#       'target/release/refrint-cli run'
#   # an overhead gate: one binary without and with span recording
#   scripts/perf_ab.sh 1.05 'target/release/refrint-cli run' \
#       'target/release/refrint-cli obs --format text --sample 64'
#
# Scenarios (16 cores, seed 7, 20000 references per thread): lu, lu --sram,
# lu --policy P.all, lu --policy 'R.WB(0,0)' (the one whose policy
# invalidations fire, ~125k of them, so it times the eager invalidation
# queue), fft, blackscholes and, when both prefixes are `run`, lu through
# `trace replay` of a trace each binary records once, untimed.
# Each scenario runs once per side untimed, then in 20 pairs whose order
# alternates (AB, BA, AB, ...).

set -euo pipefail
export LC_ALL=C

PAIRS=20
COMMON=(--refs 20000 --seed 7)
SCENARIOS=(
    "lu|--app lu"
    "lu_sram|--app lu --sram"
    "lu_periodic_all|--app lu --policy P.all"
    "lu_wb00|--app lu --policy R.WB(0,0)"
    "fft|--app fft"
    "blackscholes|--app blackscholes"
)

usage() {
    echo "usage: scripts/perf_ab.sh BOUND 'A-PREFIX' 'B-PREFIX'" >&2
    exit 2
}
[ "$#" -eq 3 ] || usage
BOUND=$1
[[ $BOUND =~ ^[0-9]+([.][0-9]+)?$ ]] || {
    echo "perf-ab: BOUND must be a ratio such as 1.05, got '$BOUND'" >&2
    exit 2
}
read -ra A <<<"$2"
read -ra B <<<"$3"
[ "${#A[@]}" -ge 2 ] && [ "${#B[@]}" -ge 2 ] || usage

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# CPU seconds (user + sys) of one run of "$@", its stdout discarded.
cpu_seconds() {
    local TIMEFORMAT='%3U %3S' times
    if ! times=$({ time "$@" >/dev/null 2>"$WORK/stderr"; } 2>&1); then
        echo "perf-ab: command failed: $*" >&2
        cat "$WORK/stderr" >&2
        return 2
    fi
    awk '{ printf "%.3f\n", $1 + $2 }' <<<"$times"
}

median() {
    sort -g | awk '{ v[NR] = $1 }
        END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# Times scenario $1 with A's command in array a_cmd and B's in b_cmd.
measure() {
    local name=$1 i a b
    cpu_seconds "${a_cmd[@]}" >/dev/null
    cpu_seconds "${b_cmd[@]}" >/dev/null
    for ((i = 0; i < PAIRS; i++)); do
        if ((i % 2 == 0)); then
            a=$(cpu_seconds "${a_cmd[@]}")
            b=$(cpu_seconds "${b_cmd[@]}")
        else
            b=$(cpu_seconds "${b_cmd[@]}")
            a=$(cpu_seconds "${a_cmd[@]}")
        fi
        echo "$name $a $b" >>"$WORK/pairs"
    done
}

names=()
for scenario in "${SCENARIOS[@]}"; do
    name=${scenario%%|*}
    read -ra flags <<<"${scenario#*|}"
    a_cmd=("${A[@]}" "${flags[@]}" "${COMMON[@]}")
    b_cmd=("${B[@]}" "${flags[@]}" "${COMMON[@]}")
    measure "$name"
    names+=("$name")
done

if [ "${A[1]}" = run ] && [ "${B[1]}" = run ]; then
    cpu_seconds "${A[0]}" trace record --app lu --out "$WORK/a.rft" "${COMMON[@]}" >/dev/null
    cpu_seconds "${B[0]}" trace record --app lu --out "$WORK/b.rft" "${COMMON[@]}" >/dev/null
    a_cmd=("${A[0]}" trace replay --trace "$WORK/a.rft" "${A[@]:2}")
    b_cmd=("${B[0]}" trace replay --trace "$WORK/b.rft" "${B[@]:2}")
    measure lu_replay
    names+=(lu_replay)
fi

echo "perf-ab: B/A CPU-time ratios, $PAIRS alternating pairs per scenario"
echo "  A: $2"
echo "  B: $3"
printf '%-16s %10s %10s %8s %13s\n' scenario "A med s" "B med s" "B/A med" "B/A range"
# Prints a table row labelled $1 for the pair lines ("name a b") on stdin.
row() {
    local rows ratios
    rows=$(cat)
    ratios=$(awk '{ printf "%.4f\n", $3 / $2 }' <<<"$rows")
    printf '%-16s %10.3f %10.3f %8.3f %13s\n' "$1" \
        "$(awk '{ print $2 }' <<<"$rows" | median)" \
        "$(awk '{ print $3 }' <<<"$rows" | median)" \
        "$(median <<<"$ratios")" \
        "$(sort -g <<<"$ratios" | sed -n '1p;$p' | paste -sd- -)"
}
for name in "${names[@]}"; do
    awk -v n="$name" '$1 == n' "$WORK/pairs" | row "$name"
done
row "all $(wc -l <"$WORK/pairs") pairs" <"$WORK/pairs"

ratio=$(awk '{ printf "%.4f\n", $3 / $2 }' "$WORK/pairs" | median)
if awk -v r="$ratio" -v b="$BOUND" 'BEGIN { exit !(r > b) }'; then
    echo "perf-ab: FAIL: median B/A $ratio exceeds the bound $BOUND: B is slower than A" >&2
    exit 1
fi
echo "perf-ab: ok: median B/A $ratio is within the bound $BOUND"
