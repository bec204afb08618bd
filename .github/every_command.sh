#!/usr/bin/env bash
# Every CLI check that CI makes, as three tables, each driven by one loop:
# commands run once, in CSV and in JSON; mode cases, each run in all five
# execution modes; and refused inputs, each with its exit code and one error
# line.  Needs only the runtime dependencies (no sympy).  Run from a scratch
# directory with the nagaolab script on PATH; it leaves its reports there.
# A failing check names its row and mode before the script exits.
set -euo pipefail
row="" mode=""
trap 'rc=$?; [ "$rc" -eq 0 ] || echo "FAILED (exit $rc) in row: $row; mode: $mode" >&2' EXIT

# Rows are split into words by `read -a`, which never globs the "*" of a polynomial.
Q="x^5+2*x^4+3*x^3+3*x^2+2*x+1"  # palindromic: sigma = 1/x permutes its roots
PETERSON="factor-check --f $Q --D auto-peterson --sigma 1/x"

# -- commands once: each report is written, and its JSON objects, built from its tuple rows, parse
ONCE=(
  "trace --f x^3+x --N 100"
  "lpoly --f x^5-x+1 --N 50"
  "nagao --f T^3+T --N 200 --grid 100,200"
  "moments --f x^3+x+1 --N 200"
  "st-classify --f x^5-x+1 --N 200"
  "peterson --f $Q --sigma 1/x"
  "$PETERSON --N 200"
  "nagao --f $Q --D x^10+2*x^8+3*x^6+3*x^4+2*x^2+1 --N 300"
)
for row in "${ONCE[@]}"; do
  read -ra argv <<< "$row"
  mode=csv; nagaolab "${argv[@]}" > /dev/null
  mode=json; nagaolab "${argv[@]}" --format json | python -m json.tool > /dev/null
done

# -- mode cases: the reference runs on 1 thread with no cache; every other mode gives its
# report and .skipped bytes, and no run after the cold one changes a cache byte
MODES=(
  "selftwist nagao --f T^3+T --N 3000"  # D = f: one curve, swept once
  "peterson $PETERSON --N 3000"  # D = f(T^2) read from its half f's pass
  "pair nagao --f x^3+x+1 --D x^5-x+1 --N 3000"  # no pairing: f's cache gets D's bad primes as holes
  "int32 moments --f x^5-x+1 --N 40000"  # N > 2 * CHUNK + 1: squares take two int32 chunks
  "int64 $PETERSON --N 50000"  # N > INT32_MAX_P: the last blocks of f and D on int64 lanes
  "trace trace --f x^3+x+1 --N 5000"  # reports written straight from the sweep's (p, a) pairs
  "lpoly lpoly --f x^5-x+1 --N 200"
  "lpoly6 lpoly --f x^6+1 --N 200"  # an even degree: two points at infinity over F_{p^2}
  "moments moments --f x^3+x+1 --N 5000"
  "classify st-classify --f x^5-x+1 --N 5000"
  "lead nagao --f x^3+x --D 5*x^3+x+1 --N 5000 --grid 1000,5000"  # 5 divides only D's lead
  "linear nagao --f x^3+x+1 --D T+3 --N 3000 --grid 100,3000"  # a linear D: every n is 0, so S1 = S2 = 0 from exact sums
  "cm moments --f x^3+x --N 5000"  # half the angles on the atom at pi/2 in the KS distance
  "sextic moments --f x^6+1 --N 3000"  # an even sextic: the chunk loop's o = 0 path
  "cycle factor-check --f x^3-x --D auto-peterson --sigma (x+1)/(-3x+1) --N 3000"  # a sigma of order 3, not 1/x: a degree-6 D evaluated on its own
)
for row in "${MODES[@]}"; do
  read -r name args <<< "$row"
  read -ra argv <<< "$args"
  mkdir -p "$name"
  for mode in ref t2 cold warm verified; do
    case $mode in
      ref) opts=(--threads 1) ;;
      t2) opts=(--threads 2) ;;
      cold | warm) opts=(--cache-dir "$name/cache") ;;
      verified) opts=(--cache-dir "$name/cache" --verify-cache --threads 2) ;;
    esac
    nagaolab "${argv[@]}" "${opts[@]}" --output "$name/$mode.csv"
    cmp "$name/ref.csv" "$name/$mode.csv"
    if [ -e "$name/ref.csv.skipped" ]; then cmp "$name/ref.csv.skipped" "$name/$mode.csv.skipped"; fi
    if [ "$mode" = cold ]; then
      sha256sum "$name"/cache/* > "$name/cold.sha256"
    elif [ "$mode" != ref ] && [ "$mode" != t2 ]; then
      sha256sum "$name"/cache/* | diff "$name/cold.sha256" -
    fi
  done
done
# the classify, int32 and peterson rows ran on --threads 2 in modes t2 and verified:
# no worker outlives its run (by process name: the CLI and its forked workers are all "nagaolab")
row="classify, int32, peterson" mode="after --threads 2"
if pgrep -ax nagaolab; then
  echo "a nagaolab process is still alive" >&2
  exit 1
fi
# the extra checks of some mode cases
row="int32" mode="OPENBLAS_NUM_THREADS=4 --threads 2"  # every numpy load pins BLAS to one thread
OPENBLAS_NUM_THREADS=4 nagaolab moments --f x^5-x+1 --N 40000 --threads 2 --output int32/blas.csv
cmp int32/ref.csv int32/blas.csv
mode="OPENBLAS_NUM_THREADS=4 --threads 1"
OPENBLAS_NUM_THREADS=4 nagaolab moments --f x^5-x+1 --N 40000 --threads 1 --output int32/blas1.csv
cmp int32/ref.csv int32/blas1.csv
read -ra argv <<< "$PETERSON --N 3000"
row="peterson" mode="verified on 1 thread"  # each cache swept alone: every a_p(D) recomputed by D's pass
nagaolab "${argv[@]}" --cache-dir peterson/cache --verify-cache --output peterson/verified1.csv
cmp peterson/ref.csv peterson/verified1.csv
row="peterson" mode="only f cached"  # D misses alone and is evaluated on its own
nagaolab trace --f "$Q" --N 3000 --cache-dir peterson/fcache --output peterson/f.csv
nagaolab "${argv[@]}" --cache-dir peterson/fcache --output peterson/fonly.csv
cmp peterson/ref.csv peterson/fonly.csv
row="pair" mode="then trace on its cache"  # the trace fills f's holes and writes the uncached report
nagaolab trace --f x^3+x+1 --N 3000 --cache-dir pair/cache --output pair/trace.csv
nagaolab trace --f x^3+x+1 --N 3000 --output pair/trace-ref.csv
cmp pair/trace-ref.csv pair/trace.csv
row="lead" mode="ref sidecar"  # the union of f's and D's bad primes keeps 5 as lead
grep -qx '5,lead' lead/ref.csv.skipped

# -- refused inputs: exit code | sed edit of a fresh trace cache of x^3+x+1 to N = 50, or - | command;
# each prints one error line, and a damaged cache is renamed *.corrupt
REFUSED=(
  "3|-|trace --f x^3+x --N 10000001"  # N above the hard cap 10^7
  "3|-|trace --f x^3+x --N 100 --threads 65"  # above curves.MAX_THREADS, refused as the sweep starts
  "3|-|nagao --f T^3+T --D x^11+x+1 --N 100"  # D of degree above 10
  "3|-|factor-check --f x^3+x --D x^11+x+1 --N 100"  # the same cap, from the same twist_surface
  "3|-|lpoly --f x^5-x+1 --N 10008"  # 10007, a good prime above lpoly's cap 10^4
  "2|-|factor-check --f x^3+x --D x^2-2*x+1 --N 50"  # a D with a repeated root
  "1|-|trace --f x^3+x+1* --N 100"  # a '*' with no variable after it
  "1|-|trace --f x^²+1 --N 100"  # a digit that is not ASCII
  "1|-|peterson --f $Q --sigma 1/x --threads 2"  # peterson sweeps nothing, so it takes no --threads
  "1|-|peterson --f $Q"  # no --sigma, refused with one message by both of its readers
  "1|-|factor-check --f $Q --D auto-peterson --N 100"
  "1|-|peterson --f $Q --sigma=-x"  # a PetersonError (sigma has a pole at infinity) is a PolynomialError
  "1|-|nagao --f T^3+T --N 100000 --grid geometric:1000000000"  # more points than N, refused before the grid loop
  # an empty value is read, not taken as absent: the --flag= form, since read -a drops empty words
  "1|-|trace --f x^3+x --N 100 --cache-dir="  # no cache dir named, refused as an empty --output is
  "1|-|nagao --f T^3+T --D= --N 100"  # an empty polynomial, not the self-twist D = f
  "4|s/^7,.*/7,100/|moments --f x^3+x+1 --N 50 --cache-dir damaged"  # a_p outside the Weil bound
  # records that int() reads as p = 3 or 13, but that the writer would not write
  "4|s/^3,/ 3,/|moments --f x^3+x+1 --N 50 --cache-dir damaged"
  "4|s/^3,/+3,/|moments --f x^3+x+1 --N 50 --cache-dir damaged"
  "4|s/^3,/03,/|moments --f x^3+x+1 --N 50 --cache-dir damaged"
  "4|s/^13,/1_3,/|moments --f x^3+x+1 --N 50 --cache-dir damaged"
)
mode=refused
for row in "${REFUSED[@]}"; do
  IFS="|" read -r code edit cmd <<< "$row"
  read -ra argv <<< "$cmd"
  if [ "$edit" != - ]; then
    rm -rf damaged
    nagaolab trace --f x^3+x+1 --N 50 --cache-dir damaged > /dev/null
    sed -i "$edit" damaged/trace_*.txt
  fi
  rc=0
  nagaolab "${argv[@]}" 2> refused.err || rc=$?
  cat refused.err
  [ "$rc" -eq "$code" ]
  [ "$(wc -l < refused.err)" -eq 1 ]
  grep -q '^error: ' refused.err
  if [ "$edit" != - ]; then ls damaged/*.corrupt; fi
done
