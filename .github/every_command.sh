#!/usr/bin/env bash
# Every command once, with the runtime dependencies only (no sympy): each
# report is written, each JSON report parses, the pool and the one-thread
# sweep agree, and each refused input exits with its code and one error line.
# Run from a scratch directory with the nagaolab script on PATH; it leaves
# its reports there.
set -e
nagaolab trace --f "x^3+x" --N 100
nagaolab lpoly --f "x^5-x+1" --N 50
nagaolab nagao --f "T^3+T" --N 200 --grid 100,200
nagaolab moments --f "x^3+x+1" --N 200
nagaolab st-classify --f "x^5-x+1" --N 200
nagaolab peterson --f "x^5+2*x^4+3*x^3+3*x^2+2*x+1" --sigma "1/x"
nagaolab factor-check --f "x^5+2*x^4+3*x^3+3*x^2+2*x+1" --D auto-peterson --sigma "1/x" --N 200
nagaolab trace --f "x^3+x" --N 100 --format json
# every report's JSON objects, built from its tuple rows, parse as JSON
nagaolab lpoly --f "x^5-x+1" --N 50 --format json | python -m json.tool > /dev/null
nagaolab nagao --f "T^3+T" --N 200 --grid 100,200 --format json | python -m json.tool > /dev/null
nagaolab moments --f "x^3+x+1" --N 200 --format json | python -m json.tool > /dev/null
nagaolab st-classify --f "x^5-x+1" --N 200 --format json | python -m json.tool > /dev/null
nagaolab peterson --f "x^5+2*x^4+3*x^3+3*x^2+2*x+1" --sigma "1/x" --format json | python -m json.tool > /dev/null
nagaolab factor-check --f "x^5+2*x^4+3*x^3+3*x^2+2*x+1" --D auto-peterson --sigma "1/x" --N 200 --format json | python -m json.tool > /dev/null
# D = f(T^2) is swept with its half f: the same report on one and two threads
nagaolab factor-check --f "x^5+2*x^4+3*x^3+3*x^2+2*x+1" --D auto-peterson --sigma "1/x" --N 3000 --threads 1 --output fc1.csv
nagaolab factor-check --f "x^5+2*x^4+3*x^3+3*x^2+2*x+1" --D auto-peterson --sigma "1/x" --N 3000 --threads 2 --output fc2.csv
cmp fc1.csv fc2.csv
# an even sextic takes the chunk loop's o = 0 path; each forked worker keeps its own residue table
nagaolab moments --f "x^6+1" --N 3000 --threads 1 --output m1.csv
nagaolab moments --f "x^6+1" --N 3000 --threads 2 --output m2.csv
cmp m1.csv m2.csv
nagaolab nagao --f "x^5+2*x^4+3*x^3+3*x^2+2*x+1" --D "x^10+2*x^8+3*x^6+3*x^4+2*x^2+1" --N 300
# N above the one hard cap 10^7 exits 3 with one error line
rc=0; nagaolab trace --f "x^3+x" --N 10000001 2> cap.err || rc=$?
if [ "$rc" -ne 3 ] || [ "$(wc -l < cap.err)" -ne 1 ] || ! grep -q '^error: ' cap.err; then
  echo "trace --N 10000001 exited $rc"; cat cap.err; exit 1
fi
# a '*' with no variable after it, and a digit that is not ASCII, are syntax errors: exit 1 with one error line
for f in "x^3+x+1*" "x^²+1"; do
  rc=0; nagaolab trace --f "$f" --N 100 2> parse.err || rc=$?
  if [ "$rc" -ne 1 ] || [ "$(wc -l < parse.err)" -ne 1 ] || ! grep -q '^error: ' parse.err; then
    echo "trace --f '$f' exited $rc"; cat parse.err; exit 1
  fi
done
# peterson sweeps nothing, so it takes no --threads: exit 1
rc=0; nagaolab peterson --f "x^5+2*x^4+3*x^3+3*x^2+2*x+1" --sigma "1/x" --threads 2 || rc=$?
if [ "$rc" -ne 1 ]; then echo "peterson --threads 2 exited $rc"; exit 1; fi
