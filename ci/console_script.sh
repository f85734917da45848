#!/bin/sh
# Runs the installed `isosharp` console script on a fixed list of argv and
# checks each exit code against the CLI contract (0 pass, 1 check failed,
# 2 bad input).  Stdout is discarded; a mismatch prints the argv and stops
# with status 1.  Usage: sh ci/console_script.sh
set -u

expect() {
    want=$1; shift
    got=0
    isosharp "$@" > /dev/null || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "isosharp $*: exit $got, expected $want"
        exit 1
    fi
}

expect 0 constants --n 3 --p 2
expect 0 verify sobolev --variant euclidean --n 3 --p 1.01
expect 2 constants --n 3 --p 5
expect 2 constants --n 1e308
expect 0 verify fk-sweep --variant euclidean --n 60
expect 0 verify fk-sweep --variant euclidean --n 3 --R 1e-90
expect 0 verify fk-sweep --variant euclidean --n 3 --R 1e80
expect 0 verify fk-sweep --variant warped --n 3 --a 0.45
expect 0 verify polya-szego --variant warped --n 2
expect 0 verify faber-krahn --variant warped --n 3
expect 0 sandbox z-inclusion --seeds 20
expect 2 space --variant euclidean --n 3 --sweep 1e-107:1e-103:log:5
expect 2 constants --n 3 --output /nonexistent-dir/x.csv
expect 0 constants --n 3 --p 2 --format json
expect 0 sandbox bm --format json
expect 2 sandbox bm --n 300
expect 2 space --variant ale --n 3 --k 4 --sweep 1:10:lin:5
expect 2 space --variant euclidean --n 3 --a 0.3
expect 0 sandbox z-inclusion --graph path5
expect 2 space --variant euclidean --n 3 --sweep 1:10:log:1000000000000
expect 2 sandbox bm --n 10000000000
expect 2 space --variant cone --n 2
expect 2 constants --n 3 --seed 1
expect 0 verify faber-krahn --variant euclidean --n 3 --R 1 --tol 1e-6
expect 0 sandbox bm --n 3 --h 0.0625
expect 0 sandbox z-inclusion --graph grid5 --format json
expect 2 space --variant ale --k "1$(printf '%0400d' 0)"
expect 0 space --variant warped --n 3
expect 0 space --variant warped --n 3 --format json
expect 2 verify faber-krahn --variant euclidean --n 3 --p 7
expect 2 sandbox bm --graph path3
expect 2 sandbox z-inclusion --seeds 2 --s 0.9
expect 2 constants --n 3 --alpha 2
expect 0 verify polya-szego --variant euclidean --n 3 --p 3
expect 0 verify gn --variant euclidean --n 3 --p 2 --alpha 2
expect 0 verify polya-szego --variant euclidean --n 40
expect 2 verify polya-szego --variant euclidean --n 200
