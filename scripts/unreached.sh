#!/usr/bin/env bash
# unreached.sh lists the production functions that no shipped program
# reaches. It builds coverage-instrumented binaries of the benchmark
# ledger, rockbench, the five examples and the rock CLI into a temporary
# directory, runs
#
#   - every ledger workload, traced (--trace 1);
#   - rockbench -exp all -n 300;
#   - the five examples;
#   - rock gen / detect / clean / demo;
#
# and prints every function outside cmd/, examples/ and bench/ that no
# run reached (0.0 % coverage), then their count. It writes nothing
# inside the repository.
#
# Usage: scripts/unreached.sh [ledger seconds per workload, default 5]
# Takes about twelve minutes on two cores, most of it rockbench.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
secs=${1:-5}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOCOVERDIR="$tmp/cov"
mkdir -p "$GOCOVERDIR" "$tmp/run"
pkgs=github.com/rockclean/rock/...

cd "$repo"
go build -cover -coverpkg="$pkgs" -o "$tmp/rockbench" ./cmd/rockbench
go build -cover -coverpkg="$pkgs" -o "$tmp/rock" ./cmd/rock
go build -C bench -cover -coverpkg="$pkgs" -o "$tmp/ledger" .
examples="quickstart ecommerce logistics monitoring recommend"
for ex in $examples; do
	go build -cover -coverpkg="$pkgs" -o "$tmp/ex-$ex" "./examples/$ex"
done

# Every run starts in the scratch directory, so the ledger's traces and
# anything else a program writes stay out of the repository.
cd "$tmp/run"
for w in scale-join apps-ml scale-delta serve-stream dist-scale; do
	"$tmp/ledger" --workload "$w" --trace 1 --seconds "$secs" >/dev/null 2>&1
done
"$tmp/rockbench" -exp all -n 300 >/dev/null
for ex in $examples; do
	"$tmp/ex-$ex" >/dev/null
done
"$tmp/rock" demo >/dev/null
for app in bank logistics sales; do
	"$tmp/rock" gen -app "$app" -n 400 -out "$tmp/run/$app" >/dev/null
	"$tmp/rock" detect -in "$tmp/run/$app" -rules "$tmp/run/$app/rules.ree" >/dev/null
	"$tmp/rock" clean -in "$tmp/run/$app" -rules "$tmp/run/$app/rules.ree" >/dev/null
done

go tool covdata func -i "$GOCOVERDIR" |
	awk '$NF == "0.0%" && $1 !~ /^github.com\/rockclean\/rock\/(cmd|examples|bench)\// { print; n++ }
	     END { print n + 0, "functions unreached" }'
