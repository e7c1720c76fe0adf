#!/usr/bin/env bash
# unreached.sh lists the production functions that no shipped program
# reaches. It builds coverage-instrumented binaries of the benchmark
# ledger, rockbench, the five examples, the rock CLI, rockd and
# rockworker into a temporary directory, runs
#
#   - every ledger workload, traced (--trace 1);
#   - rockbench -exp all -n 300;
#   - the five examples;
#   - rock gen / detect / clean / demo;
#   - a rockd session: ingest, fixes, query, metrics, healthz, drain;
#   - rock clean -distributed 2 with two rockworker processes;
#
# as CI's serve and distributed smokes drive them (the rockd session
# needs curl), and prints every function outside cmd/, examples/ and
# bench/ that no run reached (0.0 % coverage), then their count. It
# writes nothing inside the repository.
#
# Usage: scripts/unreached.sh [ledger seconds per workload, default 5]
# Takes about twelve minutes on two cores, most of it rockbench.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
secs=${1:-5}
tmp=$(mktemp -d)
pids="" # the background processes still running, stopped on any exit
trap 'kill $pids 2>/dev/null || true; rm -rf "$tmp"' EXIT
export GOCOVERDIR="$tmp/cov"
mkdir -p "$GOCOVERDIR" "$tmp/run"
pkgs=github.com/rockclean/rock/...

cd "$repo"
go build -cover -coverpkg="$pkgs" -o "$tmp/rockbench" ./cmd/rockbench
go build -cover -coverpkg="$pkgs" -o "$tmp/rock" ./cmd/rock
go build -cover -coverpkg="$pkgs" -o "$tmp/rockd" ./cmd/rockd
go build -cover -coverpkg="$pkgs" -o "$tmp/rockworker" ./cmd/rockworker
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

# waitfor prints the first capture of sed expression $2 in file $1,
# polling for up to ten seconds.
waitfor() {
	local got=""
	for _ in $(seq 1 100); do
		got=$(sed -n "$2" "$1")
		[ -n "$got" ] && break
		sleep 0.1
	done
	[ -n "$got" ] || { echo "unreached.sh: nothing matched in $1" >&2; cat "$1" >&2; exit 1; }
	echo "$got"
}

"$tmp/rockd" -addr 127.0.0.1:0 -tenants acme >"$tmp/run/rockd.log" 2>&1 &
rockd=$!
pids="$rockd"
addr=$(waitfor "$tmp/run/rockd.log" 's#^rockd: listening on \(.*\)$#\1#p')
token=$(curl -sf -X POST "http://$addr/v1/acme/ingest" \
	-d '{"rel":"Trans","tuples":[{"eid":"u-1","values":["p3","s3","Mate X2 (Limited Sold)","Huawei","5200","2023-08-12"]}]}' |
	sed -n 's/.*"token":\([0-9]*\).*/\1/p')
curl -sf "http://$addr/v1/acme/fixes?token=$token&timeout_ms=30000" >/dev/null
curl -sf "http://$addr/v1/acme/query?rel=Trans&tid=0&token=$token" >/dev/null
curl -sf "http://$addr/v1/acme/metrics" >/dev/null
curl -sf "http://$addr/healthz" >/dev/null
kill -TERM "$rockd"
wait "$rockd"
pids=""

"$tmp/rock" gen -app bank -n 400 -out "$tmp/run/dist" >/dev/null
"$tmp/rock" clean -in "$tmp/run/dist" -distributed 2 >"$tmp/run/dist.log" 2>&1 &
coord=$!
pids="$coord"
addr=$(waitfor "$tmp/run/dist.log" 's#^coordinator listening on \([^;]*\);.*$#\1#p')
"$tmp/rockworker" -coord "$addr" -in "$tmp/run/dist" >/dev/null 2>&1 &
w1=$!
pids="$pids $w1"
"$tmp/rockworker" -coord "$addr" -in "$tmp/run/dist" >/dev/null 2>&1 &
w2=$!
pids="$pids $w2"
wait "$coord"
wait "$w1"
wait "$w2"
pids=""

go tool covdata func -i "$GOCOVERDIR" |
	awk '$NF == "0.0%" && $1 !~ /^github.com\/rockclean\/rock\/(cmd|examples|bench)\// { print; n++ }
	     END { print n + 0, "functions unreached" }'
