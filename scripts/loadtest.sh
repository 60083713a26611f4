#!/usr/bin/env bash
# loadtest.sh — smoke-test dmls-serve under pressure and record the result.
#
# Builds dmls-serve, starts it with a deliberately small -max-inflight so
# admission control is observable, replays every examples/suites/*.json as
# both a /v1/sweep and a /v1/plan request at higher client concurrency, and
# asserts the three robustness properties end to end:
#
#   1. every request is either served (200) or cleanly shed (429) — never
#      an unexplained error, and at this concurrency some MUST be shed;
#   2. /healthz answers 200 throughout the storm;
#   3. SIGTERM drains: the server exits 0 within the drain deadline.
#
# It also smoke-tests the metrics endpoint both ways: the default
# Prometheus text exposition must carry well-formed # TYPE lines and a
# populated request-duration histogram, and Accept: application/json must
# still serve the legacy JSON snapshot.
#
# Phase 2 is the circuit-breaker drill: a second server instance starts
# with -chaos-kernel-errors so every kernel computation fails, kernel-backed
# requests trip both route breakers, and the script asserts the full
# degraded-mode contract — /healthz says "degraded" (still 200), /v1/plan
# answers bound-model estimates with "degraded": true, /v1/sweep sheds 503
# with a positive Retry-After — then waits out the open window and proves
# the service heals: kernel-free probes close both breakers, /healthz says
# "ok" again, and the breaker gauges read "closed".
#
# The p50/p99/shed-rate summary lands in BENCH_PR<n>.json at the repo root,
# beside the older per-PR records (perfbench/ is the benchmark of record).
#
# Usage:
#   scripts/loadtest.sh                       # writes BENCH_PR7.json
#   OUT=/tmp/smoke.json scripts/loadtest.sh   # CI smoke, no baseline write
#   REQUESTS=20 CONCURRENCY=4 scripts/loadtest.sh

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_PR7.json}"
PORT="${PORT:-18080}"
REQUESTS="${REQUESTS:-60}"
CONCURRENCY="${CONCURRENCY:-8}"
MAX_INFLIGHT="${MAX_INFLIGHT:-2}"
DRAIN_TIMEOUT="${DRAIN_TIMEOUT:-10s}"

if [ -e "$OUT" ]; then
    echo "loadtest.sh: $OUT already exists (a committed perf baseline)." >&2
    echo "loadtest.sh: pass OUT=<path> to record this run without clobbering it." >&2
    exit 1
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/dmls-serve" ./cmd/dmls-serve
go build -o "$workdir/loadtest" ./scripts/loadtest

"$workdir/dmls-serve" -addr "127.0.0.1:$PORT" -max-inflight "$MAX_INFLIGHT" \
    -drain-timeout "$DRAIN_TIMEOUT" 2>"$workdir/serve.log" &
server_pid=$!
# Kill the server on any failure path so the trap's rm never races a writer.
trap 'kill "$server_pid" 2>/dev/null || true; wait "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

base="http://127.0.0.1:$PORT"
for _ in $(seq 1 100); do
    if curl -fsS -o /dev/null "$base/healthz" 2>/dev/null; then break; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "loadtest.sh: dmls-serve died on startup:" >&2
        cat "$workdir/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS -o /dev/null "$base/healthz" || { echo "loadtest.sh: server never became healthy" >&2; exit 1; }

"$workdir/loadtest" -base "$base" -suites examples/suites \
    -requests "$REQUESTS" -concurrency "$CONCURRENCY" \
    -server-max-inflight "$MAX_INFLIGHT" >"$workdir/summary.json"

summary=$(cat "$workdir/summary.json")
shed=$(echo "$summary" | jq -r .shed)
if [ "$shed" -eq 0 ]; then
    echo "loadtest.sh: expected admission control to shed at this concurrency, but shed=0" >&2
    exit 1
fi

# Metrics smoke, both content negotiations, scraped while the server is
# still warm from the storm:
#   - default GET /metrics is Prometheus text: # TYPE lines present and
#     well-formed, and the per-route duration histogram actually populated;
#   - Accept: application/json still serves the legacy JSON snapshot.
curl -fsS "$base/metrics" >"$workdir/metrics.prom"
if ! grep -q '^# TYPE dmls_requests_total counter$' "$workdir/metrics.prom"; then
    echo "loadtest.sh: Prometheus exposition missing dmls_requests_total TYPE line:" >&2
    cat "$workdir/metrics.prom" >&2
    exit 1
fi
if awk '/^# TYPE /{ if (NF != 4 || ($4 != "counter" && $4 != "gauge" && $4 != "histogram")) bad=1 } END { exit bad }' "$workdir/metrics.prom"; then :; else
    echo "loadtest.sh: malformed # TYPE line in Prometheus exposition:" >&2
    grep '^# TYPE' "$workdir/metrics.prom" >&2
    exit 1
fi
dur_count=$(awk '$1 ~ /^dmls_request_duration_seconds_count/ { sum += $2 } END { print sum + 0 }' "$workdir/metrics.prom")
if [ "$dur_count" -eq 0 ]; then
    echo "loadtest.sh: request-duration histogram empty after the load storm" >&2
    exit 1
fi
json_requests=$(curl -fsS -H 'Accept: application/json' "$base/metrics" | jq -r .requests_total)
if [ "$json_requests" -le 0 ]; then
    echo "loadtest.sh: legacy JSON metrics unreadable or empty (requests_total=$json_requests)" >&2
    exit 1
fi
echo "loadtest.sh: metrics smoke ok (duration observations: $dur_count, requests_total: $json_requests)" >&2

# Clean drain: SIGTERM, then the server must exit 0 inside the drain window.
kill -TERM "$server_pid"
drain_rc=0
wait "$server_pid" || drain_rc=$?
if [ "$drain_rc" -ne 0 ]; then
    echo "loadtest.sh: dmls-serve did not drain cleanly (exit $drain_rc):" >&2
    cat "$workdir/serve.log" >&2
    exit 1
fi
if ! grep -q "drained" "$workdir/serve.log"; then
    echo "loadtest.sh: no drain notice in the server log:" >&2
    cat "$workdir/serve.log" >&2
    exit 1
fi
trap 'rm -rf "$workdir"' EXIT

# ---------------------------------------------------------------------------
# Phase 2: circuit-breaker trip-and-recover drill.
#
# A fresh server instance where every kernel computation fails with a
# transient fault (-chaos-kernel-errors 999 outlasts every retry layer), a
# small breaker window so two failed requests per route trip it, and an
# open period long enough to assert the degraded contract before the
# half-open probe is admitted.
BREAKER_OPEN_FOR="${BREAKER_OPEN_FOR:-3s}"
PORT2=$((PORT + 1))
base2="http://127.0.0.1:$PORT2"

# The tripwire: a kernel-backed mrf suite. Small graph so the doomed
# retries burn milliseconds, not seconds.
cat >"$workdir/chaos-suite.json" <<'EOF'
{
  "name": "breaker drill: kernel-backed graph",
  "scenarios": [
    {
      "name": "bp dns, chaos target",
      "workload": {
        "family": "mrf",
        "graph": { "family": "dns", "vertices": 1200, "seed": 7 },
        "states": 2,
        "trials": 2
      },
      "hardware": { "preset": "dl980-core" },
      "protocol": { "kind": "shared-memory" },
      "max_workers": 4
    }
  ]
}
EOF

# The probe: a kernel-free, convergence-bearing suite. Closed-form, so it
# succeeds even under total kernel chaos — it exercises the degraded plan
# path (bound models exist) and later closes the breakers as the half-open
# probe.
cat >"$workdir/probe-suite.json" <<'EOF'
{
  "name": "breaker drill: kernel-free probe",
  "scenarios": [
    {
      "name": "conv ANN on K40s, 1 GbE two-stage tree",
      "workload": {
        "family": "gd-weak",
        "flops_per_example": 15e9,
        "batch_size": 128,
        "parameters": 25e6,
        "precision_bits": 32
      },
      "hardware": { "preset": "nvidia-k40" },
      "protocol": { "kind": "two-stage-tree", "bandwidth_bits_per_sec": 1e9 },
      "convergence": { "rule": "diminishing", "base_iterations": 50000, "critical_batch_growth": 32 },
      "max_workers": 128
    }
  ]
}
EOF
jq -c '{suite: .}' "$workdir/chaos-suite.json" >"$workdir/chaos-req.json"
jq -c '{suite: .}' "$workdir/probe-suite.json" >"$workdir/probe-req.json"
jq -c '{suite: .}' examples/suites/fig2-bandwidth-sweep.json >"$workdir/sweep-req.json"

"$workdir/dmls-serve" -addr "127.0.0.1:$PORT2" -chaos-kernel-errors 999 \
    -breaker-window 4 -breaker-min-samples 2 -breaker-failure-ratio 0.5 \
    -breaker-open-for "$BREAKER_OPEN_FOR" 2>"$workdir/serve2.log" &
server2_pid=$!
trap 'kill "$server2_pid" 2>/dev/null || true; wait "$server2_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

for _ in $(seq 1 100); do
    if curl -fsS -o /dev/null "$base2/healthz" 2>/dev/null; then break; fi
    if ! kill -0 "$server2_pid" 2>/dev/null; then
        echo "loadtest.sh: chaos dmls-serve died on startup:" >&2
        cat "$workdir/serve2.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS -o /dev/null "$base2/healthz" || { echo "loadtest.sh: chaos server never became healthy" >&2; exit 1; }

# Trip both breakers: two kernel-backed requests per route, every kernel
# attempt failing. Plans fail in-body (200 + error plans), sweeps fail
# in-body too — both Record(failure) on their route's breaker.
for _ in 1 2; do
    curl -s -o /dev/null -X POST -d @"$workdir/chaos-req.json" "$base2/v1/plan"
done
for _ in 1 2; do
    curl -s -o /dev/null -X POST -d @"$workdir/chaos-req.json" "$base2/v1/sweep"
done

# Open-state contract. /healthz: degraded but alive (200).
hz=$(curl -fsS "$base2/healthz")
if [ "$hz" != "degraded" ]; then
    echo "loadtest.sh: healthz should report degraded while breakers are open, got: $hz" >&2
    exit 1
fi

# /v1/plan: answered degraded — bound-model estimates, flagged as such.
curl -fsS -X POST -d @"$workdir/probe-req.json" "$base2/v1/plan" >"$workdir/degraded-plan.json"
if [ "$(jq -r .degraded "$workdir/degraded-plan.json")" != "true" ]; then
    echo "loadtest.sh: open plan breaker should serve degraded plans:" >&2
    cat "$workdir/degraded-plan.json" >&2
    exit 1
fi
if [ "$(jq -r '.plans[0].bound_time_seconds > 0' "$workdir/degraded-plan.json")" != "true" ]; then
    echo "loadtest.sh: degraded plan carries no bound-model estimate:" >&2
    cat "$workdir/degraded-plan.json" >&2
    exit 1
fi

# /v1/sweep: shed with 503 and a positive integer Retry-After.
sweep_code=$(curl -s -o /dev/null -w '%{http_code}' -D "$workdir/sweep-headers" \
    -X POST -d @"$workdir/sweep-req.json" "$base2/v1/sweep")
if [ "$sweep_code" != "503" ]; then
    echo "loadtest.sh: open sweep breaker should shed 503, got $sweep_code" >&2
    exit 1
fi
retry_after=$(awk 'tolower($1) == "retry-after:" { gsub("\r", "", $2); print $2 }' "$workdir/sweep-headers")
case "$retry_after" in
    ''|*[!0-9]*) echo "loadtest.sh: 503 shed carries no integer Retry-After (got '$retry_after')" >&2; exit 1 ;;
esac
if [ "$retry_after" -lt 1 ]; then
    echo "loadtest.sh: Retry-After must be >= 1, got $retry_after" >&2
    exit 1
fi

# Metrics while degraded: breakers open, degraded counters moving, and the
# chaos faults actually went through the retry path first.
curl -fsS -H 'Accept: application/json' "$base2/metrics" >"$workdir/metrics2-open.json"
for check in \
    '.breaker_plan == "open"' \
    '.breaker_sweep == "open"' \
    '.degraded_plans_total >= 1' \
    '.degraded_shed_total >= 1' \
    '.retries_total > 0'; do
    if [ "$(jq -r "$check" "$workdir/metrics2-open.json")" != "true" ]; then
        echo "loadtest.sh: degraded-state metrics check failed: $check" >&2
        cat "$workdir/metrics2-open.json" >&2
        exit 1
    fi
done
echo "loadtest.sh: breakers tripped — healthz degraded, plans degraded, sweeps shed with Retry-After $retry_after" >&2

# Recovery: wait out the open period, then send kernel-free probes. The
# half-open breakers admit one probe each; closed-form suites succeed even
# under chaos, so both breakers close and the service heals.
sleep "$(echo "$BREAKER_OPEN_FOR" | sed 's/s$//').2"
curl -fsS -X POST -d @"$workdir/probe-req.json" "$base2/v1/plan" >"$workdir/recovered-plan.json"
if [ "$(jq -r '.degraded == true' "$workdir/recovered-plan.json")" = "true" ]; then
    echo "loadtest.sh: plan still degraded after the breaker's open period:" >&2
    cat "$workdir/recovered-plan.json" >&2
    exit 1
fi
recovered_code=$(curl -s -o /dev/null -w '%{http_code}' \
    -X POST -d @"$workdir/sweep-req.json" "$base2/v1/sweep")
if [ "$recovered_code" != "200" ]; then
    echo "loadtest.sh: sweep still shed after the breaker's open period (got $recovered_code)" >&2
    exit 1
fi
hz=$(curl -fsS "$base2/healthz")
if [ "$hz" != "ok" ]; then
    echo "loadtest.sh: healthz should be back to ok after recovery, got: $hz" >&2
    exit 1
fi
curl -fsS -H 'Accept: application/json' "$base2/metrics" >"$workdir/metrics2-closed.json"
for check in '.breaker_plan == "closed"' '.breaker_sweep == "closed"'; do
    if [ "$(jq -r "$check" "$workdir/metrics2-closed.json")" != "true" ]; then
        echo "loadtest.sh: post-recovery metrics check failed: $check" >&2
        cat "$workdir/metrics2-closed.json" >&2
        exit 1
    fi
done
echo "loadtest.sh: breakers recovered — healthz ok, both breaker gauges closed" >&2

kill -TERM "$server2_pid"
drain2_rc=0
wait "$server2_pid" || drain2_rc=$?
if [ "$drain2_rc" -ne 0 ]; then
    echo "loadtest.sh: chaos dmls-serve did not drain cleanly (exit $drain2_rc):" >&2
    cat "$workdir/serve2.log" >&2
    exit 1
fi
trap 'rm -rf "$workdir"' EXIT

echo "$summary" | jq '. + {"clean_drain": true, "breaker_drill": "pass"}' >"$OUT"
echo "loadtest.sh: wrote $OUT" >&2
cat "$OUT"
