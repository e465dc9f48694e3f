#!/bin/sh
# Pipeline smoke test: boot a real lsdgnn-server with the admin plane,
# check /metrics pre-registers the pipeline-executor series
# (lsdgnn_pipeline_*, zero-valued — the executor runs client-side), then
# drive a sampling burst through lsdgnn-probe (every batch runs on the
# executor) over TCP and assert the probe's own pipeline counters moved.
set -eu
cd "$(dirname "$0")/.."

ADMIN_PORT=${ADMIN_PORT:-17497}
SERVE_PORT=${SERVE_PORT:-17496}
OUT=$(mktemp -d)
trap 'kill $SRV_PID 2>/dev/null || true; rm -rf "$OUT"' EXIT

go build -o "$OUT/lsdgnn-server" ./cmd/lsdgnn-server
go build -o "$OUT/lsdgnn-probe" ./cmd/lsdgnn-probe

"$OUT/lsdgnn-server" -addr "127.0.0.1:$SERVE_PORT" -admin-addr "127.0.0.1:$ADMIN_PORT" \
    -dataset ss -log-level warn >"$OUT/server.log" 2>&1 &
SRV_PID=$!

i=0
until curl -sf "http://127.0.0.1:$ADMIN_PORT/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 60 ]; then
        echo "pipeline-smoke: server never became ready" >&2
        cat "$OUT/server.log" >&2
        exit 1
    fi
    sleep 1
done

# The pipeline series must exist from boot, zero-valued: workers export
# live values, but scrapes and alerts key on a namespace that is stable
# before the first pipelined batch ever runs.
curl -sf "http://127.0.0.1:$ADMIN_PORT/metrics" >"$OUT/metrics.before"
for series in \
    'lsdgnn_pipeline_inflight' \
    'lsdgnn_pipeline_inflight_peak' \
    'lsdgnn_pipeline_issued_requests' \
    'lsdgnn_pipeline_retired_requests' \
    'lsdgnn_pipeline_window_full_stalls' \
    'lsdgnn_pipeline_degraded_roots' \
    'lsdgnn_pipeline_batches'; do
    if ! grep -q "$series" "$OUT/metrics.before"; then
        echo "pipeline-smoke: /metrics missing $series" >&2
        cat "$OUT/metrics.before" >&2
        exit 1
    fi
done

# Drive a burst through the executor over real sockets, on a window small
# enough to stall. The probe prints its own
# lsdgnn_pipeline_* exposition after the run (the executor is a client
# construct; the server only pre-registers the schema).
"$OUT/lsdgnn-probe" -addrs "127.0.0.1:$SERVE_PORT" -batches 8 -batch-size 48 \
    -pipeline-window 64 >"$OUT/probe.log" 2>&1 || { cat "$OUT/probe.log" >&2; exit 1; }
grep -q 'probe: OK' "$OUT/probe.log"

metric() {
    grep "^$1 " "$OUT/probe.log" | awk '{print $2}' | head -n1
}
ISSUED=$(metric lsdgnn_pipeline_issued_requests)
RETIRED=$(metric lsdgnn_pipeline_retired_requests)
BATCHES=$(metric lsdgnn_pipeline_batches)
case "$ISSUED" in
    ''|0|0.0) echo "pipeline-smoke: issued_requests did not move ($ISSUED)" >&2; cat "$OUT/probe.log" >&2; exit 1 ;;
esac
if [ "$ISSUED" != "$RETIRED" ]; then
    echo "pipeline-smoke: issued ($ISSUED) != retired ($RETIRED) — leaked window slots" >&2
    exit 1
fi
case "$BATCHES" in
    ''|0|0.0) echo "pipeline-smoke: no batches counted ($BATCHES)" >&2; exit 1 ;;
esac

echo "pipeline-smoke: OK (issued=$ISSUED retired=$RETIRED batches=$BATCHES)"
