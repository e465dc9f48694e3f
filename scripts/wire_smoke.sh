#!/bin/sh
# Wire-plane smoke test: boot a real lsdgnn-server with the admin plane,
# check /metrics pre-registers the wire series
# (lsdgnn_cluster_wire_* including the pack-ratio gauge), then drive a
# sampling burst through lsdgnn-probe over TCP and assert the server
# actually counted its sectioned (OpPacked) frames and wire bytes.
set -eu
cd "$(dirname "$0")/.."

ADMIN_PORT=${ADMIN_PORT:-17499}
SERVE_PORT=${SERVE_PORT:-17498}
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
        echo "wire-smoke: server never became ready" >&2
        cat "$OUT/server.log" >&2
        exit 1
    fi
    sleep 1
done

# The wire series must exist from boot — a zero-valued but stable
# namespace is what dashboards and alerts key on.
curl -sf "http://127.0.0.1:$ADMIN_PORT/metrics" >"$OUT/metrics.before"
for series in \
    'lsdgnn_cluster_wire_bytes_total' \
    'lsdgnn_cluster_wire_bytes_in' \
    'lsdgnn_cluster_wire_bytes_out' \
    'lsdgnn_cluster_wire_frames_total' \
    'lsdgnn_cluster_wire_packed_frames' \
    'lsdgnn_cluster_wire_pack_ratio'; do
    if ! grep -q "$series" "$OUT/metrics.before"; then
        echo "wire-smoke: /metrics missing $series" >&2
        cat "$OUT/metrics.before" >&2
        exit 1
    fi
done

# Drive a burst over the wire (frame header + sectioned frames + BDI, all
# through real sockets). -mem makes the probe
# verify every scratch buffer went back to its pool and print the
# client-side buffer-pool series.
"$OUT/lsdgnn-probe" -addrs "127.0.0.1:$SERVE_PORT" -batches 8 -batch-size 48 -mem \
    >"$OUT/probe.log" 2>&1 || { cat "$OUT/probe.log" >&2; exit 1; }
grep -q 'probe: OK' "$OUT/probe.log"
grep -q 'protocol v5' "$OUT/probe.log" || {
    echo "wire-smoke: probe is not on protocol v5" >&2
    cat "$OUT/probe.log" >&2
    exit 1
}

# The buffer-pool layer must show real traffic on the probe side (the hot
# path allocates through it) and a pre-registered schema on the server.
grep -q '^lsdgnn_mem_pool_puts ' "$OUT/probe.log" || {
    echo "wire-smoke: probe printed no lsdgnn_mem_ series" >&2
    cat "$OUT/probe.log" >&2
    exit 1
}
PUTS=$(grep '^lsdgnn_mem_pool_puts ' "$OUT/probe.log" | awk '{print $2}')
case "$PUTS" in
    ''|0|0.0) echo "wire-smoke: probe counted no pool puts ($PUTS)" >&2; exit 1 ;;
esac
grep -q 'lsdgnn_mem_scratch_outstanding' "$OUT/metrics.before" || {
    echo "wire-smoke: /metrics missing lsdgnn_mem_scratch_outstanding" >&2
    exit 1
}

# The server's wire counters must have moved: nonzero total bytes and at
# least one packed frame observed.
curl -sf "http://127.0.0.1:$ADMIN_PORT/metrics" >"$OUT/metrics.after"
metric() {
    grep "^$1 " "$OUT/metrics.after" | awk '{print $2}' | head -n1
}
BYTES=$(metric lsdgnn_cluster_wire_bytes_total)
FRAMES=$(metric lsdgnn_cluster_wire_packed_frames)
case "$BYTES" in
    ''|0|0.0) echo "wire-smoke: wire_bytes_total did not move ($BYTES)" >&2; exit 1 ;;
esac
case "$FRAMES" in
    ''|0|0.0) echo "wire-smoke: no packed frames counted ($FRAMES)" >&2; exit 1 ;;
esac

echo "wire-smoke: OK (wire_bytes_total=$BYTES packed_frames=$FRAMES)"
