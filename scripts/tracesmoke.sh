#!/bin/sh
# tracesmoke is the end-to-end contract of request tracing: build
# sarserve, start it with sampling fully on, submit one real job over
# HTTP, assert the response carries an X-Trace-Id that matches the job
# record's trace_id, then render the trace with `sarlog trace` and
# assert the span tree covers the serving pipeline stage by stage
# (admission, queue wait, execution, ledger write).
# Run via `make tracesmoke`; wired into CI through `make check`.
set -eu
cd "$(dirname "$0")/.."

ADDR="${TRACESMOKE_ADDR:-127.0.0.1:18359}"
WORK="out/tracesmoke"
rm -rf "$WORK"
mkdir -p "$WORK"

go build -o "$WORK/sarserve" ./cmd/sarserve

"$WORK/sarserve" -addr "$ADDR" -j 2 -ledger "$WORK/runs" \
	-trace-sample 1 2> "$WORK/sarserve.log" &
PID=$!
trap 'kill "$PID" 2> /dev/null || true' EXIT

ready=0
for _ in $(seq 1 50); do
	if curl -sf "http://$ADDR/readyz" > /dev/null 2>&1; then
		ready=1
		break
	fi
	sleep 0.1
done
if [ "$ready" -ne 1 ]; then
	echo "tracesmoke: daemon never became ready"
	cat "$WORK/sarserve.log"
	exit 1
fi

# One synchronous job; capture headers and body separately.
status=$(curl -s -D "$WORK/headers.txt" -o "$WORK/job.json" -w '%{http_code}' \
	-X POST "http://$ADDR/v1/jobs?wait=1" \
	-H 'Content-Type: application/json' \
	-d '{"exp": "pipes", "tag": "tracesmoke"}')
if [ "$status" != "200" ]; then
	echo "tracesmoke: POST /v1/jobs?wait=1 answered $status, want 200"
	cat "$WORK/job.json"
	exit 1
fi

# The response must name its trace: a 32-hex X-Trace-Id header that the
# job record echoes as trace_id.
trace_id=$(tr -d '\r' < "$WORK/headers.txt" |
	awk -F': ' 'tolower($1) == "x-trace-id" { print $2 }')
case "$trace_id" in
*[!0-9a-f]* | '')
	echo "tracesmoke: bad X-Trace-Id header: '$trace_id'"
	cat "$WORK/headers.txt"
	exit 1
	;;
esac
if [ "${#trace_id}" -ne 32 ]; then
	echo "tracesmoke: X-Trace-Id '$trace_id' is not 32 hex chars"
	exit 1
fi
grep -q "\"trace_id\": \"$trace_id\"" "$WORK/job.json" || {
	echo "tracesmoke: job record does not carry trace_id $trace_id:"
	cat "$WORK/job.json"
	exit 1
}

# `sarlog trace <trace-id>` must render a non-empty span tree covering
# every pipeline stage with per-stage timings.
go run ./cmd/sarlog trace -dir "$WORK/runs" "$trace_id" > "$WORK/trace.txt" || {
	echo "tracesmoke: sarlog trace failed:"
	cat "$WORK/trace.txt"
	exit 1
}
for stage in request admission queue.wait execute ledger.write ms; do
	grep -q "$stage" "$WORK/trace.txt" || {
		echo "tracesmoke: span tree is missing '$stage':"
		cat "$WORK/trace.txt"
		exit 1
	}
done

kill -TERM "$PID"
wait "$PID" || {
	echo "tracesmoke: daemon did not drain cleanly"
	cat "$WORK/sarserve.log"
	exit 1
}
trap - EXIT

echo "tracesmoke: trace $trace_id spans the pipeline end to end"
