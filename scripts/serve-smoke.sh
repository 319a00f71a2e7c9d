#!/bin/sh
# abs-serve smoke: boot one abs-serve with stamped build identity, the
# race meta-backend as the service default and a DABS admission radius,
# then assert the operator surface end to end —
#   * GET /v1/backends lists every registered backend (straight, sb,
#     tabu, race);
#   * a quick job that names "backend": "race" runs to done and reports
#     backend "race" in its result;
#   * a bogus backend name is a 400 whose body lists the registry;
#   * /metrics carries abs_build_info (the ldflags stamp), the uptime
#     gauge, native histogram _bucket series and the per-backend
#     abs_backend_* ingest counters;
#   * /v1/jobs/{id}/trace returns a parseable NDJSON causal trace and a
#     well-formed Chrome trace (?format=chrome) holding the job's
#     lifecycle spans;
#   * while a longer race job runs, the distance-bucketed pool reports
#     at least 2 occupied buckets (abs_pool_distance_buckets_occupied,
#     read at scrape time) and GET /v1/backends shows units on every
#     portfolio member.
# Needs only the Go toolchain, curl and (preferably) python3 — without
# python3 the trace check degrades to grep-level shape assertions.
set -eu

cd "$(dirname "$0")/.."

# Guard: the cd above must have landed at the repository root. When it
# did not (symlinked or copied script, exotic $0), every later step
# would fail with a confusing Go error; fail fast and say why instead.
if ! grep -q '^module abs$' go.mod 2>/dev/null; then
	echo "$(basename "$0"): must run from the abs repository root (go.mod with 'module abs' not found in $(pwd))" >&2
	echo "$(basename "$0"): invoke as scripts/$(basename "$0") from the checkout root" >&2
	exit 2
fi

GO=${GO:-go}
VERSION=${VERSION:-$(git describe --tags --always --dirty 2>/dev/null || echo dev)}
COMMIT=${COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}

TMP=$(mktemp -d)
SRV_PID=
cleanup() {
	[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
	echo "serve-smoke: FAIL: $*" >&2
	if [ -s "$TMP/serve.log" ]; then
		echo "--- abs-serve log ---" >&2
		cat "$TMP/serve.log" >&2
	fi
	if [ -s "$TMP/metrics.prom" ]; then
		echo "--- last /metrics (abs_pool_*) ---" >&2
		grep -E '^abs_pool_' "$TMP/metrics.prom" >&2 || true
	fi
	exit 1
}

# submit BODY: POST one job and print its id.
submit() {
	REPLY=$(curl -sf -X POST "http://$BASE/v1/jobs" -d "$1") || fail "job submit: $1"
	JOB=$(printf '%s' "$REPLY" | sed -n 's/.*"id":[[:space:]]*"\([^"]*\)".*/\1/p')
	[ -n "$JOB" ] || fail "submit reply has no job id: $REPLY"
	printf '%s' "$JOB"
}

echo "serve-smoke: building abs-serve ($VERSION @ $COMMIT)"
$GO build -ldflags "-X abs/internal/telemetry.version=$VERSION -X abs/internal/telemetry.commit=$COMMIT" \
	-o "$TMP/abs-serve" ./cmd/abs-serve

# radius 2 turns the Hamming admission policy on for every job.
"$TMP/abs-serve" -addr 127.0.0.1:0 -gpus 2 -sms 2 -backend race -diversity radius=2 \
	>"$TMP/serve.log" 2>&1 &
SRV_PID=$!

# The service binds an ephemeral port; read it off the listen line.
BASE=
i=0
while [ $i -lt 50 ]; do
	BASE=$(sed -n 's#.*listening on http://\([^/]*\)/v1/jobs.*#\1#p' "$TMP/serve.log" | head -1)
	[ -n "$BASE" ] && break
	kill -0 "$SRV_PID" 2>/dev/null || fail "abs-serve exited before listening"
	sleep 0.2
	i=$((i + 1))
done
[ -n "$BASE" ] || fail "no listen address after 10s"
echo "serve-smoke: abs-serve on $BASE (default backend: race, diversity radius=2)"

# The registry listing.
LIST=$(curl -sf "http://$BASE/v1/backends") || fail "GET /v1/backends"
for want in straight sb tabu race; do
	printf '%s' "$LIST" | grep -q "\"name\":[[:space:]]*\"$want\"" ||
		fail "/v1/backends missing \"$want\": $LIST"
done
echo "serve-smoke: /v1/backends lists the registry"

# One quick job pinned to the race meta-backend, then wait for it to
# settle.
ID=$(submit '{"random": {"n": 32, "seed": 7}, "max_flips": 200000, "backend": "race", "name": "serve-smoke"}')
STATE=
i=0
while [ $i -lt 150 ]; do
	STATE=$(curl -sf "http://$BASE/v1/jobs/$ID" | sed -n 's/.*"state":[[:space:]]*"\([^"]*\)".*/\1/p')
	[ "$STATE" = done ] && break
	[ "$STATE" = failed ] && fail "job failed"
	sleep 0.2
	i=$((i + 1))
done
[ "$STATE" = done ] || fail "job still '$STATE' after 30s"
FINAL=$(curl -sf "http://$BASE/v1/jobs/$ID") || fail "final job fetch"
printf '%s' "$FINAL" | grep -q '"backend":[[:space:]]*"race"' ||
	fail "result does not report backend \"race\": $FINAL"
echo "serve-smoke: job $ID done on the race backend"

# An unknown backend is a 400 that lists the registry.
CODE=$(curl -s -o "$TMP/bad.json" -w '%{http_code}' -X POST "http://$BASE/v1/jobs" \
	-d '{"random": {"n": 32, "seed": 7}, "max_flips": 1000, "backend": "columnar"}')
[ "$CODE" = 400 ] || fail "unknown backend returned HTTP $CODE, want 400"
for want in straight sb tabu race; do
	grep -q "$want" "$TMP/bad.json" ||
		fail "400 body does not list \"$want\": $(cat "$TMP/bad.json")"
done
echo "serve-smoke: unknown backend rejected with the registry listed"

# The metrics surface: build identity, native histograms and the
# per-backend ingest counters.
curl -sf "http://$BASE/metrics" >"$TMP/metrics.prom" || fail "/metrics scrape"
grep -q '^abs_build_info{version=' "$TMP/metrics.prom" || fail "/metrics missing abs_build_info"
grep -q "^abs_build_info{version=\"$VERSION" "$TMP/metrics.prom" ||
	fail "abs_build_info does not carry the stamped version $VERSION"
grep -q '^abs_uptime_seconds ' "$TMP/metrics.prom" || fail "/metrics missing abs_uptime_seconds"
grep -q '^abs_serve_stage_seconds_bucket{' "$TMP/metrics.prom" ||
	fail "/metrics missing abs_serve_stage_seconds_bucket series"
grep -q 'le="+Inf"' "$TMP/metrics.prom" || fail "histogram export missing the +Inf bucket"
grep -q '^abs_backend_inserted_total{backend=' "$TMP/metrics.prom" ||
	fail "/metrics missing abs_backend_inserted_total series"
grep -q '^abs_backend_improvements_total{backend=' "$TMP/metrics.prom" ||
	fail "/metrics missing abs_backend_improvements_total series"
echo "serve-smoke: metrics ok ($(grep -c '^abs_' "$TMP/metrics.prom") abs_* samples)"

# The trace surface: NDJSON and Chrome formats.
curl -sf "http://$BASE/v1/jobs/$ID/trace" >"$TMP/trace.ndjson" || fail "trace fetch"
curl -sf "http://$BASE/v1/jobs/$ID/trace?format=chrome" >"$TMP/trace.json" || fail "chrome trace fetch"
[ -s "$TMP/trace.ndjson" ] || fail "empty NDJSON trace"
if command -v python3 >/dev/null 2>&1; then
	python3 - "$TMP/trace.ndjson" "$TMP/trace.json" <<'PY' || fail "trace validation"
import json, sys

spans, events, names = 0, 0, set()
for line in open(sys.argv[1]):
    line = line.strip()
    if not line:
        continue
    rec = json.loads(line)
    if "span" in rec:
        spans += 1
        names.add(rec["span"].get("name"))
    elif "event" in rec:
        events += 1
    else:
        sys.exit("NDJSON line is neither span nor event: " + line)
for want in ("job", "job.queue", "job.run"):
    if want not in names:
        sys.exit("trace is missing the %r lifecycle span (got %s)" % (want, sorted(names)))

chrome = json.load(open(sys.argv[2]))
if not isinstance(chrome, list) or not chrome:
    sys.exit("chrome trace is not a non-empty JSON array")
slices = {r.get("name") for r in chrome if r.get("ph") == "X"}
for want in ("job", "job.queue", "job.run"):
    if want not in slices:
        sys.exit("chrome trace is missing the %r slice" % want)
print("serve-smoke: trace ok (%d spans, %d events, %d chrome records)" % (spans, events, len(chrome)))
PY
else
	echo "serve-smoke: python3 not found, grep-level trace checks only" >&2
	grep -q '"span"' "$TMP/trace.ndjson" || fail "NDJSON trace has no span lines"
	grep -q '"name":"job.run"' "$TMP/trace.ndjson" || fail "NDJSON trace missing job.run span"
	grep -q '"name":"job.run"' "$TMP/trace.json" || fail "chrome trace missing job.run slice"
fi

# A longer race job: scrape while it runs until the pool shows spread
# and every portfolio member holds units (or time out at ~15s).
ID=$(submit '{"random": {"n": 64, "seed": 7}, "time": "20s", "backend": "race", "name": "serve-smoke-diversity"}')
echo "serve-smoke: job $ID running"
BUCKETS_OK=
SPLIT_OK=
i=0
while [ $i -lt 50 ]; do
	# The distance-bucketed pool keeps spread: >= 2 occupied buckets.
	if [ -z "$BUCKETS_OK" ]; then
		curl -sf "http://$BASE/metrics" >"$TMP/metrics.prom" || fail "/metrics scrape"
		BUCKETS=$(awk -F' ' '/^abs_pool_distance_buckets_occupied / { print int($2) }' "$TMP/metrics.prom")
		if [ "${BUCKETS:-0}" -ge 2 ]; then
			BUCKETS_OK=1
			echo "serve-smoke: pool occupies $BUCKETS distance buckets"
		fi
	fi

	# The race job's fixed split puts units on every member.
	if [ -z "$SPLIT_OK" ]; then
		LIST=$(curl -sf "http://$BASE/v1/backends" | tr -d ' \n') || fail "GET /v1/backends"
		SPLIT_OK=1
		for member in straight sb tabu; do
			printf '%s' "$LIST" | grep -q "\"name\":\"$member\"[^}]*\"units\":[1-9]" || SPLIT_OK=
		done
		[ -n "$SPLIT_OK" ] && echo "serve-smoke: /v1/backends shows units on straight, sb and tabu"
	fi

	[ -n "$BUCKETS_OK" ] && [ -n "$SPLIT_OK" ] && break
	sleep 0.3
	i=$((i + 1))
done
[ -n "$BUCKETS_OK" ] || fail "abs_pool_distance_buckets_occupied never reached 2"
[ -n "$SPLIT_OK" ] || fail "/v1/backends never showed units on every race member: $LIST"

# The job is still within budget: cancel it, we have what we came for.
curl -sf -X DELETE "http://$BASE/v1/jobs/$ID" >/dev/null || true

kill "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
echo "serve-smoke: PASS"
