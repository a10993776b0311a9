#!/usr/bin/env bash
# Run the robustness-labelled test suites (net, parser-fuzz, resilience)
# under AddressSanitizer + UBSan, then the golden suite (`ctest -L golden`:
# every stream report and paper text entry, at jobs 1 and 8, against
# tests/golden/) under ASan too, then the concurrency-labelled suites
# (parallel survey determinism, pool races), the daemon-labelled streaming
# suites and the faulted survey goldens under ThreadSanitizer — so the
# retry/breaker state machines, the fault-injection paths and the parallel
# executor are sanitizer-clean on every change. A perf phase then runs the
# pipeline benchmark suites (optimized build, 5 repetitions) and writes the
# aggregates to BENCH_pipeline.json / BENCH_certs.json, so perf regressions
# in the interned analysis core and the §5 certificate pipeline are visible
# per change. An observability phase then starts `iotls_probe --serve` on an
# ephemeral port, scrapes /healthz and /metrics mid-survey, validates the
# exposition grammar and the scrape-vs-stats counter parity, and writes
# scrape latency to BENCH_obs.json. A daemon phase replays an exported
# fleet through iotlsd in three epochs and requires the live
# /report/table04 body to be byte-identical to the batch
# `iotls_audit --report=table04` output over the same events, recording
# epoch-fold latency to BENCH_daemon.json. A fleet-scale phase then runs
# the pipeline over a synthetic million-device fleet from both the CSV and
# the .iotlsnap snapshot input (byte-identical reports required), enforcing
# the snapshot's >=10x time-to-ready and <=half-RSS budgets and writing the
# measurements to BENCH_fleet.json. A fingerprint phase runs the
# `ctest -L fingerprint` suite (docs/FINGERPRINTING.md cross-checks), replays
# the daemon fixture through `iotlsd --certs` and requires every live §5
# report body (/report/certs, chains, issuers, ct, stacks, dualstack)
# byte-identical to the batch `iotls_audit --report=...` output at --jobs 1
# and 8, then times a
# dual-stack `iotls_probe --battery --all` survey into
# BENCH_fingerprint.json. Finally, a docs phase fails on broken relative
# links in README.md and docs/*.md.
#
# Usage: scripts/check_robustness.sh [ctest-args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j"$(nproc)"
ctest --preset robustness-asan -j"$(nproc)" "$@"
ctest --preset asan -L golden -j"$(nproc)" "$@"

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset concurrency-tsan -j"$(nproc)" "$@"
# The streaming folds and the memoized report render path (test_stream,
# test_fold_identity, test_cert_fold_identity, test_report_prefix: jobs 1
# and 8, with and without faults) under TSan too.
ctest --preset tsan -L daemon -j"$(nproc)" "$@"
# The faulted survey goldens (the certificate prober at jobs 1 and 8 and
# with a binding budget, the dual-stack battery at jobs 1 and 8) under TSan:
# both surveys share the probe engine's sharded driver.
ctest --preset tsan -L golden -R GoldenSurveys -j"$(nproc)" "$@"

cmake --preset default
cmake --build --preset default -j"$(nproc)" \
  --target test_perf test_cert_pipeline test_stack_fingerprint test_fold_identity \
  test_cert_fold_identity test_report_prefix test_golden \
  bench_perf_pipeline bench_cert_pipeline \
  iotls_probe bench_obs_overhead bench_fleet_snapshot iotlsd iotls_audit
ctest --preset default -L perf --output-on-failure
ctest --preset default -L golden --output-on-failure
# Median-of-5 aggregates; compare BENCH_pipeline.json / BENCH_certs.json
# against the previous run's copies to spot regressions (both gitignored).
./build/bench/bench_perf_pipeline \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_pipeline.json \
  --benchmark_out_format=json
./build/bench/bench_cert_pipeline \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_certs.json \
  --benchmark_out_format=json
./build/bench/bench_obs_overhead \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_obs_overhead.json \
  --benchmark_out_format=json
./build/bench/bench_fleet_snapshot \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_interchange.json \
  --benchmark_out_format=json

# Observability phase: start a fault-injected --jobs 8 survey with the
# export plane on an ephemeral port and --serve-linger=0 (keep serving until
# /quitquitquit), scrape /healthz and /metrics while it runs, check the
# exposition grammar and the scrape-vs-stats parity of net.probe.total, and
# record scrape latency to BENCH_obs.json (gitignored, like the other
# BENCH_* files).
obs_dir="$(mktemp -d)"
obs_probe_pid=""
obs_cleanup() {
  [ -n "$obs_probe_pid" ] && kill "$obs_probe_pid" 2>/dev/null || true
  rm -rf "$obs_dir"
}
trap obs_cleanup EXIT

./build/tools/iotls_probe --all --jobs=8 \
  --fault-spec=seed=7,timeout=0.1,reset=0.05 \
  --stats=json --serve=0 --serve-linger=0 \
  >"$obs_dir/stats.json" 2>"$obs_dir/probe.log" &
obs_probe_pid=$!

# The tool prints "obs: serving on 127.0.0.1:PORT" to stderr once bound.
obs_port=""
for _ in $(seq 1 100); do
  obs_port="$(sed -n 's/^obs: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$obs_dir/probe.log" | head -n1)"
  [ -n "$obs_port" ] && break
  kill -0 "$obs_probe_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$obs_port" ]; then
  echo "obs phase failed: iotls_probe never announced its port" >&2
  cat "$obs_dir/probe.log" >&2
  exit 1
fi

# curl when present, bash /dev/tcp otherwise (headers stripped either way).
obs_fetch() { # path outfile
  if command -v curl >/dev/null 2>&1; then
    curl -fsS --max-time 5 "http://127.0.0.1:$obs_port$1" -o "$2"
  else
    exec 3<>"/dev/tcp/127.0.0.1/$obs_port"
    printf 'GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n' "$1" >&3
    sed '1,/^\r\{0,1\}$/d' <&3 >"$2"
    exec 3>&-
  fi
}

obs_fetch /healthz "$obs_dir/healthz.json"
grep -q '"ok":true' "$obs_dir/healthz.json" || {
  echo "obs phase failed: /healthz not ok:" >&2
  cat "$obs_dir/healthz.json" >&2
  exit 1
}

# Timed /metrics scrapes (the last one lands after the survey finishes, so
# its counters are the end-of-run totals).
scrape_total=0 scrape_min=0 scrape_max=0 scrape_n=20
for i in $(seq 1 "$scrape_n"); do
  t0=$(date +%s%N)
  obs_fetch /metrics "$obs_dir/metrics.txt"
  dt=$(( $(date +%s%N) - t0 ))
  scrape_total=$((scrape_total + dt))
  if [ "$scrape_min" -eq 0 ] || [ "$dt" -lt "$scrape_min" ]; then scrape_min=$dt; fi
  if [ "$dt" -gt "$scrape_max" ]; then scrape_max=$dt; fi
done

# Exposition grammar: every line is a HELP/TYPE comment or `name[{labels}] value`.
awk '
  /^$/ { next }
  /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* / { next }
  /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+$/ { next }
  { print "bad exposition line: " $0; bad = 1 }
  END { exit bad }
' "$obs_dir/metrics.txt" || {
  echo "obs phase failed: /metrics violates the exposition grammar" >&2
  exit 1
}

# Release the lingering tool and collect its stats document.
obs_fetch /quitquitquit /dev/null
obs_rc=0
wait "$obs_probe_pid" || obs_rc=$?
obs_probe_pid=""
# Exit 1 just means the fault-injected survey saw problematic chains.
if [ "$obs_rc" -gt 1 ]; then
  echo "obs phase failed: iotls_probe exited $obs_rc" >&2
  cat "$obs_dir/probe.log" >&2
  exit 1
fi

# Scrape-vs-stats parity: the final /metrics value of net_probe_total must
# equal the "net.probe.total" counter in the --stats=json document.
scraped="$(sed -n 's/^net_probe_total \([0-9]*\)$/\1/p' "$obs_dir/metrics.txt")"
reported="$(grep -o '"net\.probe\.total":[0-9]*' "$obs_dir/stats.json" |
  head -n1 | cut -d: -f2)"
if [ -z "$scraped" ] || [ "$scraped" != "$reported" ]; then
  echo "obs phase failed: scrape/stats divergence (scraped='$scraped'" \
       "stats='$reported')" >&2
  exit 1
fi

printf '{"scrapes":%d,"total_ns":%d,"mean_ns":%d,"min_ns":%d,"max_ns":%d,"net_probe_total":%s}\n' \
  "$scrape_n" "$scrape_total" "$((scrape_total / scrape_n))" \
  "$scrape_min" "$scrape_max" "$scraped" > BENCH_obs.json
echo "obs phase OK: $scrape_n scrapes, mean $((scrape_total / scrape_n / 1000)) us," \
     "net_probe_total=$scraped matches --stats=json"

# Daemon phase: export a small fleet fixture, replay it through iotlsd in
# three epochs on an ephemeral port, and require the live /report/table04
# body to be byte-identical to `iotls_audit --report=table04` over the same
# events — the streamed fold and the cold batch share one code path, and
# this checks it end to end through real HTTP. Epoch-fold latency comes
# from the daemon's own stream.epoch_fold_ns histogram via /stats and lands
# in BENCH_daemon.json (gitignored, like the other BENCH_* files).
daemon_dir="$(mktemp -d)"
daemon_pid=""
daemon_cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$daemon_dir"
}
trap 'daemon_cleanup; obs_cleanup' EXIT

./build/tools/iotlsd --export-fleet="$daemon_dir/fleet" --users=40

./build/tools/iotlsd --port=0 --jobs=8 --epochs=3 \
  "$daemon_dir/fleet-events.csv" "$daemon_dir/fleet-devices.csv" \
  2>"$daemon_dir/iotlsd.log" &
daemon_pid=$!

# The daemon prints "iotlsd: serving on 127.0.0.1:PORT" to stderr once bound.
daemon_port=""
for _ in $(seq 1 100); do
  daemon_port="$(sed -n 's/^iotlsd: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$daemon_dir/iotlsd.log" | head -n1)"
  [ -n "$daemon_port" ] && break
  kill -0 "$daemon_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$daemon_port" ]; then
  echo "daemon phase failed: iotlsd never announced its port" >&2
  cat "$daemon_dir/iotlsd.log" >&2
  exit 1
fi

daemon_fetch() { # path outfile
  if command -v curl >/dev/null 2>&1; then
    curl -fsS --max-time 5 "http://127.0.0.1:$daemon_port$1" -o "$2"
  else
    exec 4<>"/dev/tcp/127.0.0.1/$daemon_port"
    printf 'GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n' "$1" >&4
    sed '1,/^\r\{0,1\}$/d' <&4 >"$2"
    exec 4>&-
  fi
}

# Wait for the replay to fold all three epochs.
echo '{}' > "$daemon_dir/epoch.json"
for _ in $(seq 1 200); do
  daemon_fetch /epoch "$daemon_dir/epoch.json" || true
  grep -q '"epoch":3' "$daemon_dir/epoch.json" && break
  sleep 0.1
done
if ! grep -q '"epoch":3' "$daemon_dir/epoch.json"; then
  echo "daemon phase failed: iotlsd never reached epoch 3:" >&2
  cat "$daemon_dir/epoch.json" >&2
  cat "$daemon_dir/iotlsd.log" >&2
  exit 1
fi

# The byte-identity contract, through real HTTP.
daemon_fetch /report/table04 "$daemon_dir/table04.live"
./build/tools/iotls_audit --report=table04 --jobs=8 \
  "$daemon_dir/fleet-events.csv" "$daemon_dir/fleet-devices.csv" \
  >"$daemon_dir/table04.batch"
if ! cmp -s "$daemon_dir/table04.live" "$daemon_dir/table04.batch"; then
  echo "daemon phase failed: live /report/table04 != batch --report=table04" >&2
  diff "$daemon_dir/table04.live" "$daemon_dir/table04.batch" >&2 || true
  exit 1
fi

# Epoch-fold latency from the daemon's own histogram.
daemon_fetch /stats "$daemon_dir/stats.json"
fold="$(grep -o '"stream\.epoch_fold_ns":{"count":[0-9]*,"sum":[0-9.eE+-]*' \
  "$daemon_dir/stats.json" | head -n1)"
fold_count="${fold#*\"count\":}"; fold_count="${fold_count%%,*}"
fold_sum="${fold##*\"sum\":}"
if [ -z "$fold_count" ] || [ "$fold_count" -ne 3 ]; then
  echo "daemon phase failed: expected 3 epoch folds, /stats says '$fold'" >&2
  exit 1
fi

daemon_fetch /quitquitquit /dev/null
daemon_rc=0
wait "$daemon_pid" || daemon_rc=$?
daemon_pid=""
if [ "$daemon_rc" -ne 0 ]; then
  echo "daemon phase failed: iotlsd exited $daemon_rc" >&2
  cat "$daemon_dir/iotlsd.log" >&2
  exit 1
fi

fold_mean="$(awk -v s="$fold_sum" -v c="$fold_count" 'BEGIN{printf "%.0f", s/c}')"
events="$(grep -o '"events":[0-9]*' "$daemon_dir/epoch.json" | head -n1 | cut -d: -f2)"
printf '{"epochs":%s,"events":%s,"fold_ns_sum":%s,"fold_ns_mean":%s}\n' \
  "$fold_count" "${events:-0}" "$fold_sum" "$fold_mean" > BENCH_daemon.json
echo "daemon phase OK: 3 epochs over ${events:-?} events," \
     "mean fold $((fold_mean / 1000000)) ms, live table04 == batch table04"

# Fingerprint phase: the docs/FINGERPRINTING.md cross-check suite, then the
# §5 batch/daemon byte-identity over the daemon phase's fleet fixture —
# `iotlsd --certs` must serve /report/{certs,chains,issuers,ct,stacks,
# dualstack} with exactly the bytes `iotls_audit --report=...` prints at
# --jobs 1 and --jobs 8 — and finally a timed dual-stack battery survey of the whole
# universe into BENCH_fingerprint.json (gitignored).
ctest --preset default -L fingerprint --output-on-failure

fp_pid=""
fp_cleanup() { [ -n "$fp_pid" ] && kill "$fp_pid" 2>/dev/null || true; }
trap 'fp_cleanup; daemon_cleanup; obs_cleanup' EXIT

./build/tools/iotlsd --port=0 --jobs=8 --epochs=3 --certs \
  "$daemon_dir/fleet-events.csv" "$daemon_dir/fleet-devices.csv" \
  2>"$daemon_dir/iotlsd-fp.log" &
fp_pid=$!

fp_port=""
for _ in $(seq 1 100); do
  fp_port="$(sed -n 's/^iotlsd: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$daemon_dir/iotlsd-fp.log" | head -n1)"
  [ -n "$fp_port" ] && break
  kill -0 "$fp_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$fp_port" ]; then
  echo "fingerprint phase failed: iotlsd never announced its port" >&2
  cat "$daemon_dir/iotlsd-fp.log" >&2
  exit 1
fi

fp_fetch() { # path outfile
  if command -v curl >/dev/null 2>&1; then
    curl -fsS --max-time 60 "http://127.0.0.1:$fp_port$1" -o "$2"
  else
    exec 5<>"/dev/tcp/127.0.0.1/$fp_port"
    printf 'GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n' "$1" >&5
    sed '1,/^\r\{0,1\}$/d' <&5 >"$2"
    exec 5>&-
  fi
}

echo '{}' > "$daemon_dir/epoch-fp.json"
for _ in $(seq 1 200); do
  fp_fetch /epoch "$daemon_dir/epoch-fp.json" || true
  grep -q '"epoch":3' "$daemon_dir/epoch-fp.json" && break
  sleep 0.1
done
if ! grep -q '"epoch":3' "$daemon_dir/epoch-fp.json"; then
  echo "fingerprint phase failed: iotlsd never reached epoch 3" >&2
  cat "$daemon_dir/iotlsd-fp.log" >&2
  exit 1
fi

for rpt in certs chains issuers ct stacks dualstack; do
  fp_fetch "/report/$rpt" "$daemon_dir/$rpt.live"
  for jobs in 1 8; do
    ./build/tools/iotls_audit --report="$rpt" --jobs="$jobs" \
      "$daemon_dir/fleet-events.csv" "$daemon_dir/fleet-devices.csv" \
      >"$daemon_dir/$rpt.batch-j$jobs"
    if ! cmp -s "$daemon_dir/$rpt.live" "$daemon_dir/$rpt.batch-j$jobs"; then
      echo "fingerprint phase failed: live /report/$rpt !=" \
           "batch --report=$rpt --jobs=$jobs" >&2
      diff "$daemon_dir/$rpt.live" "$daemon_dir/$rpt.batch-j$jobs" >&2 || true
      exit 1
    fi
  done
done

fp_fetch /quitquitquit /dev/null
fp_rc=0
wait "$fp_pid" || fp_rc=$?
fp_pid=""
if [ "$fp_rc" -ne 0 ]; then
  echo "fingerprint phase failed: iotlsd exited $fp_rc" >&2
  cat "$daemon_dir/iotlsd-fp.log" >&2
  exit 1
fi

t0=$(date +%s%N)
./build/tools/iotls_probe --battery --family=dual --all --jobs=8 \
  >"$daemon_dir/battery.out"
battery_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
battery_line="$(grep '^summary:' "$daemon_dir/battery.out")"
battery_snis="$(sed -n 's/^battery:.* over \([0-9]*\) SNIs$/\1/p' \
  "$daemon_dir/battery.out")"
battery_probes="$(printf '%s' "$battery_line" |
  sed -n 's/^summary: \([0-9]*\) probes.*/\1/p')"
if [ -z "$battery_snis" ] || [ -z "$battery_probes" ]; then
  echo "fingerprint phase failed: battery summary unparseable:" >&2
  cat "$daemon_dir/battery.out" >&2
  exit 1
fi
printf '{"snis":%s,"probes":%s,"wall_ms":%s}\n' \
  "$battery_snis" "$battery_probes" "$battery_ms" > BENCH_fingerprint.json
echo "fingerprint phase OK: live §5 reports == batch at jobs 1/8;" \
     "dual-stack battery over $battery_snis SNIs ($battery_probes probes)" \
     "in ${battery_ms} ms"
trap 'daemon_cleanup; obs_cleanup' EXIT

# Fleet-scale phase: the full pipeline over a synthetic million-device
# fleet on one machine (FLEET_DEVICES overrides the size; 2 events per
# device). Exports the fleet as CSVs plus a .iotlsnap snapshot, checks the
# iotlsd-written snapshot is byte-identical to the iotls_audit CSV
# converter's output, runs the same report from both inputs (CSV at
# --jobs=8, snapshot at --jobs=1 and --jobs=8) and requires all three
# bodies byte-identical. Records CSV re-parse time, snapshot time-to-ready
# (snapshot.open_ns: container validation + day-checkpoint scan, after
# which the fold streams straight off the map), peak RSS of both runs and
# report wall time to BENCH_fleet.json (gitignored), and enforces the
# budgets: snapshot open >= 10x faster than the CSV re-parse, streaming
# RSS <= half the CSV run's, report wall time <= 100 us/event.
fleet_devices="${FLEET_DEVICES:-1000000}"
fleet_dir="$(mktemp -d)"
fleet_cleanup() { rm -rf "$fleet_dir"; }
trap 'fleet_cleanup; daemon_cleanup; obs_cleanup' EXIT

echo "fleet phase: exporting $fleet_devices synthetic devices..."
./build/tools/iotlsd --export-fleet="$fleet_dir/fleet" --wire \
  --synthetic="$fleet_devices",2 --snapshot="$fleet_dir/fleet.iotlsnap" \
  2>"$fleet_dir/export.log" || {
  echo "fleet phase failed: export:" >&2; cat "$fleet_dir/export.log" >&2
  exit 1
}

# Converter identity: the CSV->snapshot converter (which also verifies
# every section CRC) must produce the exact bytes iotlsd wrote.
./build/tools/iotls_audit --export-snapshot="$fleet_dir/converted.iotlsnap" \
  "$fleet_dir/fleet-events.csv" "$fleet_dir/fleet-devices.csv" >/dev/null
if ! cmp -s "$fleet_dir/fleet.iotlsnap" "$fleet_dir/converted.iotlsnap"; then
  echo "fleet phase failed: converter snapshot != daemon snapshot" >&2
  exit 1
fi
rm "$fleet_dir/converted.iotlsnap"

# `hist_sum file name` -> integer nanosecond sum of a --stats=json histogram.
hist_sum() {
  grep -o "\"$2\":{\"count\":[0-9]*,\"sum\":[0-9.eE+-]*" "$1" |
    head -n1 | sed 's/.*"sum"://' | awk '{printf "%.0f", $1}'
}
rss_peak() {
  grep -o '"process\.rss_peak_bytes":[0-9]*' "$1" | head -n1 | cut -d: -f2
}

t0=$(date +%s%N)
./build/tools/iotls_audit --report=table02 --jobs=8 --stats=json \
  "$fleet_dir/fleet-events.csv" "$fleet_dir/fleet-devices.csv" \
  >"$fleet_dir/csv.json" 2>"$fleet_dir/csv.stats"
csv_ms=$(( ($(date +%s%N) - t0) / 1000000 ))

t0=$(date +%s%N)
./build/tools/iotls_audit --report=table02 --jobs=1 --stats=json \
  --snapshot="$fleet_dir/fleet.iotlsnap" \
  >"$fleet_dir/snap-j1.json" 2>"$fleet_dir/snap.stats"
snap_ms=$(( ($(date +%s%N) - t0) / 1000000 ))

./build/tools/iotls_audit --report=table02 --jobs=8 \
  --snapshot="$fleet_dir/fleet.iotlsnap" >"$fleet_dir/snap-j8.json"

for body in snap-j1 snap-j8; do
  if ! cmp -s "$fleet_dir/csv.json" "$fleet_dir/$body.json"; then
    echo "fleet phase failed: $body report != CSV report" >&2
    exit 1
  fi
done

csv_parse_ns="$(hist_sum "$fleet_dir/csv.stats" 'fleet\.csv_parse_ns')"
open_ns="$(hist_sum "$fleet_dir/snap.stats" 'snapshot\.open_ns')"
csv_rss="$(rss_peak "$fleet_dir/csv.stats")"
snap_rss="$(rss_peak "$fleet_dir/snap.stats")"
fleet_events=$((fleet_devices * 2))
if [ -z "$csv_parse_ns" ] || [ -z "$open_ns" ] || [ "$open_ns" -eq 0 ]; then
  echo "fleet phase failed: missing timing histograms" >&2
  exit 1
fi
speedup=$((csv_parse_ns / open_ns))
us_per_event=$((snap_ms * 1000 / fleet_events))

fleet_fail=0
if [ "$speedup" -lt 10 ]; then
  echo "fleet phase failed: snapshot open only ${speedup}x faster than" \
       "CSV re-parse (budget: >=10x)" >&2
  fleet_fail=1
fi
# The RSS budget only separates once the dataset dwarfs the process
# baseline (corpus, code, allocator slack) — skip it for small overrides.
if [ "$fleet_devices" -ge 100000 ] &&
   [ "$snap_rss" -gt $((csv_rss / 2)) ]; then
  echo "fleet phase failed: streaming RSS $snap_rss > half of CSV RSS" \
       "$csv_rss" >&2
  fleet_fail=1
fi
if [ "$us_per_event" -gt 100 ]; then
  echo "fleet phase failed: report took $us_per_event us/event" \
       "(budget: <=100)" >&2
  fleet_fail=1
fi
[ "$fleet_fail" -eq 0 ] || exit 1

printf '{"devices":%s,"events":%s,"csv_parse_ns":%s,"snapshot_open_ns":%s,"open_speedup":%s,"csv_report_ms":%s,"snapshot_report_ms":%s,"csv_rss_peak_bytes":%s,"snapshot_rss_peak_bytes":%s}\n' \
  "$fleet_devices" "$fleet_events" "$csv_parse_ns" "$open_ns" "$speedup" \
  "$csv_ms" "$snap_ms" "$csv_rss" "$snap_rss" > BENCH_fleet.json
echo "fleet phase OK: $fleet_devices devices; snapshot open ${speedup}x" \
     "faster than CSV re-parse; RSS $snap_rss vs $csv_rss; reports identical"
fleet_cleanup
trap 'daemon_cleanup; obs_cleanup' EXIT

# Docs phase: every relative link in README.md and docs/*.md must resolve.
# External links (http/https/mailto) and pure #anchors are skipped; a
# #fragment on a relative link is stripped before the existence check.
docs_failed=0
for doc in README.md docs/*.md; do
  [ -e "$doc" ] || continue
  dir="$(dirname "$doc")"
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*|'') continue ;;
    esac
    path="${target%%#*}"
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $doc -> $target" >&2
      docs_failed=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//')
done
if [ "$docs_failed" -ne 0 ]; then
  echo "docs phase failed: broken relative links" >&2
  exit 1
fi
echo "docs phase OK: all relative links resolve"
