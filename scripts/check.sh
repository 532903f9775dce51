#!/usr/bin/env bash
# The full local gate: everything CI runs, in the order of fastest feedback.
#
#   ./scripts/check.sh
#
# All cargo invocations are --offline: the workspace builds against the
# vendored `compat/` stubs and must never touch the network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo xtask lint"
cargo xtask lint

echo "==> cargo xtask analyze"
# The AST-level gate (crates/analyze): determinism, Eq. 1 conservation,
# telemetry coverage, unit safety. The JSON report is the artifact CI
# archives; a human-readable rerun is one `cargo xtask analyze` away.
cargo xtask analyze --format json > analyze-report.json \
    || { cat analyze-report.json; exit 1; }

echo "==> cargo clippy"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> telemetry smoke (ceio-inspect)"
cargo build --offline -p ceio-bench --bin ceio-inspect
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
target/debug/ceio-inspect --scenario kv --millis 3 \
    --trace-out "$smoke_dir/trace.json" --prom-out "$smoke_dir/metrics.prom" \
    > "$smoke_dir/stdout.txt"
# ceio-inspect already self-validates both JSON documents before writing;
# here we assert the *content*: the trace must carry the paper's mechanism
# events and the metrics must span the whole pipeline.
for ev in credit-grant credit-deny slow-phase slow-park slow-fetch \
          rule-rewrite-slow dma-write-issue delivery; do
    grep -q "\"name\":\"$ev\"" "$smoke_dir/trace.json" \
        || { echo "telemetry smoke: trace is missing '$ev' events"; exit 1; }
done
for metric in ceio_ingress_admitted_total ceio_rmt_updates_total \
              ceio_onboard_bytes_written_total ceio_dma_writes_total \
              ceio_llc_miss_rate ceio_dram_requests_total \
              ceio_core_packets_total ceio_credit_consumed_total; do
    grep -q "^# TYPE $metric " "$smoke_dir/metrics.prom" \
        || { echo "telemetry smoke: metrics are missing '$metric'"; exit 1; }
done
# The invariant auditor is compiled into every build and armed at run
# time: the same binary under CEIO_AUDIT=1 must export a clean verdict.
CEIO_AUDIT=1 target/debug/ceio-inspect --scenario kv --millis 3 \
    --trace-out "$smoke_dir/audit-trace.json" --prom-out "$smoke_dir/audit-metrics.prom" \
    > "$smoke_dir/audit-stdout.txt"
grep -q "^ceio_audit_violations_total 0$" "$smoke_dir/audit-metrics.prom" \
    || { echo "telemetry smoke: CEIO_AUDIT=1 run exported no clean audit verdict"; exit 1; }
echo "telemetry smoke passed"

echo "==> queue-scaling smoke (ceio-inspect --queues 4)"
# The single-queue configuration is pinned byte-for-byte against the
# pre-refactor golden CSVs by `cargo test -p ceio-bench --test
# queue_determinism` in the test lanes above; here we assert the sharded
# side: a 4-queue run must shard work onto every queue and export
# per-queue labeled telemetry, while staying credit-conserving.
target/debug/ceio-inspect --scenario kv --millis 3 --queues 4 \
    --trace-out "$smoke_dir/q4-trace.json" --prom-out "$smoke_dir/q4-metrics.prom" \
    > "$smoke_dir/q4-stdout.txt"
grep -q "^ceio_rx_queues 4$" "$smoke_dir/q4-metrics.prom" \
    || { echo "queue smoke: snapshot does not report 4 receive queues"; exit 1; }
for q in 0 1 2 3; do
    grep -Eq "^ceio_rxq_issued_total\{queue=\"$q\"\} [1-9]" "$smoke_dir/q4-metrics.prom" \
        || { echo "queue smoke: queue $q issued no DMA writes — sharding inert"; exit 1; }
done
grep -q "^ceio_credit_conserved 1$" "$smoke_dir/q4-metrics.prom" \
    || { echo "queue smoke: hierarchical credit ledger not conserved"; exit 1; }
echo "queue-scaling smoke passed"

echo "==> chaos smoke (ceio-inspect under a canned fault storm)"
target/debug/ceio-inspect --scenario kv --millis 3 \
    --fault-plan smoke --seed 1234 \
    --trace-out "$smoke_dir/chaos-trace.json" \
    --prom-out "$smoke_dir/chaos-metrics.prom" \
    > "$smoke_dir/chaos-stdout.txt"
# Under injected faults the run must (a) stay credit-conserving and
# (b) actually exercise the recovery machinery — a smoke that injects
# nothing verifies nothing.
grep -q "^ceio_credit_conserved 1$" "$smoke_dir/chaos-metrics.prom" \
    || { echo "chaos smoke: credits not conserved under faults"; exit 1; }
for metric in ceio_chaos_injected_total ceio_recovery_dma_write_retries_total \
              ceio_credit_lease_reclaims_total; do
    grep -Eq "^$metric [1-9]" "$smoke_dir/chaos-metrics.prom" \
        || { echo "chaos smoke: '$metric' is zero — no faults exercised"; exit 1; }
done
for ev in dma-retry credit-release-lost credit-lease-reclaim; do
    grep -q "\"name\":\"$ev\"" "$smoke_dir/chaos-trace.json" \
        || { echo "chaos smoke: trace is missing '$ev' events"; exit 1; }
done
echo "chaos smoke passed"

echo "==> scope smoke (flight recorder, SLO alerts, report figures)"
# Reuses the ceio-inspect built above. A short traced run
# with an SLO that must fire (goodput above a hair over zero, held for
# two epochs) proves the whole observability loop: the recorder samples,
# the alert engine fires and exports, and the HTML report carries the
# paper-style figures.
target/debug/ceio-inspect report --scenario kv --millis 3 \
    --fault-plan smoke --seed 1234 \
    --slo 'alert=ci-smoke,when=goodput_gbps,above=0.0001,for=100us' \
    --trace-out "$smoke_dir/scope-trace.json" \
    --prom-out "$smoke_dir/scope-metrics.prom" \
    --out "$smoke_dir/ceio-report.html" > "$smoke_dir/scope-stdout.txt"
grep -Eq '^ceio_alert_fired_total\{alert="ci-smoke"\} [1-9]' "$smoke_dir/scope-metrics.prom" \
    || { echo "scope smoke: always-firing SLO never fired"; exit 1; }
grep -q '^ceio_run_info{' "$smoke_dir/scope-metrics.prom" \
    || { echo "scope smoke: run metadata missing from export"; exit 1; }
for chart in "LLC I/O occupancy vs. DDIO capacity" "Goodput over time"; do
    grep -q "$chart" "$smoke_dir/ceio-report.html" \
        || { echo "scope smoke: report is missing the '$chart' figure"; exit 1; }
done
grep -q "<svg" "$smoke_dir/ceio-report.html" \
    || { echo "scope smoke: report carries no inline SVG charts"; exit 1; }
grep -q '<tr><th>seed</th><td>1234</td></tr>' "$smoke_dir/ceio-report.html" \
    || { echo "scope smoke: report metadata is missing the seed row"; exit 1; }
echo "scope smoke passed"

echo "==> bench smoke (benchmark/: transparency tests + every workload at 2 s)"
# The end-to-end benchmark is its own Cargo workspace (benchmark/Cargo.toml).
# Its transparency tests pin path equivalence and BENCHMARK.json agreement.
# The short run gates on the exit status only: every workload's output
# digest must equal benchmark/expected.json, CEIO workloads must conserve
# credits, and no repetition may fail. Times on a 2 s budget are noise, so
# none is ever gated; the final JSON line is archived as bench-smoke.json.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --seconds 2 \
    > "$smoke_dir/bench-smoke.txt" \
    || { cat "$smoke_dir/bench-smoke.txt"; echo "bench smoke: a workload failed"; exit 1; }
tail -n 1 "$smoke_dir/bench-smoke.txt" > bench-smoke.json
echo "bench smoke passed"

echo "==> paper-suite goldens + ddio smoke (quick stdout of every figure, set-associative telemetry)"
# Every ceio-experiments target runs in quick mode, and its stdout must
# match crates/bench/tests/golden/quick/<name>.txt byte for byte: every
# miss rate, goodput, P99 and drop count of every paper figure. The
# goldens are concatenated in the order the targets print (the
# `experiments::all()` order), so a target added without a golden fails
# here. The release binary takes ~15-20 s for the lot; the debug binary
# would take ~130 s, which is why this lane is not part of `cargo test`.
# An intended change to a figure regenerates its golden by redirecting
# `ceio-experiments --quick <name>` stdout into the file.
# The ddio sweep's shapes (baseline monotonicity, CEIO flatness) are gated
# by in-module tests above; this lane also checks that it emits a
# well-formed BENCH_ddio.json (archived), and that a set-associative
# ceio-inspect run exports the per-way occupancy gauges and the
# DDIO-disabled bypass counter.
(cd "$smoke_dir" && "$OLDPWD/target/release/ceio-experiments" --quick --jobs 2 \
    > quick-stdout.txt)
for t in $(sed -n 's/^=== \([^ ]*\) (quick) ===$/\1/p' "$smoke_dir/quick-stdout.txt"); do
    cat "crates/bench/tests/golden/quick/$t.txt" \
        || { echo "paper-suite goldens: target '$t' has no golden"; exit 1; }
done > "$smoke_dir/quick-golden.txt"
diff -u "$smoke_dir/quick-golden.txt" "$smoke_dir/quick-stdout.txt" \
    || { echo "paper-suite goldens: quick output diverged (see crates/bench/tests/golden/quick/)"; exit 1; }
grep -q '"cold_start_rows"' "$smoke_dir/BENCH_ddio.json" \
    || { echo "ddio smoke: BENCH_ddio.json missing or malformed"; exit 1; }
cp "$smoke_dir/BENCH_ddio.json" BENCH_ddio.json
target/debug/ceio-inspect --scenario kv --millis 3 \
    --llc-model setassoc --ddio-ways 4 \
    --trace-out "$smoke_dir/ddio-trace.json" \
    --prom-out "$smoke_dir/ddio-metrics.prom" > "$smoke_dir/ddio-stdout2.txt"
grep -Eq '^ceio_llc_way_io_lines\{way="0"\} [0-9]' "$smoke_dir/ddio-metrics.prom" \
    || { echo "ddio smoke: set-associative run exports no per-way occupancy"; exit 1; }
grep -q '^# TYPE ceio_llc_bypass_total counter' "$smoke_dir/ddio-metrics.prom" \
    || { echo "ddio smoke: bypass counter missing from export"; exit 1; }
echo "paper-suite goldens + ddio smoke passed"

echo "==> failover smoke (queue-flap plan, 4 queues)"
# Reuses the ceio-inspect built above. The canned queue-flap
# plan must kill at least one RSS queue, the watchdog must fail it over
# and bring it back to Healthy, and the credit ledger must stay
# conserving across quarantine and restore. The run is audited: a
# head-dropped packet must not leave its flow's delivery front a hole
# that nothing can fill (or break any other machine invariant).
CEIO_AUDIT=1 target/debug/ceio-inspect --scenario kv --millis 3 --queues 4 \
    --fault-plan queue-flap --seed 42 \
    --trace-out "$smoke_dir/failover-trace.json" \
    --prom-out "$smoke_dir/failover-metrics.prom" \
    > "$smoke_dir/failover-stdout.txt"
for ev in queue-death queue-failed queue-recovered flow-resteer; do
    grep -q "\"name\":\"$ev\"" "$smoke_dir/failover-trace.json" \
        || { echo "failover smoke: trace is missing '$ev' events"; exit 1; }
done
for metric in ceio_failover_failures_total ceio_failover_recoveries_total \
              ceio_failover_flows_resteered_total; do
    grep -Eq "^$metric [1-9]" "$smoke_dir/failover-metrics.prom" \
        || { echo "failover smoke: '$metric' is zero — no failover exercised"; exit 1; }
done
grep -Eq '^ceio_queue_state\{queue="[0-3]"\} 0$' "$smoke_dir/failover-metrics.prom" \
    || { echo "failover smoke: no queue ended the run Healthy"; exit 1; }
grep -q "^ceio_credit_conserved 1$" "$smoke_dir/failover-metrics.prom" \
    || { echo "failover smoke: credits not conserved across quarantine/restore"; exit 1; }
grep -q "^ceio_audit_violations_total 0$" "$smoke_dir/failover-metrics.prom" \
    || { echo "failover smoke: the audited queue-flap run reported violations"; exit 1; }
echo "failover smoke passed"

echo "All checks passed."
