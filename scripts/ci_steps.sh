#!/usr/bin/env bash
# Single source of truth for the CI gate. Both scripts/verify.sh (local) and
# .github/workflows/ci.yml (CI) invoke the steps registered here, and the
# `parity` subcommand fails when either side drifts from the registry — so
# the local gate and CI cannot silently diverge.
#
# Usage:
#   ci_steps.sh list         print the registered step names, in order
#   ci_steps.sh run <step>   run one step
#   ci_steps.sh all          run every step, in order
#   ci_steps.sh parity       check verify.sh and ci.yml against the registry
set -euo pipefail
cd "$(dirname "$0")/.."

# Toolchain prefix override: CI's lint job pins an exact toolchain by
# exporting CARGO="cargo +<version>"; everywhere else plain `cargo` resolves
# through rust-toolchain.toml.
CARGO=${CARGO:-cargo}

# Ordered step registry. Adding a step here without wiring it into ci.yml
# (or vice versa) fails `parity`.
CI_STEPS=(fmt clippy build test check-targets doc analyze bench-pair-selftest quickstart figures-smoke bench-e2e-standalone serve-smoke wal-smoke)

run_step() {
  echo "==> $1"
  case "$1" in
    fmt) $CARGO fmt --all --check ;;
    clippy) $CARGO clippy --workspace --all-targets -- -D warnings ;;
    build) $CARGO build --release --workspace ;;
    test) $CARGO test --workspace -q ;;
    check-targets) $CARGO check --workspace --examples --benches --bins ;;
    doc) RUSTDOCFLAGS="-D warnings" $CARGO doc --workspace --no-deps --quiet ;;
    analyze)
      # Static analysis + deep invariants (see ROADMAP "Static analysis &
      # invariants"). The line rules (no unsafe, no library panics, one
      # thread spawner, no library clock reads, reasoned suppressions) are
      # the [workspace.lints] table, which the `clippy` step enforces.
      # Three legs here:
      #  1. the sitfact-audit cross-file drift pass over the whole tree (its
      #     report is uploaded as a CI artifact),
      #  2. the test suite re-run in release mode with the deep `Audit`
      #     validators compiled in (debug test runs get them for free via
      #     debug_assertions; this leg proves the release gate too),
      #  3. the randomized audit_storm smoke over every audited structure.
      $CARGO run --release -p sitfact-audit --bin audit -- \
        --report /tmp/sitfact_audit_report.txt
      $CARGO test --release -q -p situational-facts --features deep-audit
      $CARGO run --release -p sitfact-bench --features deep-audit \
        --bin audit_storm ;;
    bench-pair-selftest)
      # The verdict rules of scripts/bench_pair.sh on canned runs: a bimodal
      # metric's unlucky block alone does not end WORSE, a planted 30 %
      # regression does, and the sign-test p-value of 9 wins in 10 pairs is
      # 0.011. No build, no benchmark run.
      scripts/bench_pair.sh --self-test ;;
    quickstart) $CARGO run --release --example quickstart ;;
    figures-smoke)
      # Every figure of the paper and the case study, in one process, at a
      # stream length small enough for the file-backed Figs. 12-13 (one file
      # per skyline cell: ~36 s on a 2-core box, nearly all of it creating
      # and deleting files). Any panic exits non-zero.
      $CARGO run --release -p sitfact-bench --bin figures -- --fig all --n 8 ;;
    bench-e2e-standalone)
      # BENCHMARK.json's command: the benchmark built through its own
      # manifest, which no other step compiles (the workspace only reaches
      # the same sources as sitfact-bench's bench_e2e binary). --smoke runs
      # the four workloads at 1/40 size, served and traced; the traced leg
      # fails unless the served replies — ranked by FactMonitor's
      # bound-and-prune loop — hash to those of the mirror, which evaluates
      # every fact by hand.
      $CARGO run --release --quiet \
        --manifest-path crates/sitfact-bench/src/bin/bench_e2e/Cargo.toml -- \
        --smoke ;;
    serve-smoke)
      # Round-trip the TCP service front-end: start a sharded server on an
      # ephemeral port (it writes the bound address to a file), stream rows
      # through the client binary over both INGEST and INGEST_BATCH, assert a
      # non-empty report, then shut the server down over the wire. Two
      # private tenants stream first (isolated OPEN/USE sessions with
      # different seeds), then the default tenant asserts facts and shuts
      # the server down. The server binary is backgrounded directly (not via
      # `cargo run`, whose wrapper PID would survive a kill and leak the
      # real server on failure). First, a sharded monitor has no snapshot
      # form: a sharded durable server asked for a snapshot interval must
      # refuse to start, naming the conflict in a readable message.
      $CARGO build --release -p sitfact-serve
      local refusal_dir=/tmp/sitfact_serve_snapshot_refusal refusal
      rm -rf "$refusal_dir"
      if refusal=$(timeout 20 target/release/sitfact_serve --addr 127.0.0.1:0 \
        --shards 2 --data-dir "$refusal_dir" --snapshot-every 16 2>&1); then
        echo "serve-smoke: a sharded server accepted --snapshot-every" >&2
        return 1
      fi
      rm -rf "$refusal_dir"
      if ! grep -q "sharded monitor cannot write snapshots" <<<"$refusal"; then
        echo "serve-smoke: the refusal does not name the conflict: $refusal" >&2
        return 1
      fi
      if grep -q "Custom {" <<<"$refusal"; then
        echo "serve-smoke: the refusal prints a Debug error, not a message: $refusal" >&2
        return 1
      fi
      local port_file=/tmp/sitfact_serve_port
      rm -f "$port_file"
      target/release/sitfact_serve \
        --addr 127.0.0.1:0 --port-file "$port_file" --shards 2 --tau 50 &
      local server_pid=$!
      local client_ok=1
      target/release/sitfact_client \
        --port-file "$port_file" --n 32 --batch 8 --seed 11 \
        --tenant east --tau 50 --assert-facts || client_ok=0
      target/release/sitfact_client \
        --port-file "$port_file" --n 24 --batch 6 --seed 23 \
        --tenant west --tau 50 --assert-facts || client_ok=0
      target/release/sitfact_client \
        --port-file "$port_file" --n 48 --batch 16 --assert-facts \
        --shutdown || client_ok=0
      if [[ "$client_ok" != 1 ]]; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
        echo "serve-smoke: client round trip failed" >&2
        return 1
      fi
      wait "$server_pid" ;;
    wal-smoke)
      # Kill-and-recover round trip for the durable server: ingest over the
      # wire into a --data-dir server, fingerprint its TOPK + STATS, SIGKILL
      # it (no clean shutdown — the WAL is the only survivor), restart it on
      # the same directory, and assert the recovered state matches the
      # fingerprint byte for byte before shutting down cleanly.
      $CARGO build --release -p sitfact-serve
      local data_dir=/tmp/sitfact_wal_smoke_data
      local port_file=/tmp/sitfact_wal_smoke_port
      local state_file=/tmp/sitfact_wal_smoke_state
      rm -rf "$data_dir"
      rm -f "$port_file" "$state_file"
      target/release/sitfact_serve \
        --addr 127.0.0.1:0 --port-file "$port_file" --tau 50 \
        --data-dir "$data_dir" &
      local server_pid=$!
      if ! target/release/sitfact_client \
        --port-file "$port_file" --n 40 --batch 8 --seed 11 \
        --assert-facts --state-out "$state_file"; then
        kill -9 "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
        echo "wal-smoke: pre-kill client round trip failed" >&2
        return 1
      fi
      kill -9 "$server_pid"
      wait "$server_pid" 2>/dev/null || true
      rm -f "$port_file"
      target/release/sitfact_serve \
        --addr 127.0.0.1:0 --port-file "$port_file" --tau 50 \
        --data-dir "$data_dir" &
      server_pid=$!
      if ! target/release/sitfact_client \
        --port-file "$port_file" --n 0 --state-expect "$state_file" \
        --shutdown; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
        echo "wal-smoke: recovered server state drifted from pre-kill" >&2
        return 1
      fi
      wait "$server_pid" ;;
    *) echo "ci_steps.sh: unknown step '$1'" >&2; exit 64 ;;
  esac
}

parity() {
  local ci=.github/workflows/ci.yml verify=scripts/verify.sh fail=0
  # Every registered step must be wired into CI …
  for step in "${CI_STEPS[@]}"; do
    if ! grep -Eq "ci_steps\.sh run $step( |\"|$)" "$ci"; then
      echo "parity: step '$step' is registered here but not invoked by $ci" >&2
      fail=1
    fi
  done
  # … and CI must not invoke steps this registry does not know.
  while read -r step; do
    local known=0
    for s in "${CI_STEPS[@]}"; do [[ "$s" == "$step" ]] && known=1; done
    if [[ "$known" == 0 ]]; then
      echo "parity: $ci invokes unknown step '$step' (add it to CI_STEPS)" >&2
      fail=1
    fi
  done < <(grep -Eo "ci_steps\.sh run [a-z0-9-]+" "$ci" | awk '{print $3}' | sort -u)
  # The local gate must run the full registry (and this parity check).
  if ! grep -q "ci_steps.sh all" "$verify"; then
    echo "parity: $verify does not run 'ci_steps.sh all'" >&2
    fail=1
  fi
  if ! grep -q "ci_steps.sh parity" "$verify"; then
    echo "parity: $verify does not run 'ci_steps.sh parity'" >&2
    fail=1
  fi
  if [[ "$fail" != 0 ]]; then
    echo "parity: scripts/ci_steps.sh, scripts/verify.sh and $ci drifted" >&2
    exit 1
  fi
  echo "parity: local gate and CI agree on: ${CI_STEPS[*]}"
}

case "${1:-}" in
  list) printf '%s\n' "${CI_STEPS[@]}" ;;
  run) shift; run_step "${1:?usage: ci_steps.sh run <step>}" ;;
  all) for step in "${CI_STEPS[@]}"; do run_step "$step"; done ;;
  parity) parity ;;
  *) echo "usage: ci_steps.sh {list|run <step>|all|parity}" >&2; exit 64 ;;
esac
