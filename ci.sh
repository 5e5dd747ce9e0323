#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build+test command, and
# the offline build of the umbrella crate. Mirrors what a hosted CI job
# would run; everything here must pass before a commit lands.
#
# The workspace has no registry dependencies (the PRNG and JSON
# serializers are vendored), so every step below works with the network
# unplugged; --offline makes cargo fail loudly if that ever regresses.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings

# Public-API docs must build clean (broken intra-doc links and missing
# docs are errors, not noise).
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Tier-1: the seed's acceptance command.
run cargo build --release
run cargo test -q

# The unit tests inside crates/*/src at release optimisation. Tier-1
# above already runs them in debug (the root manifest's
# default-members covers every crate); this stage reruns the cases
# that debug builds trim (hw's whole-fleet survey, ...) in full.
run cargo test -q --release --workspace --lib --bins

# The fault-injection kit at release optimisation (the differential
# matrix and the vote-engine edge cases are sized for release), plus a
# fault-matrix smoke of the robustness figure: small rates, 3 policy
# kinds, and the confident-wrong == 0 assertion built into the binary.
run cargo test -q --release --test fault_differential --test vote_plan
run cargo run --release -q -p cachekit-bench --bin fig11_robustness -- --smoke

# Engine differential at release optimisation: boxed / enum / batch
# kernel bit-identity over all 13 differential kinds, plus the
# exhaustive equivalence of every catalog spec with its enum policy.
run cargo test -q --release --test engine_differential

# Inference-engine differential at release optimisation: permutation
# vs automata verdict agreement over all 13 kinds (clean and faulted,
# confident_wrong == 0), the closed-form state-count pins, and the
# hidden-policy battery the automata backend exists for.
run cargo test -q --release --test automata_differential

# The adversarial scenario suites at release optimisation: eviction-set
# soundness *and* minimality against simulator ground truth, and the
# red-team matrix (adaptive adversaries, confident_wrong == 0, honest
# budget-drain degradation, layer-composition commutativity).
run cargo test -q --release --test eviction_sets --test adversarial_inference

# Attack-figure smoke: per-policy eviction sets, stealth scores at 8
# rounds, and one red-team cell per strategy; the binary itself asserts
# confident_wrong == 0 and that every met flag holds.
run cargo run --release -q -p cachekit-bench --bin fig12_attack -- --smoke

# The hierarchy engine at release optimisation: the inclusive-subset
# and exclusive-disjointness invariants after every operation, the
# single-level NINE == bare-Cache bit-identity across all differential
# kinds, and the binary trace format's bit-exact round trips plus the
# corruption matrix (typed errors, never panics).
run cargo test -q --release --test hierarchy_containment --test trace_roundtrip

# Hierarchy-figure smoke: 3 containments x 3 LLC policies x 4
# workloads through the three-level engine; the binary asserts its
# per-cell sanity and mechanism targets (back-invalidations, victim
# fills, containment spread) and exits nonzero on any unmet flag.
run cargo run --release -q -p cachekit-bench --bin fig13_hierarchy -- --smoke

# The committed full-run artifacts must not record an unmet target
# either (fig12's attack flags, fig13's ranking-flip witness).
for artifact in results/fig12_attack.json results/fig13_hierarchy.json; do
    echo "==> grep -c '\"met\": false' $artifact"
    if grep -q '"met": false' "$artifact"; then
        echo "ci: $artifact records an unmet target" >&2
        exit 1
    fi
done

# Cost-table smoke: runs both engines side by side at A in {2, 4} and
# writes results/table3_cost_smoke.json (the committed full-run record
# in results/table3_cost.json covers the full associativity ladder).
run cargo run --release -q -p cachekit-bench --bin table3_cost -- --smoke

# Engine-throughput smoke: exercises all three engines (boxed, enum,
# batch kernel) end-to-end and writes results/bench_access_smoke.json
# (the recorded numbers in results/bench_access.json come from the full
# run). The binary itself exits nonzero if any target row is missing
# from the sweep — e.g. a (policy, assoc) kernel that stopped compiling.
run cargo run --release -q -p cachekit-bench --bin bench_access -- --smoke

# The committed full-run engine record must carry no bare "n/a" cells
# (a pair without a kernel records the typed skip no_kernel) and no
# target recorded as unmet: kernel_over_enum >= 3.0 at LRU/FIFO/PLRU@8
# and a kernel row for LRU/FIFO/PLRU/NRU@16.
echo "==> grep -c 'n/a' results/bench_access.json"
if grep -q 'n/a' results/bench_access.json; then
    echo "ci: results/bench_access.json contains untyped n/a cells" >&2
    exit 1
fi
echo "==> grep -c '\"met\": false' results/bench_access.json"
if grep -q '"met": false' results/bench_access.json; then
    echo "ci: results/bench_access.json records an unmet target" >&2
    exit 1
fi

# Serving-layer smoke: bench-client hosts a server on an ephemeral
# port and runs the cold/warm/pipelined/load/c10k/saturation phases
# for ~2 s each. The binary exits nonzero on any degraded answer,
# missing 429 under saturation, sub-100x cache speedup, dropped job at
# drain, or unmet smoke-scale target (≥10k pipelined req/s, ≥1,000
# concurrent connections) — so this stage is the c10k/throughput gate.
run cargo run --release -q -p cachekit-serve --bin bench-client -- --smoke

# The committed full-run record must not claim an unmet target: every
# "met" flag in results/serve_load.json has to be true.
echo "==> grep -c '\"met\": false' results/serve_load.json"
if grep -q '"met": false' results/serve_load.json; then
    echo "ci: results/serve_load.json records an unmet target" >&2
    exit 1
fi

# Offline build of the umbrella package specifically (regression guard
# for the seed's original failure: manifests referencing crates.io).
run cargo build --release -p cachekit --offline

# Public-API smoke check: the examples exercise the builder/layer API
# surface and must keep compiling against it.
run cargo build --release --examples --offline

echo "ci: all checks passed"
