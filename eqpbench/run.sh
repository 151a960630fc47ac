#!/usr/bin/env bash
# Builds the eqpd daemon and the benchmark from this checkout (release,
# offline) and runs the benchmark. Run from the repository root:
#
#   bash eqpbench/run.sh --open-rate R --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; standard output carries only the
# benchmark's lines, the last of which is the result object.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$bench/target}
case "$target" in
    /*) ;;
    *) target=$root/$target ;;
esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p eqpd --bin eqpd >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$bench/nosync/Cargo.toml" >&2

commit=unknown
if [ -d "$root/.git" ]; then
    commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

rustc_version=$(rustc -V)
# The journal stays inside the checkout; fsync is made a no-op for the
# benchmark and the daemon it starts, as on tmpfs (see nosync/src/lib.rs).
export LD_PRELOAD=$target/release/libeqpbench_nosync.so

exec "$target/release/eqpbench" \
    --eqpd "$target/release/eqpd" \
    --rustc "$rustc_version" \
    --commit "$commit" \
    "$@"
