#!/usr/bin/env bash
# Tier-1 from a clean clone: builds and tests HEAD as committed, so a test
# that reads a file the working tree has but the commit lacks (an ignored
# or untracked golden, say) fails here instead of passing locally.
#
# Makes a `git clone --no-local` of HEAD into a temporary directory, then
# runs `cargo build --release && cargo test -q` there offline, with a
# target directory of its own. The temporary directory is removed on exit.
#
# Usage: scripts/tier1_fresh_clone.sh
set -euo pipefail

repo="$(git rev-parse --show-toplevel)"
head="$(git -C "$repo" rev-parse HEAD)"
work="$(mktemp -d "${TMPDIR:-/tmp}/tauhls-tier1.XXXXXX")"
trap 'rm -rf "$work"' EXIT

git clone --quiet --no-local "$repo" "$work/src"
git -C "$work/src" checkout --quiet --detach "$head"
echo "tier-1 on a fresh clone of $head"

cd "$work/src"
export CARGO_TARGET_DIR="$work/target"
cargo build --release --offline
cargo test -q --offline
