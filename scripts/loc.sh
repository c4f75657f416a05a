#!/usr/bin/env bash
# Source size per crate: one JSON line per workspace crate with the
# number of lines in the `.rs` files under its `src/`, e.g.
#
#   {"name":"loc/qspr","lines":2707}
#
#   scripts/loc.sh
#
# Tests, benches and examples are not counted: the number tracks the
# code a change must keep working, which the repository aims to shrink.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

for dir in "$root" "$root"/crates/*/ "$root"/crates/shims/*/; do
    dir="${dir%/}"
    [ -f "$dir/Cargo.toml" ] && [ -d "$dir/src" ] || continue
    name="$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)"
    lines="$(find "$dir/src" -name '*.rs' -exec cat {} + | wc -l)"
    printf '{"name":"loc/%s","lines":%d}\n' "$name" "$lines"
done
