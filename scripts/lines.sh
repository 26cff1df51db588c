#!/usr/bin/env bash
# Non-test lines per crate: for every `.rs` file under `crates/*/src`, the
# lines above its top-level `#[cfg(test)]` + `mod tests` pair (the whole file
# when it has none). A `#[cfg(test)]` on a field or an item elsewhere in the
# file does not end the count. csbench (`crates/bench/src/bin/csbench`) is
# left out: it is the benchmark, not the simulator.
#
#   scripts/lines.sh [root]
#
# <root> is a checkout of the workspace (default: this one), so the same
# count can be taken on a parent, e.g. a `git archive` of it. Prints one
# "<crate> <lines>" row per crate, then "total <lines>".
set -euo pipefail
root=${1:-"$(dirname "$0")/.."}

total=0
for crate in "${root}"/crates/*/; do
    name=$(basename "${crate}")
    [ -d "${crate}src" ] || continue
    lines=$(find "${crate}src" -name '*.rs' -not -path '*/bin/csbench/*' -print0 \
        | sort -z \
        | xargs -0 -r awk '
            FNR == 1 { stopped = 0; prev = "" }
            !stopped && prev ~ /^#\[cfg\(test\)\]$/ && $0 ~ /^mod tests[ {]/ {
                stopped = 1; n -= 1
            }
            !stopped { n += 1 }
            { prev = $0 }
            END { print n + 0 }' \
        | awk '{ s += $1 } END { print s + 0 }')
    printf '%s %d\n' "${name}" "${lines}"
    total=$((total + lines))
done
printf 'total %d\n' "${total}"
