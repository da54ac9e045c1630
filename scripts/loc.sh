#!/usr/bin/env bash
# Non-test lines of Rust per crate and in total, as ROADMAP.md counts
# them: every `.rs` file under `crates/*/src` and `vendor/*/src`, each
# counted up to its first `#[cfg(test)]` line. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src vendor/*/src -name '*.rs' -print0 | LC_ALL=C sort -z \
    | xargs -0 awk '
        FNR == 1 { split(FILENAME, part, "/"); crate = part[1] "/" part[2] }
        /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
        { lines[crate]++; total++ }
        END {
            for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "LC_ALL=C sort -k2"
            close("LC_ALL=C sort -k2")
            printf "%7d  total\n", total
        }'
