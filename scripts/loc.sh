#!/bin/sh
# Lines of Rust per crate, as a Markdown table — the numbers ROADMAP tracks
# (they should trend down) and every CHANGES.md entry reports. The second
# column counts each file under the crate's `src/` up to its first
# unindented `#[cfg(test)]` — the test module — or whole if it has none. The
# benchmark's own package (`bench_e2e`) is not part of the system and is left
# out.
# Run from anywhere: `scripts/loc.sh`.
set -eu
cd "$(dirname "$0")/.."

# Prints "<all lines> <lines before the first #[cfg(test)]>" summed over the
# files named on stdin.
count() {
    xargs awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        { all++; if (!in_tests) before++ }
        END { print all + 0, before + 0 }'
}

echo '| crate | lines of Rust | before `#[cfg(test)]` in `src/` |'
echo '| --- | ---: | ---: |'
total=0
total_before=0
for c in crates/*/; do
    set -- $(find "$c" -name '*.rs' -not -path '*/bench_e2e/*' | count)
    all=$1
    set -- $(find "${c}src" -name '*.rs' -not -path '*/bench_e2e/*' | count)
    echo "| $(basename "$c") | $all | $2 |"
    total=$((total + all))
    total_before=$((total_before + $2))
done
tests=$(cat tests/*.rs | wc -l)
echo "| root tests/ | $tests | — |"
echo "| **total** | $((total + tests)) | $total_before |"
