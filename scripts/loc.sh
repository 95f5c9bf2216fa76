#!/bin/sh
# Lines of Rust per crate, as a Markdown table — the number ROADMAP tracks
# (it should trend down) and every CHANGES.md entry reports. The benchmark's
# own package (`bench_e2e`) is not part of the system and is left out.
# Run from anywhere: `scripts/loc.sh`.
set -eu
cd "$(dirname "$0")/.."

echo '| crate | lines of Rust |'
echo '| --- | ---: |'
for c in crates/*/; do
    echo "| $(basename "$c") | $(find "$c" -name '*.rs' -not -path '*/bench_e2e/*' | xargs cat | wc -l) |"
done
echo "| root tests/ | $(cat tests/*.rs | wc -l) |"
