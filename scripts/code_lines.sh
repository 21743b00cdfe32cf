#!/bin/sh
# Code lines per file and in total: non-blank lines that are not `//`
# comments, up to (not including) a file's first `#[cfg(test)]`.
# The counting rule the simplicity issues and CHANGES.md quote.
#
#   scripts/code_lines.sh crates/minirel/src crates/crawler/src
set -eu
[ "$#" -gt 0 ] || { echo "usage: $0 <dir-or-file>..." >&2; exit 2; }
find "$@" -type f -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n[FILENAME]++; total++ }
    END {
        for (f in n) printf "%7d %s\n", n[f], f | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d total\n", total
    }'
