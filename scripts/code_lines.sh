#!/usr/bin/env bash
# Non-test code lines of the workspace: every tracked `.rs` file outside
# `benchmark/`, outside any `tests/` directory and not declared only under
# `#[cfg(test)]` (`#[cfg(test)] mod faulty;`), up to the `#[cfg(test)]` that
# opens its `mod tests {`, without blank lines and `//` comment lines (doc
# comments count as comments). This is the size the roadmap's "earn or
# delete" targets are stated in.
#
# Usage: scripts/code_lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
files=$(git ls-files '*.rs' | grep -v '^benchmark/' | grep -Ev '(^|/)tests/' || true)
# A module declared right after `#[cfg(test)]` lives in `<dir>/<name>.rs` or
# `<dir>/<name>/mod.rs`, where `<dir>` is the declaring file's directory
# for `lib.rs`, `main.rs` and `mod.rs`, and `<file stem>/` beside it
# otherwise.
test_only=$(for f in $files; do
    awk -v f="$f" '
        cfg && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/ {
            name = $0
            sub(/^.*mod[[:space:]]+/, "", name)
            sub(/[[:space:]]*;.*$/, "", name)
            dir = f
            if (dir ~ /(^|\/)(lib|main|mod)\.rs$/) sub(/[^\/]*$/, "", dir)
            else sub(/\.rs$/, "/", dir)
            print dir name ".rs"
            print dir name "/mod.rs"
        }
        { cfg = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }' "$f"
done)
for f in $files; do
    if printf '%s\n' "$test_only" | grep -qxF "$f"; then
        continue
    fi
    # A `#[cfg(test)]` line is held until the next one shows whether it
    # opens the test module (stop), declares a test-only module (skip both)
    # or guards something else (count it).
    awk '
        held {
            if (/^[[:space:]]*mod tests[[:space:]]*\{/) exit
            held = 0
            if (/^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) next
            print held_line
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; held_line = $0; next }
        !/^[[:space:]]*($|\/\/)/' "$f"
done | wc -l | tr -d ' '
