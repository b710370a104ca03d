#!/usr/bin/env bash
# Non-test code lines of the workspace: every tracked `.rs` file outside
# `benchmark/` and `tests/`, up to its first `#[cfg(test)]`, without blank
# lines and `//` comment lines (doc comments count as comments). This is the
# size the roadmap's "earn or delete" targets are stated in.
#
# Usage: scripts/code_lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files '*.rs' | grep -v '^benchmark/' | grep -v '^tests/' | while read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*($|\/\/)/' "$f"
done | wc -l | tr -d ' '
