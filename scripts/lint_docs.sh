#!/usr/bin/env bash
# Markdown anchor and file-path lint (scripts/check.sh step "docs").
#
# Fails when a section link of the form ](DOC.md#anchor) or ](#anchor) in
# one of the tracked documents does not resolve to a real heading, using
# GitHub's heading-to-anchor slug rules (lowercase; strip everything except
# alphanumerics, spaces, hyphens, underscores; spaces become hyphens). This
# keeps README's pointers into DESIGN.md / ARCHITECTURE.md / EXPERIMENTS.md
# honest: renaming a heading without updating its references breaks CI
# instead of silently orphaning the docs.
#
# Also fails when README, DESIGN, ARCHITECTURE or EXPERIMENTS names, in
# backticks, a file path (it contains "/" and ends in .h, .cc, .py, .sh,
# .json or .md; a ":line" suffix is dropped) that exists neither under the
# repository root nor under src/, so deleting or moving a file without
# updating the prose that names it breaks CI too. bench_out/ artifacts are
# generated by the benches and are not checked.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md ROADMAP.md)

slug() {
  printf '%s' "$1" \
    | tr '[:upper:]' '[:lower:]' \
    | sed -e 's/[^a-z0-9 _-]//g' -e 's/ /-/g'
}

anchors=$(mktemp)
refs=$(mktemp)
trap 'rm -f "$anchors" "$refs"' EXIT

for doc in "${DOCS[@]}"; do
  [[ -f "$doc" ]] || continue
  # Headings outside fenced code blocks. (`#+` rather than `#{1,6}`: mawk
  # has no interval expressions; ATX headings never exceed six hashes here.)
  awk '/^```/ { fence = !fence; next } !fence && /^#+ /' "$doc" \
    | sed -E 's/^#+ +//' \
    | while IFS= read -r heading; do
        printf '%s#%s\n' "$doc" "$(slug "$heading")"
      done >> "$anchors"
done

for doc in "${DOCS[@]}"; do
  [[ -f "$doc" ]] || continue
  grep -oE '\]\(([A-Za-z0-9_.-]*\.md)?#[A-Za-z0-9_-]+\)' "$doc" \
    | sed -E 's/^\]\(//; s/\)$//' \
    | while IFS= read -r ref; do
        target="${ref%%#*}"
        anchor="${ref#*#}"
        [[ -n "$target" ]] || target="$doc"
        printf '%s %s#%s\n' "$doc" "$target" "$anchor"
      done >> "$refs" || true
done

fail=0
while IFS=' ' read -r doc ref; do
  [[ -n "$ref" ]] || continue
  target="${ref%%#*}"
  if [[ ! -f "$target" ]]; then
    echo "lint_docs: $doc links to missing document: $ref" >&2
    fail=1
    continue
  fi
  if ! grep -qxF "$ref" "$anchors"; then
    echo "lint_docs: $doc links to unresolvable anchor: $ref" >&2
    fail=1
  fi
done < "$refs"

paths=0
for doc in README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md; do
  [[ -f "$doc" ]] || continue
  while IFS= read -r path; do
    paths=$((paths + 1))
    if [[ ! -e "$path" && ! -e "src/$path" ]]; then
      echo "lint_docs: $doc names a missing file: $path" >&2
      fail=1
    fi
  done < <(grep -oE '`[^`]+`' "$doc" | tr -d '`' | tr -s ' \t' '\n' \
             | sed -E 's/:[0-9][0-9,-]*$//' \
             | grep -E '^[A-Za-z0-9_.-]*/[A-Za-z0-9_./-]*\.(h|cc|py|sh|json|md)$' \
             | grep -v '^bench_out/' || true)
done

if [[ "$fail" -ne 0 ]]; then
  echo "lint_docs: FAILED (see above; anchors are GitHub heading slugs," \
    "paths resolve under the root or src/)" >&2
  exit 1
fi
echo "lint_docs: all $(wc -l < "$refs" | tr -d ' ') anchor references and $paths file paths resolve"
