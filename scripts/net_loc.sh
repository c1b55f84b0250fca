#!/usr/bin/env bash
# Net lines of code of the working tree against a base ref: added, removed
# and net lines per src/<module>, for src/ as a whole, and for the whole
# repository. Untracked (not git-ignored) files count as added.
#
#   scripts/net_loc.sh <base-ref>        e.g. scripts/net_loc.sh HEAD~1
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
base=$1
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" > /dev/null ||
  { echo "unknown ref: $base" >&2; exit 2; }

{
  # Tracked files: numstat of the base against the working tree (binary
  # files report "-" and are skipped).
  git diff --numstat "$base" -- . | awk '$1 != "-" { print $1 "\t" $2 "\t" $3 }'
  # Untracked files: every line is added.
  git ls-files --others --exclude-standard -z |
    while IFS= read -r -d '' f; do
      [[ -f $f ]] && printf '%s\t0\t%s\n' "$(wc -l < "$f")" "$f"
    done
} | awk -F '\t' '
  function add(key, a, r) { added[key] += a; removed[key] += r; seen[key] = 1 }
  {
    add("total", $1, $2)
    if ($3 ~ /^src\//) {
      split($3, parts, "/")
      add("src/" parts[2], $1, $2)
      add("src total", $1, $2)
    }
  }
  END {
    printf "%-16s %8s %8s %8s\n", "scope", "added", "removed", "net"
    n = 0
    for (k in seen) if (k ~ /^src\// ) keys[++n] = k
    # Sort module rows by name (portable insertion sort).
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && keys[j - 1] > keys[j]; j--) {
        t = keys[j]; keys[j] = keys[j - 1]; keys[j - 1] = t
      }
    for (i = 1; i <= n; i++)
      printf "%-16s %8d %8d %+8d\n", keys[i], added[keys[i]], removed[keys[i]],
             added[keys[i]] - removed[keys[i]]
    split("src total,total", tail, ",")
    for (i = 1; i <= 2; i++) {
      k = tail[i]
      printf "%-16s %8d %8d %+8d\n", k, added[k], removed[k], added[k] - removed[k]
    }
  }'
