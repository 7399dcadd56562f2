#!/bin/sh
# Stale-path gate over the top-level docs (DESIGN.md, README.md).
#
# Usage: check_doc_paths.sh REPO_ROOT
#
# Every relative path written in backticks must name something in the
# tree. A backticked span counts as a relative path when it is made of
# path characters only ([A-Za-z0-9_./-]), holds a '/', and does not
# start with '/' (absolute paths and '///' comment markers are skipped;
# URLs and command lines fail the character test). Docs name modules
# without an extension and relative to src/, so the path exists when
# any of PATH, src/PATH, src/PATH.h, PATH.cc or PATH.cpp exists.
# Exits non-zero and lists every stale path; never modifies anything.
set -eu

root=${1:-.}

bad=0
for doc in DESIGN.md README.md; do
  paths=$(grep -o "\`[^\`]*\`" "$root/$doc" | tr -d "\`" |
    grep -E '^[A-Za-z0-9_.-][A-Za-z0-9_./-]*$' | grep '/' | sort -u) || true
  while IFS= read -r path; do
    [ -n "$path" ] || continue
    found=0
    for candidate in "$path" "src/$path" "src/$path.h" "$path.cc" \
        "$path.cpp"; do
      if [ -e "$root/$candidate" ]; then
        found=1
        break
      fi
    done
    if [ "$found" -eq 0 ]; then
      echo "$doc: \`$path\` names nothing in the tree" >&2
      bad=1
    fi
  done <<EOF
$paths
EOF
done

if [ "$bad" -ne 0 ]; then
  echo "check_doc_paths: fix or drop the paths above" >&2
  exit 1
fi
echo "doc paths OK"
