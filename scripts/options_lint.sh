#!/usr/bin/env bash
# Options lint: every setting a caller can change must be changed by one.
#
# An options field that no program sets is a constant wearing a knob: its
# other values exist only as untested code paths. This script lists the
# fields of every `struct *Options` declared in src/**/*.hpp and requires,
# for each, at least one assignment `.field =` (a designated initializer or
# a member assignment) in a file under src/, examples/, bench/ or
# rfsp-bench/. Tests do not count: a value only a test sets belongs in the
# test, not in the library's surface. A `std::function` field is a hook for
# caller code, not a value that could become a constant, so it is exempt.
#
# Fields are matched by name, so a field shares its assignment with any
# other field of the same name. Exits 1 and lists the offenders otherwise.
set -euo pipefail

cd "$(dirname "$0")/.."

USE_DIRS=(src examples bench rfsp-bench)

# "<file>:<line>: <Struct>::<field>" for every field of every *Options
# struct. A struct runs from `struct NameOptions {` to the first `};` at
# column 0; a field is a line ending in `;` once its comment is stripped,
# and its name is the last identifier before the initializer or the `;`.
fields() {
  local f
  for f in $(find src -name '*.hpp' | sort); do
    awk -v file="$f" '
      /^struct [A-Za-z0-9_]*Options[[:space:]]*\{/ {
        name = $2; inside = 1; next
      }
      inside && /^\};/ { inside = 0; next }
      inside {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line !~ /;[[:space:]]*$/ || line ~ /std::function</) next
        sub(/;[[:space:]]*$/, "", line)
        sub(/[[:space:]]*=.*/, "", line)
        sub(/[[:space:]]*\{.*\}[[:space:]]*$/, "", line)
        if (match(line, /[A-Za-z_][A-Za-z0-9_]*[[:space:]]*$/) == 0) next
        field = substr(line, RSTART, RLENGTH)
        sub(/[[:space:]]+$/, "", field)
        printf "%s:%d: %s::%s\n", file, NR, name, field
      }
    ' "$f"
  done
}

fail=0
total=0
while IFS= read -r entry; do
  total=$((total + 1))
  field="${entry##*::}"
  if ! grep -rqE "\.${field}[[:space:]]*=([^=]|$)" "${USE_DIRS[@]}" \
         --include='*.cpp' --include='*.hpp'; then
    if [[ "$fail" -eq 0 ]]; then
      echo "options-lint: options no program sets (make each a constant):"
    fi
    echo "  $entry"
    fail=1
  fi
done < <(fields)

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "options-lint: clean (${total} fields, each set in ${USE_DIRS[*]})"
