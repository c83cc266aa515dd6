#!/usr/bin/env bash
# Determinism lint for the trace / observability / replay paths.
#
# Replay correctness (docs/resilience.md) rests on these sources being
# bit-deterministic: the same schedule must serialize to the same bytes on
# every platform. This script greps them for the usual ways that property
# silently dies:
#
#   - libc `rand(` / `srand(` / `time(` — wall-clock or global-state values
#     leaking into traces;
#   - `std::random_device` constructed with no token — a fresh
#     hardware-entropy draw per run;
#   - iteration over `std::unordered_map` / `std::unordered_set` — hash
#     order differs across standard libraries, so anything emitted from a
#     range-for over one is platform-dependent.
#
# A line that is genuinely fine (e.g. an unordered container used only for
# membership tests, never iterated into output) can be exempted by putting
#     // determinism: ok — <reason>
# on the same line.
set -euo pipefail

cd "$(dirname "$0")/.."

# The paths whose output must be bit-reproducible: traces and metrics
# (src/obs), schedules / repros / checkpoints (src/replay), and the
# audit + static-verify reports (src/analysis) that land in JSONL files.
SCAN_DIRS=(src/obs src/replay src/analysis)

fail=0

scan() {
  local label="$1" pattern="$2"
  local hits
  # -I skips binaries; the trailing grep drops allowlisted lines.
  hits=$(grep -rInE "$pattern" "${SCAN_DIRS[@]}" --include='*.cpp' --include='*.hpp' \
           | grep -v 'determinism: ok' || true)
  if [[ -n "$hits" ]]; then
    echo "determinism-lint: $label"
    echo "$hits" | sed 's/^/  /'
    fail=1
  fi
}

# Word-boundary on the left so strand(/duration( etc. don't trip it.
scan "libc rand()/srand() (non-reproducible PRNG)" '(^|[^[:alnum:]_.:])s?rand\('
scan "time() / wall-clock in serialized paths"      '(^|[^[:alnum:]_.:])time\('
scan "argless std::random_device (fresh entropy per run)" \
     'std::random_device[[:space:]]*([[:alnum:]_]+[[:space:]]*)?(\{\}|\(\))'
# Range-for directly over an unordered container member/variable. This is a
# heuristic: it catches `for (... : foo_)` where foo_ is declared unordered
# in the same file, by flagging every range-for in files that declare one.
for f in $(grep -rIlE 'std::unordered_(map|set|multimap|multiset)' "${SCAN_DIRS[@]}" \
             --include='*.cpp' --include='*.hpp' || true); do
  # Names of unordered members/locals declared in this file.
  names=$(grep -oE 'std::unordered_(map|set|multimap|multiset)<[^;]*>[[:space:]]+[[:alnum:]_]+' "$f" \
            | grep -oE '[[:alnum:]_]+$' | sort -u || true)
  [[ -z "$names" ]] && continue
  for name in $names; do
    hits=$(grep -nE "for[[:space:]]*\(.*:[[:space:]]*${name}[[:space:]]*\)" "$f" \
             | grep -v 'determinism: ok' || true)
    if [[ -n "$hits" ]]; then
      echo "determinism-lint: range-for over std::unordered_* '$name' (hash order is platform-dependent)"
      echo "$hits" | sed "s|^|  $f:|"
      fail=1
    fi
  done
done

if [[ "$fail" -ne 0 ]]; then
  echo
  echo "determinism-lint: FAILED — fix the lines above, or append"
  echo "  // determinism: ok — <reason>"
  echo "to a line whose nondeterminism cannot reach serialized output."
  exit 1
fi
echo "determinism-lint: clean (${SCAN_DIRS[*]})"
