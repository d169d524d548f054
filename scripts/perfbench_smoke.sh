#!/usr/bin/env bash
# Perfbench smoke gate: run each repository-benchmark workload once, short
# and untraced, and fail when a run's outputs were wrong ("correct": false
# on the result line) or when any commit stripe's clock ended apart from its
# committed-writer count (the printed stm.stripe_gaps is nonzero — a lost
# or doubly-versioned write that the output checks alone may not catch).
# Only parses perfbench's output; perfbench itself is not modified.
#
# Usage: scripts/perfbench_smoke.sh [seconds]
set -euo pipefail

seconds=${1:-5}
root=$(cd "$(dirname "$0")/.." && pwd)

status=0
for workload in point_tx kv_open_loop; do
  echo "--- perfbench ${workload} (${seconds} s) ---"
  out=$(python3 "${root}/perfbench/run.py" --workload "${workload}" --seed 1 \
        --seconds "${seconds}" --trace 0)
  echo "${out}"
  if ! python3 - "${workload}" "${out}" <<'EOF'
import json, re, sys

workload, out = sys.argv[1], sys.argv[2]
lines = out.strip().splitlines()
result = json.loads(lines[-1])
gaps = [float(m.group(1)) for line in lines
        if (m := re.match(r"stm\.stripe_gaps = (\S+)", line))]
problems = []
if result.get("correct") is not True:
    problems.append('result line has "correct": false')
if len(gaps) != 1:
    problems.append("no stm.stripe_gaps line in the output")
elif gaps[0] != 0:
    problems.append(f"stm.stripe_gaps = {gaps[0]:g}")
if problems:
    print(f"perfbench smoke: {workload} FAILED: " + "; ".join(problems))
    sys.exit(1)
print(f"perfbench smoke: {workload} OK")
EOF
  then
    status=1
  fi
done
exit "${status}"
