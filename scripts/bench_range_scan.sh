#!/usr/bin/env bash
# Range-scan bench gate (ISSUE 10): runs bench_range_scan — TxBTree scans
# over a width x threads x scheduling-mode grid plus the leaf-buffering
# footprint ablation — and asserts the acceptance bars on its JSON:
#
#   * Non-regression vs sequential: kAdaptive >= 0.9x kAlwaysInline at
#     every grid cell. On the 1-CPU CI host the multicore speedup claim is
#     hardware-gated (as with the PR 2/7 scaling rows); what must hold
#     everywhere is that the future-parallelized scan path never loses to
#     a sequential scan — the per-tree scan gate converges to sequential
#     collection when splitting cannot pay.
#   * kAdaptive >= 0.95x the best fixed mode at every cell (the ISSUE bar).
#   * Footprint ablation: clustered batch puts through the TxBTree must
#     carry a measurably narrower commit-stripe footprint than the same
#     traffic through TxMap (mean width <= 0.85x, strictly smaller), the
#     leaf-buffer single-publication argument made observable.
#   * Every scan row carries the abort-cause breakdown object.
#
# The ratio gates compare medians, not single windows: every cell runs its
# three modes ${TXF_BENCH_ROUNDS:-5} times, interleaved (inline, parallel,
# adaptive, inline, ...), and each bar is checked against the cell's median
# over those rounds of the per-round ratio. A single window per mode is a
# sample, not a measurement: at 150 ms the per-window ratio ranged
# 0.55-1.69 on a 4-vCPU host, so a best-of-N over single windows passed or
# failed by luck. Windows are 400 ms so the adaptive controller's warm-up
# in each fresh Runtime is a small part of each window. The
# curated BENCH_range_scan.json in the repo root records a quiet-host
# measurement.
#
# Usage: scripts/bench_range_scan.sh <build-dir> [out.json]
set -euo pipefail

build_dir=${1:?usage: $0 <build-dir> [out.json]}
out=${2:-BENCH_range_scan.ci.json}
rounds=${TXF_BENCH_ROUNDS:-5}

"${build_dir}/bench/bench_range_scan" \
  --widths 64,1024,8192 --threads 1,2 --ms 400 --rounds "${rounds}" \
  --keys 65536 --put-every 8 --batch 64 --footprint-txns 500 \
  --json "${out}"

python3 - "${out}" <<'EOF'
import json, statistics, sys

doc = json.load(open(sys.argv[1]))
rounds = doc["rounds"]
assert rounds >= 5, f"{rounds} rounds per cell; the medians need >= 5"

cells = {}
for row in doc["rows"]:
    assert row["scans_per_s"] > 0 and row["commits"] > 0, row
    assert "causes" in row, row
    cell = cells.setdefault((row["width"], row["threads"]), {})
    cell.setdefault(row["round"], {})[row["mode"]] = row["scans_per_s"]

vs_inline = {}
vs_fixed = {}
for cell, by_round in sorted(cells.items()):
    assert len(by_round) == rounds, f"{cell}: {len(by_round)} rounds"
    r_inl, r_fix = [], []
    for modes in by_round.values():
        for mode in ("inline", "parallel", "adaptive"):
            assert mode in modes, f"missing mode {mode} at {cell}"
        r_inl.append(modes["adaptive"] / modes["inline"])
        r_fix.append(modes["adaptive"] / max(modes.values()))
    vs_inline[cell] = statistics.median(r_inl)
    vs_fixed[cell] = statistics.median(r_fix)
    print(f"width,threads={cell}: median adaptive/inline "
          f"{vs_inline[cell]:.3f} (rounds {', '.join(f'{r:.2f}' for r in r_inl)}), "
          f"adaptive/best-fixed {vs_fixed[cell]:.3f}")

failed = []
for cell in sorted(cells):
    if vs_inline[cell] < 0.9:
        failed.append(f"width,threads={cell}: median adaptive/inline "
                      f"{vs_inline[cell]:.3f} < 0.9 over {rounds} rounds")
    if vs_fixed[cell] < 0.95:
        failed.append(f"width,threads={cell}: median adaptive/best-fixed "
                      f"{vs_fixed[cell]:.3f} < 0.95 over {rounds} rounds")

# The footprint ablation is deterministic traffic.
fp = {f["container"]: f for f in doc["footprint"]}
tree, tmap = fp["tx_btree"], fp["tx_map"]
assert tree["commits"] > 0 and tmap["commits"] > 0, fp
assert tree["mean_width"] < tmap["mean_width"], fp
assert tree["mean_width"] <= 0.85 * tmap["mean_width"], (
    f"leaf buffering did not narrow the footprint: tree "
    f"{tree['mean_width']:.2f} vs map {tmap['mean_width']:.2f}")

assert not failed, "\n".join(failed)
print(f"bench_range_scan OK: {len(cells)} cells; worst median over {rounds} "
      f"rounds adaptive/inline {min(vs_inline.values()):.3f}, "
      f"adaptive/best-fixed {min(vs_fixed.values()):.3f}; footprint "
      f"tx_btree {tree['mean_width']:.2f} vs tx_map "
      f"{tmap['mean_width']:.2f} stripes")
EOF
