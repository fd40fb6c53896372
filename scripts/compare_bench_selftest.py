#!/usr/bin/env python3
"""Self-test for compare_bench.py, run under ctest.

Exercises the three exit-code contracts the check.sh gate relies on:
0 (within tolerance), 1 (regression detected), 2 (usage/schema error) —
plus the scale-mismatch and missing-row paths. Fixture JSONs are written
to a temp dir; compare_bench.py is run as a subprocess exactly the way
check.sh invokes it.

Usage: compare_bench_selftest.py /path/to/compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile


def make_rows(pps_scale=1.0, node_io=100, p99_us=None, shards=None):
    # 1000 pairs at wall_ms=100 -> 10000 pairs/sec at pps_scale=1.
    row = {
        "series": "Even/DepthFirst",
        "threads": 1,
        "pairs": 1000,
        "wall_ms": 100.0 / pps_scale,
        "node_io": node_io,
    }
    if shards is not None:
        row["shards"] = shards
    if p99_us is not None:
        row["metrics"] = {"serve_slice": {"count": 1000, "p99_us": p99_us}}
    return [row]


def write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)


def run(tool, *args):
    return subprocess.run(
        [sys.executable, tool, *args], capture_output=True, text=True
    ).returncode


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tool = sys.argv[1]
    failures = []

    def check(name, got, want):
        if got != want:
            failures.append(f"{name}: exit {got}, want {want}")

    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base.json")
        cur = os.path.join(tmp, "cur.json")
        write(base, {"scale": 1.0, "rows": make_rows()})

        # Identical run: within tolerance.
        write(cur, {"scale": 1.0, "rows": make_rows()})
        check("identical", run(tool, base, cur), 0)

        # 5% slower passes the default 10% time tolerance.
        write(cur, {"scale": 1.0, "rows": make_rows(pps_scale=0.95)})
        check("small-slowdown", run(tool, base, cur), 0)

        # 30% slower fails it...
        write(cur, {"scale": 1.0, "rows": make_rows(pps_scale=0.70)})
        check("time-regression", run(tool, base, cur), 1)

        # ...unless the caller loosens the gate, as check.sh does.
        check(
            "loose-tolerance",
            run(tool, base, cur, "--time-tolerance=0.60"),
            0,
        )

        # node_io growth beyond tolerance is a regression regardless of time.
        write(cur, {"scale": 1.0, "rows": make_rows(node_io=150)})
        check("io-regression", run(tool, base, cur), 1)

        # The opt-in p99 gate (check.sh serving stage): within the default
        # 2x allowance passes, beyond it fails, and rows without a usable
        # baseline p99 are skipped rather than failed.
        write(base, {"scale": 1.0, "rows": make_rows(p99_us=100.0)})
        write(cur, {"scale": 1.0, "rows": make_rows(p99_us=200.0)})
        check("p99-one-bucket", run(tool, base, cur, "--p99-op=serve_slice"), 0)
        write(cur, {"scale": 1.0, "rows": make_rows(p99_us=450.0)})
        check("p99-regression", run(tool, base, cur, "--p99-op=serve_slice"), 1)
        check(
            "p99-loose-tolerance",
            run(tool, base, cur, "--p99-op=serve_slice", "--p99-tolerance=4"),
            0,
        )
        check("p99-not-gated", run(tool, base, cur), 0)
        write(base, {"scale": 1.0, "rows": make_rows(p99_us=0.0)})
        check("p99-zero-base", run(tool, base, cur, "--p99-op=serve_slice"), 0)
        write(base, {"scale": 1.0, "rows": make_rows()})
        check("p99-no-metrics", run(tool, base, cur, "--p99-op=serve_slice"), 0)
        # A baseline that gates the phase paired with a current run that
        # stopped reporting it must fail — not silently skip (a disabled
        # metric would otherwise pass the gate forever).
        write(base, {"scale": 1.0, "rows": make_rows(p99_us=100.0)})
        write(cur, {"scale": 1.0, "rows": make_rows()})
        check(
            "p99-missing-current",
            run(tool, base, cur, "--p99-op=serve_slice"),
            1,
        )
        write(base, {"scale": 1.0, "rows": make_rows()})
        write(cur, {"scale": 1.0, "rows": make_rows(p99_us=450.0)})

        # A baseline row absent from the current run is a regression (as
        # long as something still matches; an empty run is a schema error).
        write(cur, {"scale": 1.0, "rows": []})
        check("empty-rows", run(tool, base, cur), 2)
        two = make_rows() + make_rows()
        two[1] = dict(two[1], series="Within")
        write(base, {"scale": 1.0, "rows": two})
        write(cur, {"scale": 1.0, "rows": make_rows()})
        check("missing-row", run(tool, base, cur), 1)
        write(base, {"scale": 1.0, "rows": make_rows()})

        # Usage/schema errors: malformed JSON, scale mismatch, bad flags.
        with open(cur, "w") as f:
            f.write("{not json")
        check("malformed-json", run(tool, base, cur), 2)
        write(cur, {"scale": 0.5, "rows": make_rows()})
        check("scale-mismatch", run(tool, base, cur), 2)
        # kernel_isa stamps (DESIGN.md §15): matching stamps compare fine,
        # differing stamps are refused like a scale mismatch, and files
        # predating the stamp (field absent on either side) are tolerated.
        write(base, {"scale": 1.0, "kernel_isa": "avx2", "rows": make_rows()})
        write(cur, {"scale": 1.0, "kernel_isa": "avx2", "rows": make_rows()})
        check("isa-match", run(tool, base, cur), 0)
        write(cur, {"scale": 1.0, "kernel_isa": "scalar", "rows": make_rows()})
        check("isa-mismatch", run(tool, base, cur), 2)
        write(cur, {"scale": 1.0, "rows": make_rows()})
        check("isa-missing-current", run(tool, base, cur), 0)
        write(base, {"scale": 1.0, "rows": make_rows()})
        write(cur, {"scale": 1.0, "kernel_isa": "avx512", "rows": make_rows()})
        check("isa-missing-baseline", run(tool, base, cur), 0)

        # Shard counts (DESIGN.md §18): rows key on their shard count, and
        # runs whose shard-count sets differ are refused like a cross-ISA
        # compare; an explicit shards=1 matches the field-absent default.
        write(base, {"scale": 1.0, "rows": make_rows(shards=4)})
        write(cur, {"scale": 1.0, "rows": make_rows(shards=4)})
        check("shards-match", run(tool, base, cur), 0)
        write(cur, {"scale": 1.0, "rows": make_rows(shards=2)})
        check("shards-mismatch", run(tool, base, cur), 2)
        write(base, {"scale": 1.0, "rows": make_rows()})
        write(cur, {"scale": 1.0, "rows": make_rows(shards=1)})
        check("shards-default-is-one", run(tool, base, cur), 0)
        write(base, {"scale": 1.0, "rows": make_rows()})

        # --show-phases prints the current run's phases only, so a baseline
        # recorded before an Op existed still compares (new phases appear
        # on the current side without a baseline counterpart).
        old_phases = make_rows()
        old_phases[0]["metrics"] = {
            "checkpoint": {"count": 2, "total_ms": 9.0, "p50_us": 4.0,
                           "p95_us": 5.0, "p99_us": 5.0, "max_us": 5.0}}
        new_phases = make_rows()
        new_phases[0]["metrics"] = dict(
            old_phases[0]["metrics"],
            snapshot_encode={"count": 2, "total_ms": 1.0, "p50_us": 0.5,
                             "p95_us": 0.6, "p99_us": 0.6, "max_us": 0.6})
        write(base, {"scale": 1.0, "rows": old_phases})
        write(cur, {"scale": 1.0, "rows": new_phases})
        check("phases-new-op", run(tool, base, cur, "--show-phases"), 0)
        write(base, {"scale": 1.0, "rows": make_rows()})

        write(cur, {"scale": 1.0, "rows": make_rows()})
        check("unknown-flag", run(tool, base, cur, "--bogus"), 2)
        check("missing-file", run(tool, base, os.path.join(tmp, "nope")), 2)
        check("no-args", run(tool), 2)

    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print("compare_bench_selftest: all exit-code contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
