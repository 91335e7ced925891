#!/usr/bin/env python3
"""Checks one paper-figure harness against its committed golden series.

Checks the paper's shape claims that hold at DISMASTD_BENCH_SCALE=0.02 on
the golden series bench/golden/<harness>.csv, then runs the harness
(fig5_streaming, fig6_partitions, fig7_nodes, table4_partition_stddev or
theorem4_comm) at that scale in a temporary directory and byte-compares the
CSV it writes with the golden. The claims:

  - Fig. 5: every DisMASTD cell is below its DMS-MG cell, for each
    (dataset, snapshot, partitioner). Printed, not asserted: in how many
    cells MTP beats GTP.
  - Table IV: MTP's coefficient of variation is at most GTP's in every
    (dataset, partitions) cell.
  - Fig. 7, printed, not asserted: in how many series the time per
    iteration falls from 3 to 15 nodes. At this scale task startup
    dominates, the paper's caveat for small datasets.

The simulated series depend on counts, not on fp64 factor values, so they
are identical across thread counts and kernel backends.
DISMASTD_BENCH_THREADS defaults to 1 and may be set by the caller;
DISMASTD_KERNEL passes through.

Usage: check_paper_figures.py HARNESS_BINARY

Exit status 0 when the CSV matches and every asserted claim holds, 1 (with
the first differing line or the failed claim) otherwise. Stdlib only.

There is no regeneration flag. A change that means to move the series
regenerates the goldens by hand from a Release build and says why:

  cd bench/golden && for h in fig5_streaming fig6_partitions fig7_nodes \\
      table4_partition_stddev theorem4_comm; do
    DISMASTD_BENCH_SCALE=0.02 DISMASTD_BENCH_THREADS=1 ../../build/bench/$h \\
      > /dev/null
  done
"""

import csv
import io
import os
import subprocess
import sys
import tempfile

SCALE = "0.02"
GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "golden")


def fail(message):
    print(f"check_paper_figures: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def first_difference(golden, got):
    """The 1-based line number and both lines where the texts first differ."""
    golden_lines = golden.splitlines()
    got_lines = got.splitlines()
    for number in range(max(len(golden_lines), len(got_lines))):
        want = golden_lines[number] if number < len(golden_lines) else None
        have = got_lines[number] if number < len(got_lines) else None
        if want != have:
            return number + 1, want, have
    return None, None, None


def split_method(label):
    """'DMS-MG-MTP' -> ('DMS-MG', 'MTP')."""
    method, _, partitioner = label.rpartition("-")
    return method, partitioner


def check_fig5(rows):
    times = {}
    for row in rows:
        method, partitioner = split_method(row["method"])
        times[(row["dataset"], row["snapshot_pct"], partitioner, method)] = (
            float(row["sim_seconds_per_iteration"]))
    cells = sorted({key[:3] for key in times})
    for cell in cells:
        ours, dmsmg = times[cell + ("DisMASTD",)], times[cell + ("DMS-MG",)]
        if not ours < dmsmg:
            fail(f"Fig. 5 {'/'.join(cell)}: DisMASTD {ours!r} s is not "
                 f"below DMS-MG {dmsmg!r} s")
    print(f"Fig. 5: DisMASTD below DMS-MG in all {len(cells)} "
          "(dataset, snapshot, partitioner) cells")
    pairs = sorted({(d, s) for d, s, _ in cells})
    mtp_wins = sum(times[(d, s, "MTP", "DisMASTD")] <
                   times[(d, s, "GTP", "DisMASTD")] for d, s in pairs)
    print(f"Fig. 5 (not asserted): DisMASTD-MTP beats DisMASTD-GTP in "
          f"{mtp_wins} of {len(pairs)} cells")


def check_table4(rows):
    cvs = {(r["dataset"], r["parts_per_mode"], r["partitioner"]):
           float(r["cv"]) for r in rows}
    cells = sorted({key[:2] for key in cvs})
    for cell in cells:
        mtp, gtp = cvs[cell + ("MTP",)], cvs[cell + ("GTP",)]
        if not mtp <= gtp:
            fail(f"Table IV {'/'.join(cell)}: MTP cv {mtp!r} exceeds GTP "
                 f"cv {gtp!r}")
    print(f"Table IV: MTP cv <= GTP cv in all {len(cells)} "
          "(dataset, partitions) cells")


def check_fig7(rows):
    series = {}
    for row in rows:
        series.setdefault((row["dataset"], row["method"]), {})[
            int(row["nodes"])] = float(row["sim_seconds_per_iteration"])
    falling = sum(t[max(t)] < t[min(t)] for t in series.values())
    print(f"Fig. 7 (not asserted, task startup dominates at this scale): "
          f"time falls from the fewest to the most nodes in {falling} of "
          f"{len(series)} series")


SHAPE_CHECKS = {
    "fig5_streaming": check_fig5,
    "table4_partition_stddev": check_table4,
    "fig7_nodes": check_fig7,
}


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    binary = os.path.abspath(sys.argv[1])
    name = os.path.basename(binary)
    golden_path = os.path.join(GOLDEN_DIR, name + ".csv")
    if not os.path.exists(golden_path):
        fail(f"no golden file {golden_path}")
    with open(golden_path, "rb") as f:
        golden = f.read()
    check = SHAPE_CHECKS.get(name)
    if check is not None:
        check(list(csv.DictReader(io.StringIO(golden.decode()))))
    env = dict(os.environ, DISMASTD_BENCH_SCALE=SCALE)
    env.setdefault("DISMASTD_BENCH_THREADS", "1")
    with tempfile.TemporaryDirectory() as work:
        run = subprocess.run([binary], cwd=work, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stdout + run.stderr)
            fail(f"{name} exited with status {run.returncode}")
        try:
            with open(os.path.join(work, name + ".csv"), "rb") as f:
                got = f.read()
        except FileNotFoundError:
            fail(f"{name} wrote no {name}.csv")
    if got != golden:
        line, want, have = first_difference(golden.decode(), got.decode())
        fail(f"{name}.csv differs from {golden_path} at line {line}:\n"
             f"  golden: {want}\n  got:    {have}")
    rows = got.count(b"\n") - 1
    print(f"{name}: {rows} rows identical to the golden (scale {SCALE}, "
          f"{env['DISMASTD_BENCH_THREADS']} thread(s))")


if __name__ == "__main__":
    main()
