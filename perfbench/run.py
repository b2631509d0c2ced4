#!/usr/bin/env python3
"""End-to-end AMR benchmark: build, run one workload, report its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --describe

Run from the root of a checkout. The benchmark builds `perfbench/` (a
package of its own, against the repository's crates) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs fixed-work
episodes of the workload, one process each, until `--seconds` is used.
Each episode passes the correctness gate or all of its cycles count as
failed.

`--trace 0` reports the end-to-end metrics of `BENCHMARK.json` from the
run's least-disturbed episodes: the fastest episodes (by loop time) that
together hold at least 100 timed cycles, so the 90th percentile has ten
samples beyond it. On a shared VM, contention and host frequency changes
only ever slow an episode down, and they come in spells of tens of
seconds that shift a plain median by up to 40%; every episode does the
same work, so the fastest ones are the best estimate of the program's
own speed (FIG5's min-of-minima sampling rests on the same argument).
From those episodes: cell updates per second (median of their rates),
the median and 90th percentile of their pooled cycle times, and set-up
time (median; each episode is a fresh process). Peak RSS is the median
over all episodes. The run goes on until it holds at least one and a
half times the cycles it keeps.

`--trace 1` alternates an untraced and a traced episode of the same
seed, checks that both end on the same digest, and reports the
per-layer metrics, each with the count it is normalised by; the spans
go to `<target>/perfbench/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join("perfbench", "Cargo.toml")
MIN_EPISODES = 3
MIN_CYCLE_SAMPLES = 100
# an episode is never started past this point, whatever --seconds says
HARD_LIMIT_S = 150.0
EPISODE_TIMEOUT_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_schema():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Build the benchmark binary; return its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates are missing: run from the root of a checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return target, os.path.join(target, "release", "ablock-perfbench")


def run_episode(binary, workload, seed, trace_out=None):
    """One episode in its own process; its JSON record, or None if it died."""
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace", "--trace-out", trace_out]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=EPISODE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: episode timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"perfbench: episode exited with {proc.returncode}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def planned_cycles(binary, workload):
    proc = subprocess.run(
        [binary, "cycles", "--workload", workload], capture_output=True, text=True
    )
    if proc.returncode != 0:
        fail(f"unknown workload {workload!r}")
    return int(proc.stdout.strip())


def percentile(sorted_xs, q):
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def repeat(seconds, run_one, enough):
    """Call `run_one` until `enough(results)` holds and the next call would
    overrun the interval; return the results."""
    start = time.monotonic()
    out = []
    while True:
        t0 = time.monotonic()
        out.append(run_one())
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed + last > HARD_LIMIT_S or (enough(out) and elapsed + last > seconds):
            return out


def enough_samples(records):
    cycles = sum(len(r["cycle_ms"]) for r in records if r)
    return len(records) >= MIN_EPISODES and 2 * cycles >= 3 * MIN_CYCLE_SAMPLES


def accounting(records, cycles):
    """(correct, attempted, failed): a failed episode fails all its cycles."""
    attempted = cycles * len(records)
    failed = cycles * sum(1 for r in records if not (r and r["correct"]))
    return failed == 0, attempted, failed


def end_to_end(records):
    ok = [r for r in records if r and r["cycle_ms"]]
    if not ok:
        fail("no episode produced timings")
    kept = []
    for r in sorted(ok, key=lambda r: r["loop_s"]):
        kept.append(r)
        if sum(len(k["cycle_ms"]) for k in kept) >= MIN_CYCLE_SAMPLES:
            break
    samples = sorted(x for r in kept for x in r["cycle_ms"])
    beyond = len(samples) - math.ceil(0.9 * len(samples))
    values = {
        "cell_updates_per_s": statistics.median(r["cell_updates"] / r["loop_s"] for r in kept),
        "cycle_ms_p50": statistics.median(samples),
        "cycle_ms_p90": percentile(samples, 0.9),
        "setup_s": statistics.median(r["setup_s"] for r in kept),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in ok) / 1024.0,
    }
    fastest = f"the {len(kept)} fastest of {len(ok)} episodes"
    notes = {
        "cell_updates_per_s": f"median of {fastest}, {kept[0]['cell_updates']} updates each",
        "cycle_ms_p50": f"{len(samples)} cycles of {fastest}",
        "cycle_ms_p90": f"{len(samples)} cycles of {fastest}, {beyond} beyond",
        "setup_s": f"median of {fastest}",
        "peak_rss_mb": f"VmHWM, median of {len(ok)} episodes",
    }
    return values, notes


def describe(record):
    """Size of one workload's run, for the record in BENCHMARK.json."""
    cells = lambda levels: sum(levels) * record["block_cells"]
    blocks_end = sum(record["levels_end"])
    per_rank_mb = blocks_end * record["block_bytes"] * 3 / 2**20
    return (
        f"blocks per level {record['levels_start']} -> {record['levels_end']}, "
        f"interior cells {cells(record['levels_start'])} -> {cells(record['levels_end'])}, "
        f"computed field bytes per rank at end {per_rank_mb:.1f} MiB "
        f"(blocks x ghosted block bytes x 3 copies; L3 300 MiB)"
    )


def print_metrics(title, values, units, notes):
    print(title)
    for name, value in values.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {value:14.6g} {units[name]:6s} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--describe", action="store_true")
    args = ap.parse_args()

    schema = load_schema()
    target, binary = build()
    if args.self_test:
        sys.exit(subprocess.run([binary, "self-test"], cwd=ROOT).returncode)
    if args.describe:
        for w in schema["workloads"]:
            r = run_episode(binary, w["name"], args.seed)
            print(f"{w['name']}: {describe(r) if r else 'FAILED'}")
        return
    names = [w["name"] for w in schema["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    cycles = planned_cycles(binary, args.workload)

    if args.trace == 0:
        records = repeat(
            args.seconds, lambda: run_episode(binary, args.workload, args.seed), enough_samples
        )
        correct, attempted, failed = accounting(records, cycles)
        values, notes = end_to_end(records)
        units = {m["name"]: m["unit"] for m in schema["end_to_end"]}
        wanted = [m["name"] for m in schema["end_to_end"]]
        print(f"{args.workload} seed {args.seed}: {len(records)} episodes of {cycles} cycles")
        print_metrics("end-to-end", values, units, notes)
    else:
        trace_dir = os.path.join(target, "perfbench")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, f"trace-{args.workload}-s{args.seed}.json")
        pairs = repeat(
            args.seconds,
            lambda: (
                run_episode(binary, args.workload, args.seed),
                run_episode(binary, args.workload, args.seed, trace_out),
            ),
            lambda done: True,
        )
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        correct, attempted, failed = accounting(untraced + traced, cycles)
        same = all(
            u and t and u["checks"]["digest"] == t["checks"]["digest"] for u, t in pairs
        )
        if not same:
            print("perfbench: a traced run did not end on the untraced digest", file=sys.stderr)
            correct = False
            failed = attempted
        ok_t = [t for t in traced if t and t["layers"]]
        if not ok_t:
            fail("no traced episode produced layer metrics")
        values, notes = {}, {}
        for name in ok_t[0]["layers"]:
            values[name] = statistics.median(t["layers"][name]["value"] for t in ok_t)
            notes[name] = ok_t[0]["layers"][name]["basis"]
        best = lambda rs: max(r["cell_updates"] / r["loop_s"] for r in rs if r and r["loop_s"] > 0)
        values["trace.overhead"] = 1.0 - best(traced) / best(untraced)
        notes["trace.overhead"] = (
            f"1 - traced/untraced cell_updates_per_s, fastest of {len(pairs)} each"
        )
        units = {m["name"]: m["unit"] for m in schema["per_layer"]}
        wanted = [m["name"] for m in schema["per_layer"]]
        extra = {k: v for k, v in values.items() if k not in units}
        print(f"{args.workload} seed {args.seed}: {len(pairs)} untraced/traced pairs; spans in {trace_out}")
        print_metrics("per-layer", {k: values[k] for k in wanted if k in values}, units, notes)
        if extra:
            print_metrics(
                "layers of this backend only", extra, {k: "" for k in extra}, notes
            )
        for note in ok_t[0]["notes"]:
            print(f"  {note}")
    missing = [m for m in wanted if m not in values]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m: {"value": values[m], "unit": units[m]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
