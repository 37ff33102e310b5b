"""Benchmark of blowup-lab: end-to-end and per-layer metrics of two workloads.

    python3 perfbench/run.py --workload solver-pipelines --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its
`src/`. A run makes passes of the workload, each in a fresh interpreter
(worker.py), until another pass would end after `--seconds` (at least
one). It times nine start-ups of an interpreter, five before the passes
and four after them, and prints one JSON object as its last line:
end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`. A traced run alternates untraced and traced passes, so it
also reports the tracing overhead. Outputs, spans and CSV hashes go to
`.perfbench_out/` in the checkout. See NOTES.md for what each metric
should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import OUT, PASS_ENV, ROOT, SRC  # noqa: E402

SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 5, 4   # start-ups timed around the passes
PASS_LIMIT_S = 150.0  # passes stop here; with the start-up probes a run ends within 180 s

# One user start-up: interpreter, `import blowuplab` with its CLI, config load.
PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import blowuplab.cli
if len(sys.argv) > 2:
    blowuplab.cli.load_config(sys.argv[2])
print(repr(time.time()))
"""


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_times(config, n):
    """Wall times of n start-ups, from spawning an interpreter to its loaded config."""
    cmd = [sys.executable, "-c", PROBE, str(SRC)] + ([str(config)] if config else [])
    times = []
    for _ in range(n):
        t0 = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=20,
                              env=dict(os.environ, **PASS_ENV), cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"start-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def source_fingerprint():
    """Hash of the program and the workloads: CSV hashes are only
    compared between passes of the same code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [Path(__file__).with_name("workloads.py")]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(r, key):
    """Fail the pass when its CSVs differ from those of the first pass of
    the same workload, seed and code, in this run or an earlier one."""
    store = OUT / "hashes.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    hashes = r["hashes"]
    if key not in known:
        known[key] = hashes
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)
    diff = sorted(k for k in set(hashes) | set(known[key])
                  if hashes.get(k) != known[key].get(k))
    if diff:
        for why in r["failures"].values():
            why.append(f"outputs differ from the first pass: {diff}")


def run_pass(args, pass_id, traced, deadline):
    """One pass in a fresh interpreter; its JSON result, or None if the
    worker crashed or ran past the run's time limit."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-id", str(pass_id)]
    if traced:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=dict(os.environ, **PASS_ENV),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"pass {pass_id} exceeded the run's time limit", file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"pass {pass_id} exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "blowuplab" / "__init__.py").is_file():
        print(f"blowuplab sources not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    key = f"{args.workload}/seed{args.seed}/{source_fingerprint()}"
    # Start-ups are timed before and after the passes, so that their
    # median does not hang on the machine's speed at one moment.
    probe_config = wl.probe_config(work, args.seed)
    setups = setup_times(probe_config, SETUP_PROBES_BEFORE)
    deadline = time.monotonic() + PASS_LIMIT_S

    passes = []   # (traced, result)
    t_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        r = run_pass(args, len(passes), traced, deadline)
        if r is None:
            r = dict(failures={op: ["pass crashed"] for op in wl.ops})
        else:
            check_determinism(r, key)
        for op, why in sorted(r["failures"].items()):
            if why:
                print(f"FAILED {op}: {'; '.join(why)}", file=sys.stderr)
        r["elapsed"] = time.monotonic() - t0
        passes.append((traced, r))
        elapsed = time.monotonic() - t_start
        if "wall_s" not in r:
            break
        next_end = elapsed + statistics.median(q["elapsed"] for _, q in passes)
        if next_end > args.seconds and (not args.trace or len(passes) >= 2):
            break

    ok = [(t, r) for t, r in passes if "wall_s" in r]
    attempted = sum(len(r["failures"]) for _, r in passes)
    failed = sum(1 for _, r in passes for why in r["failures"].values() if why)
    untraced = [r for t, r in ok if not t]
    traced = [r for t, r in ok if t]
    if not untraced or (args.trace and not traced):
        print("no pass completed", file=sys.stderr)
        return 1
    setup = statistics.median(setups + setup_times(probe_config, SETUP_PROBES_AFTER))

    def median(key, rs=untraced):
        return statistics.median(r[key] for r in rs)

    def median_stage(stage):
        return statistics.median(r["stage"][stage] for r in untraced)

    seed_note = "" if wl.seeded else " (no random input: the seed is not used)"
    print(f"{args.workload} seed={args.seed}{seed_note}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, solve_s={median_stage('solve'):.4f} "
          f"predict_s={median_stage('predict'):.4f} setup_probe_s={setup:.4f} "
          + " ".join(f"{k}_s={statistics.median(r['parts'][k] for r in untraced):.4f}"
                     for k in untraced[0]["parts"]))
    if args.trace:
        metrics = {}
        for r in traced:
            r["layers"]["cli.bytes_written"] = (r["bytes_written"], "bytes")
            for name, (v, unit) in r["layers"].items():
                metrics.setdefault(name, (unit, []))[1].append(v)
        out = {name: {"value": None if None in vals else statistics.median(vals),
                      "unit": unit} for name, (unit, vals) in metrics.items()}
        out["trace.overhead_s"] = {"value": median("wall_s", traced) - median("wall_s"),
                                   "unit": "s"}
        missing = sorted({m for r in traced for m in r["missing_hooks"]})
        if missing:
            print(f"hooks with no target: {', '.join(missing)}", file=sys.stderr)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            dict(metrics=out, missing_hooks=missing,
                 untraced_wall_s=[r["wall_s"] for r in untraced],
                 traced_wall_s=[r["wall_s"] for r in traced],
                 untraced_parts=[r["parts"] for r in untraced]), indent=1))
    else:
        out = {"wall_s": {"value": median("wall_s"), "unit": "s"},
               "setup_s": {"value": setup * wl.invocations, "unit": "s"},
               "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"}}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
