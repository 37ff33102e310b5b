"""One pass of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --pass-id K [--trace]

Started by run.py once per pass, so that every pass pays what a user's
first CLI invocation pays (nothing warm from an earlier pass). Prints
one JSON object as its last line: stage and part times, operations and
their failed checks, bytes written, peak RSS, CSV hashes, and with
--trace the per-layer metrics of the pass. Spans of a traced pass are
written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The same on every commit, set before the interpreter starts: BLAS on one
# thread, and glibc's mmap threshold fixed at 4 MiB. With the default
# threshold, which moves with the sizes of freed blocks, the peak RSS of
# a solver pass moved between 205 and 255 MB from run to run; fixed, it
# repeats within 1 MB.
PASS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": "4194304"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-id", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    os.environ.update(PASS_ENV)
    sys.path[:0] = [str(HERE), str(SRC)]
    import blowuplab.cli
    if Path(blowuplab.cli.__file__).resolve().parent != SRC / "blowuplab":
        print(f"imported blowuplab from {blowuplab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.pass_id = args.pass_id
        tracer.install()
    try:
        p = WORKLOADS[args.workload].run_pass(work, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = dict(wall_s=p.wall_s, stage=p.stage, parts=p.parts, failures=p.failures,
                  bytes_written=p.bytes_written, hashes=p.csv_hashes(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(args.pass_id)
        result["missing_hooks"] = tracer.missing
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}-pass{args.pass_id}.csv.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
