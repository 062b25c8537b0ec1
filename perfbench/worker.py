"""The measured process: runs `ironpath.cli.main` operations in-process and times them.

Usage: python3 perfbench/worker.py PLAN_JSON

The plan (written by run.py) lists untimed warm-up operations and one round
of timed operations, repeated until `seconds` have passed.  An operation is a
`detect` or `train` argv.  Warm-up operations marked `keep` record the
curvature, score, fusion and plan outputs for the oracle.  After each
operation the process's peak RSS so far is recorded.  With `trace`, every
timed operation runs under spans (spans.py) and the spans are written out at
the end.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time

import numpy as np

from ironpath import cli, gridio

import spans

CALLS = {"detect": spans.DETECT_CALLS, "train": spans.TRAIN_CALLS}


def run_op(op: dict, tracer: spans.Tracer | None) -> dict:
    """One CLI invocation; returns its wall and CPU time, exit code and output.

    CPU time (all threads) is kept beside wall time to show contention."""
    out, err = io.StringIO(), io.StringIO()
    root = None
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                t0 = time.perf_counter()
                code = cli.main(op["argv"])
                wall = time.perf_counter() - t0
            else:
                root = len(tracer.spans)
                with tracer.installed(CALLS[op["kind"]]), tracer.span(f"cli.{op['kind']}") as s:
                    code = cli.main(op["argv"])
                wall = s["end"] - s["start"]
        except Exception as e:          # a traceback is a failed operation, not a crash
            code, wall = f"{type(e).__name__}: {e}", float("nan")
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime
    return {"kind": op["kind"], "key": op["key"], "out": op["out"], "code": code,
            "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": r1.ru_maxrss / 1024.0,            # ru_maxrss is in KiB on Linux
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:], "root": root}


def save_kept(tracer: spans.Tracer, outdir: str) -> None:
    """Stage outputs of a kept warm-up detect: masks as .npz, fusion and plan as JSON."""
    os.makedirs(outdir, exist_ok=True)
    (bumps,) = tracer.results["curvature.detect_bumps"]
    ((mask, _),) = tracer.results["discont.score_map"]
    (fused,) = tracer.results["fusion.fuse"]
    ((plan, _),) = tracer.results["planner.plan_ironing"]
    wrinkle_mask = np.asarray(mask.data) == gridio.LABEL_WRINKLE
    bump_mask = np.zeros(wrinkle_mask.shape, bool)
    for b in bumps:
        bump_mask[b.pixels[:, 1], b.pixels[:, 0]] = True
    np.savez_compressed(os.path.join(outdir, "masks.npz"),
                        wrinkle=wrinkle_mask, bump=bump_mask)
    stages = {
        "accepted": [{"id": f.discontinuity.id, "p": f.p,
                      "endpoints_m": [list(e) for e in f.discontinuity.endpoints]}
                     for f in fused if f.accepted],
        "actions": [{"kind": a.kind, "wrinkle_id": a.wrinkle_id,
                     "start_m": list(a.start), "end_m": list(a.end)} for a in plan.actions],
    }
    with open(os.path.join(outdir, "stages.json"), "w", encoding="utf-8") as f:
        json.dump(stages, f)


def numbered(op: dict, n: int) -> dict:
    """The op writing its output to a file of its own in round n, so that
    repeated rounds can be compared byte for byte."""
    root, ext = os.path.splitext(op["out"])
    out = f"{root}-round{n}{ext}"
    return dict(op, out=out, argv=[out if a == op["out"] else a for a in op["argv"]])


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    ops = []
    for op in plan["warmup"]:
        kept = spans.Tracer(keep=True) if op.get("keep") else None
        record = run_op(op, kept)
        if kept is not None and record["code"] == 0:
            save_kept(kept, op["keep"])
        ops.append(dict(record, phase="untimed", root=None))
    tracer = spans.Tracer() if plan["trace"] else None
    start = time.perf_counter()
    for n in itertools.count():
        ops.extend(dict(run_op(numbered(op, n), tracer), phase="timed") for op in plan["round"])
        if time.perf_counter() - start >= plan["seconds"]:
            break
    with open(plan["results"], "w", encoding="utf-8") as f:
        json.dump({"ops": ops, "spans": tracer.spans if tracer else []}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
