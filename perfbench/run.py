"""Scan benchmark: `detect` on cluttered scenes and `train` on a scene corpus.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-clean --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each exists):
  scan-clean    detect on two 640x480 cluttered scenes, no sensor noise
  scan-noisy    the same scenes with the training corpus's sensor noise
  train-corpus  train --eval-dir on criterion 5's 10-scene corpus and 5 held-out scenes

The inputs are written by an untimed preparation step in this process; the
timed operations run `ironpath.cli.main` in a separate worker process.
Outputs are checked by oracle.py.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
WORK = os.path.join(HERE, "work")

WORKLOADS = ("scan-clean", "scan-noisy", "train-corpus")
SCAN_SCENES = 2         # scenes a scan workload detects per run
MODEL_SEED = 0          # corpus seed of the model the scan workloads use
SETUP_REPEATS = 5

END_TO_END = {
    "detect_s": "s", "train_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "ridge_recall": "ratio", "wrinkle_precision": "ratio", "bump_iou": "ratio",
    "mask_f1": "ratio", "heldout_accuracy": "ratio", "heldout_recall": "ratio",
}
DETECT_SPANS = ("gridio.read", "classify.load_model", "curvature.detect_bumps",
                "mixture.build_mixture", "discont.normalize", "discont.score_map",
                "discont.extract_segments", "fusion.fuse", "planner.plan_ironing",
                "cli.dump_report", "gridio.write")
DETECT_COUNTS = {"discont.mask_px": "count", "discont.segments": "count",
                 "curvature.bumps": "count", "fusion.accepted": "count",
                 "planner.actions": "count", "planner.waypoints": "count",
                 "cli.report_bytes": "bytes", "discont.score_map.minor_faults": "count",
                 "discont.score_map.sys_s": "s"}
TRAIN_SPANS = ("cli.build_corpus_training_set", "classify.train", "cli.evaluate_scenes")
TRAIN_COUNTS = {"classify.examples": "count"}
SCENE_FILES = ("height.fgrid", "light1.pgm", "light2.pgm", "ref1.pgm", "ref2.pgm")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))


def measure_setup() -> float:
    """Median wall time to start an interpreter and import ironpath.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ironpath.cli"], env=worker_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_quiet(argv) -> int:
    from ironpath import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def write_corpus(seed: int, outdir: str) -> tuple[str, str]:
    import scenes
    train, held = scenes.corpus_specs(seed)
    for i, spec in enumerate(train):
        scenes.write_scene(spec, os.path.join(outdir, "train", f"scene{i:02d}"))
    for i, spec in enumerate(held):
        scenes.write_scene(spec, os.path.join(outdir, "held", f"scene{i:02d}"))
    return os.path.join(outdir, "train"), os.path.join(outdir, "held")


def scan_model() -> tuple[str, str, str]:
    """The scan workloads' model, trained once per source tree and cached.

    Returns (model path, corpus dir, held-out dir).
    """
    digest = hashlib.sha256()
    for d in (os.path.join(SRC, "ironpath"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as f:
                    digest.update(name.encode() + f.read())
    cache = os.path.join(WORK, f"model-{digest.hexdigest()[:16]}")
    paths = (os.path.join(cache, "model.svmw"), os.path.join(cache, "corpus", "train"),
             os.path.join(cache, "corpus", "held"))
    if not os.path.exists(paths[0]):
        tmp = f"{cache}.{os.getpid()}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        train, held = write_corpus(MODEL_SEED, os.path.join(tmp, "corpus"))
        if cli_quiet(["train", train, os.path.join(tmp, "model.svmw"), "--eval-dir", held]):
            fail("training the scan model failed")
        try:
            os.rename(tmp, cache)
        except OSError:             # another run cached the same model first
            shutil.rmtree(tmp)
    return paths


def detect_op(scene_dir: str, model: str, report: str, key: str, keep: str | None = None):
    argv = (["detect"] + [os.path.join(scene_dir, n) for n in SCENE_FILES]
            + ["--model", model, "--out", report])
    return {"kind": "detect", "argv": argv, "key": key, "out": report, "scene": scene_dir,
            "keep": keep}


def train_op(corpus: str, held: str, model: str, key: str):
    return {"kind": "train", "argv": ["train", corpus, model, "--eval-dir", held],
            "key": key, "out": model, "corpus": corpus}


def build_plan(workload: str, seed: int, run_dir: str) -> dict:
    """Write the workload's inputs and return the worker's plan."""
    import scenes
    reports = os.path.join(run_dir, "reports")
    os.makedirs(reports)
    kept = os.path.join(run_dir, "kept")
    n = 0

    def out(ext):
        nonlocal n
        n += 1
        return os.path.join(reports, f"op{n:03d}.{ext}")

    if workload != "train-corpus":
        model, corpus, held = scan_model()
        dirs = [scenes.write_scene(scenes.scan_scene(seed, i, workload == "scan-noisy"),
                                   os.path.join(run_dir, f"scene{i}"))
                for i in range(SCAN_SCENES)]
        warmup = [detect_op(dirs[0], model, out("json"), "scene0", keep=kept)]
        # each round interleaves the other kind of operation, so that both are
        # sampled across the whole run: this machine's speed drifts over tens
        # of seconds, and trains timed back to back at the end of a run gave
        # train_s a spread of 30 % of its median between runs
        rounds = []
        for i, d in enumerate(dirs):
            rounds += [detect_op(d, model, out("json"), f"scene{i}"),
                       train_op(corpus, held, out("svmw"), "corpus")]
        return {"own": "detect", "warmup": warmup, "round": rounds, "reference_model": model}
    # train-corpus: the freshly trained model scans the first clean scan scene
    corpus, held = write_corpus(seed, os.path.join(run_dir, "corpus"))
    scene = scenes.write_scene(scenes.scan_scene(seed, 0, False), os.path.join(run_dir, "scene0"))
    model = out("svmw")
    warmup = [train_op(corpus, held, model, "corpus"),
              detect_op(scene, model, out("json"), "scene0", keep=kept)]
    rounds = [train_op(corpus, held, out("svmw"), "corpus"),
              detect_op(scene, model, out("json"), "scene0"),
              train_op(corpus, held, out("svmw"), "corpus")]
    return {"own": "train", "warmup": warmup, "round": rounds, "reference_model": None}


def run_worker(plan: dict, run_dir: str, seconds: int, trace: bool) -> dict:
    plan = dict(plan, seconds=seconds, trace=trace,
                results=os.path.join(run_dir, "results.json"))
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                          env=worker_env(), timeout=150, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(plan["results"], encoding="utf-8") as f:
        return json.load(f)


# --- checks and metrics ---

def check_ops(plan: dict, results: dict) -> tuple[list[dict], list[str]]:
    """Check every operation; returns the timed ops (each with `errors`) and
    run-level errors.  A failed check fails its operation."""
    import numpy as np
    import oracle
    from ironpath import classify, cli

    ops = results["ops"]
    # the worker repeats the round; map each executed op back to its spec by order
    n_rounds = (len(ops) - len(plan["warmup"])) // len(plan["round"])
    order = plan["warmup"] + plan["round"] * n_rounds

    first_bytes: dict[tuple, bytes] = {}
    objective_ok: dict[bytes, bool] = {}
    run_errors: list[str] = []
    for spec, op in zip(order, ops):
        errs = []
        op["errors"] = errs
        if op["code"] != 0:
            errs.append(f"exit {op['code']}: {op['stderr'][-300:]}")
            continue
        with open(op["out"], "rb") as f:
            data = f.read()
        if spec["kind"] == "detect":
            try:
                report = oracle.strict_json(data.decode("utf-8"))
            except ValueError as e:
                errs.append(f"report is not JSON: {e}")
                continue
            errs += oracle.wrinkle_errors(report) + oracle.plan_errors(report)
            op["report"] = report
        else:
            if plan["reference_model"]:
                with open(plan["reference_model"], "rb") as f:
                    if f.read() != data:
                        errs.append("model differs from the prepared scan model")
            if "held-out accuracy" not in op["stdout"]:
                errs.append("no held-out accuracy line")
            if data not in objective_ok:
                model = classify.load_model(op["out"])
                ts = cli.build_corpus_training_set(spec["corpus"], cli.PipelineConfig())
                X = np.vstack([ts.positives, ts.negatives])
                y = np.concatenate([np.ones(len(ts.positives)), -np.ones(len(ts.negatives))])
                zero = oracle.svm_objective(np.zeros_like(model.weights), 0.0, X, y,
                                            model.hyper.reg_lambda)
                objective_ok[data] = oracle.svm_objective(
                    model.weights, model.bias, X, y, model.hyper.reg_lambda) < zero
            if not objective_ok[data]:
                errs.append("SVM objective not below the zero model's")
        key = (spec["kind"], spec["key"])
        if first_bytes.setdefault(key, data) != data:
            errs.append(f"{spec['kind']} of {spec['key']} is not byte-identical to its repeat")
    for spec, op in zip(order, ops):
        if op["phase"] == "untimed" and op["errors"]:
            run_errors.append(f"warm-up {spec['kind']} {spec['key']}: {op['errors']}")
    return [dict(op, spec=spec) for spec, op in zip(order, ops) if op["phase"] == "timed"], \
        run_errors


def kept_checks(plan: dict, timed: list[dict]) -> tuple[dict, list[str]]:
    """Mask F1 and bump IoU from the kept stage outputs, and their agreement
    with the timed report of the same scene."""
    import numpy as np
    import oracle
    from ironpath import gridio

    spec = next(s for s in plan["warmup"] if s.get("keep"))
    if not os.path.exists(os.path.join(spec["keep"], "stages.json")):
        return {"mask_f1": 0.0, "bump_iou": 0.0}, ["the kept detect left no stage outputs"]
    masks = np.load(os.path.join(spec["keep"], "masks.npz"))
    with open(os.path.join(spec["keep"], "stages.json"), encoding="utf-8") as f:
        stages = json.load(f)
    labels = np.asarray(gridio.read_labels(os.path.join(spec["scene"], "labels.pgm")).data)
    wrinkle = labels == gridio.LABEL_WRINKLE
    quality = {
        "mask_f1": oracle.f1(oracle.mask_counts(masks["wrinkle"], wrinkle)),
        # ridges crossing a bump carry the wrinkle label there: leave them out
        "bump_iou": oracle.iou(oracle.mask_counts(masks["bump"], labels == gridio.LABEL_BUMP,
                                                  ignore=wrinkle)),
    }
    errors = []
    report = next((op.get("report") for op in timed
                   if op["spec"]["key"] == spec["key"] and op["kind"] == "detect"), None)
    if report is not None:
        accepted = [{"id": w["id"], "p": w["p"], "endpoints_m": w["endpoints_m"]}
                    for w in sorted(report["wrinkles"], key=lambda w: (-w["p"], w["id"]))
                    if w["accepted"]]
        actions = [{k: a[k] for k in ("kind", "wrinkle_id", "start_m", "end_m")}
                   for a in report["plan"]["actions"]]
        if accepted != stages["accepted"] or actions != stages["actions"]:
            errors.append("stage outputs differ from the report's wrinkles or plan")
    return quality, errors


def median(values) -> float:
    """The median, or 0 when every operation of the kind failed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def own_peak_rss(plan: dict, results: dict) -> float:
    """Peak RSS before the worker first runs an operation of the other kind."""
    peak = 0.0
    for op in results["ops"]:
        if op["kind"] != plan["own"]:
            break
        peak = op["peak_rss_mb"]
    return peak


def end_to_end(plan, results, timed, quality, setup_s) -> dict:
    import oracle
    detects = [op for op in timed if op["kind"] == "detect" and not op["errors"]]
    trains = [op for op in timed if op["kind"] == "train" and not op["errors"]]
    counts = {"clear": 0, "found": 0, "accepted_m": 0.0, "true_m": 0.0}
    seen = set()
    for op in detects:
        if op["spec"]["key"] in seen:
            continue
        seen.add(op["spec"]["key"])
        with open(os.path.join(op["spec"]["scene"], "truth.json"), encoding="utf-8") as f:
            c = oracle.ridge_counts(op["report"], json.load(f))
        counts = {k: counts[k] + c[k] for k in counts}
    held = [line.split() for op in trains for line in op["stdout"].splitlines()
            if line.startswith("held-out accuracy")]
    values = {
        "detect_s": median(op["wall_s"] for op in detects),
        "train_s": median(op["wall_s"] for op in trains),
        "setup_s": setup_s,
        "peak_rss_mb": own_peak_rss(plan, results),
        "ridge_recall": oracle.ratio(counts["found"], counts["clear"]),
        "wrinkle_precision": oracle.ratio(counts["true_m"], counts["accepted_m"]),
        "bump_iou": quality["bump_iou"],
        "mask_f1": quality["mask_f1"],
        "heldout_accuracy": median(float(h[2]) for h in held),
        "heldout_recall": median(float(h[4]) for h in held),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(results, timed) -> tuple[dict, dict]:
    """Per-layer metrics (medians over the timed ops) and trace accounting."""
    import spans
    out = {}
    accounting = {}
    for kind, names, counts, root in (
            ("detect", DETECT_SPANS, DETECT_COUNTS, "cli.detect"),
            ("train", TRAIN_SPANS, TRAIN_COUNTS, "cli.train")):
        ops = [op for op in timed if op["kind"] == kind and not op["errors"]]
        selfs = [spans.self_times(results["spans"], op["root"]) for op in ops]
        tallies = [spans.subtree_counts(results["spans"], op["root"]) for op in ops]
        for name in names:
            out[f"{name}_s"] = {"value": median(s.get(name, 0.0) for s in selfs),
                                "unit": "s"}
        for name, unit in counts.items():
            out[name] = {"value": median(t.get(name, 0) for t in tallies), "unit": unit}
        walls = [op["wall_s"] for op in ops]
        accounting[kind] = {
            "traced_median_s": median(walls),
            "uncovered_share": median(s[root] / w for s, w in zip(selfs, walls)),
        }
        if kind == "detect":
            out["cli.detect_self_s"] = {"value": median(s[root] for s in selfs), "unit": "s"}
    return out, accounting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ironpath", "cli.py")):
        fail(f"no ironpath sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)

    setup_s = measure_setup()
    run_dir = os.path.join(WORK, "runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        plan = build_plan(args.workload, args.seed, run_dir)
        results = run_worker(plan, run_dir, args.seconds, bool(args.trace))
        timed, run_errors = check_ops(plan, results)
        quality, kept_errors = kept_checks(plan, timed)
        run_errors += kept_errors
        failed = [op for op in timed if op["errors"]]
        for op in failed:
            print(f"failed {op['kind']} {op['spec']['key']}: {op['errors']}", file=sys.stderr)
        for e in run_errors:
            print(f"check failed: {e}", file=sys.stderr)
        if args.trace:
            metrics, accounting = per_layer(results, timed)
            print(f"trace accounting: {json.dumps(accounting, sort_keys=True)}", file=sys.stderr)
        else:
            metrics = end_to_end(plan, results, timed, quality, setup_s)
        summary = {
            # a failed check makes the run incorrect; an operation that exits
            # non-zero or raises only counts as failed
            "correct": not run_errors and not any(
                e for op in failed for e in op["errors"] if not e.startswith("exit ")),
            "attempted": len(timed),
            "failed": len(failed),
            "metrics": metrics,
        }
        with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
    finally:
        for name in os.listdir(run_dir):      # keep the plan, results, spans and summary
            if os.path.isdir(os.path.join(run_dir, name)):
                shutil.rmtree(os.path.join(run_dir, name))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
