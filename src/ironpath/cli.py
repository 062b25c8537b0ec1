"""Command-line pipeline: synth, train, detect, plan, overlay.

The JSON report (UTF-8, sorted keys) is the single machine interface; the
SVG overlay is derived from it.  For fixed inputs, config and seed the report
is byte-identical across reruns: every stage is deterministic, the score
stage gives the same bits on any number of threads (IRONPATH_THREADS), and
timing diagnostics go to stderr unless --timing explicitly adds them to the
report.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import classify, curvature, discont, fusion, gridio, mixture, overlay, planner, synth

SCHEMA_VERSION = 1
SYNTH_FILES = ("height.fgrid", "light1.pgm", "light2.pgm",
               "ref1.pgm", "ref2.pgm", "labels.pgm")


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage


@dataclass
class PipelineConfig:
    """Every tunable parameter, parseable from a plain-text key/value file."""

    seed: int = 0
    # curvature scan
    smooth_sigma_px: float = 2.0
    polarity: str = "up"
    eps_umbilic_rel: float = 1e-9
    min_volume_m3: float = 1e-6
    min_pixels: int = 5
    close_iterations: int = 2
    min_minor_axis_m: float = 0.008
    # classifier
    score_threshold: float = 0.5
    negatives_per_positive: int = 3
    svm_lambda: float = 1e-4
    svm_epochs: int = 20
    svm_seed: int = 7
    svm_calibrate: bool = False
    # segment extraction
    hough_rho_px: float = 1.0
    hough_theta_deg: float = 1.0
    hough_min_votes: float = 10.0
    gating_px: float = 2.0
    gap_px: float = 5.0
    min_len_px: float = 15.0
    max_len_px: float = math.inf
    nms_rho_px: float = 5.0
    nms_theta_deg: float = 5.0
    # fusion
    clearance_samples: int = 16
    p_min: float = 0.3
    # ironing
    iron_long_axis_m: float = 0.20
    iron_short_axis_m: float = 0.10
    press_depth_m: float = 0.01
    foam_stiffness_n_per_m: float = 1200.0
    foam_thickness_m: float = 0.06
    lift_height_m: float = 0.05
    travel_speed_m_per_s: float = 0.20
    slide_speed_m_per_s: float = 0.10
    home_x_m: float = 0.0
    home_y_m: float = 0.0

    def bump_params(self) -> curvature.BumpParams:
        return curvature.BumpParams(
            smooth_sigma_px=self.smooth_sigma_px, polarity=self.polarity,
            eps_umbilic_rel=self.eps_umbilic_rel, min_volume_m3=self.min_volume_m3,
            min_pixels=self.min_pixels, close_iterations=self.close_iterations,
            min_minor_axis_m=self.min_minor_axis_m)

    def hough_params(self) -> discont.HoughParams:
        return discont.HoughParams(
            rho_res_px=self.hough_rho_px, theta_res_deg=self.hough_theta_deg,
            min_votes=self.hough_min_votes, gating_px=self.gating_px,
            gap_px=self.gap_px, min_len_px=self.min_len_px,
            max_len_px=self.max_len_px, nms_rho_px=self.nms_rho_px,
            nms_theta_deg=self.nms_theta_deg)

    def train_hyper(self) -> classify.TrainHyper:
        return classify.TrainHyper(self.svm_lambda, self.svm_epochs,
                                   self.svm_seed, self.svm_calibrate)

    def iron_spec(self) -> planner.IronSpec:
        return planner.IronSpec(
            long_axis=self.iron_long_axis_m, short_axis=self.iron_short_axis_m,
            press_depth=self.press_depth_m, foam_stiffness=self.foam_stiffness_n_per_m,
            foam_thickness=self.foam_thickness_m, lift_height=self.lift_height_m,
            travel_speed=self.travel_speed_m_per_s, slide_speed=self.slide_speed_m_per_s)

    def home(self) -> tuple[float, float]:
        return (self.home_x_m, self.home_y_m)


def parse_config(path) -> PipelineConfig:
    """Read `key value` lines; unknown keys are rejected."""
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'key value'")
            key, sval = parts
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            ftype = fields[key].type
            try:
                if ftype == "bool":
                    if sval.lower() not in ("true", "false", "0", "1"):
                        raise ValueError("expected true/false")
                    values[key] = sval.lower() in ("true", "1")
                elif ftype == "int":
                    values[key] = int(sval)
                elif ftype == "float":
                    values[key] = float(sval)
                    if math.isnan(values[key]):      # inf stays: max_len_px defaults to it
                        raise ValueError("not a number")
                else:
                    values[key] = sval
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from e
    cfg = PipelineConfig(**values)
    try:
        cfg.bump_params()
        cfg.train_hyper()
        if cfg.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1, "
                             f"got {cfg.negatives_per_positive}")
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    return cfg


def _json_ready(x):
    if isinstance(x, dict):
        return {k: _json_ready(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_ready(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return _json_ready(x.item())
    if isinstance(x, np.ndarray):
        return _json_ready(x.tolist())
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def dump_report(report: dict) -> str:
    return json.dumps(_json_ready(report), sort_keys=True, indent=2) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --- pipeline ---

def run_detection(height: gridio.FloatGrid, i1, i2, ref1, ref2,
                  model: classify.SvmModel, cfg: PipelineConfig,
                  timings: dict | None = None, threads: int = 1) -> dict:
    """Full detection pipeline on in-memory inputs; returns the report body.

    The score stage runs on up to `threads` threads; the report does not
    depend on their number."""
    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:
            raise StageError(name, e) from e
        if timings is not None:
            timings[name] = time.perf_counter() - t0
        return out

    for img in (i1, i2, ref1, ref2):
        if img.data.shape != height.data.shape:
            raise StageError("inputs", ValueError(
                f"image {img.data.shape} does not match height {height.data.shape}"))

    bumps = stage("curvature", lambda: curvature.detect_bumps(height, cfg.bump_params()))
    mix = stage("mixture", lambda: mixture.build_mixture(bumps))
    nimg = stage("normalize", lambda: discont.normalize(i1, i2, ref1, ref2))
    mask, scores = stage("score", lambda: discont.score_map(
        nimg, model, cfg.score_threshold, height.cell_size, height.origin, threads))
    segments = stage("segments", lambda: discont.extract_segments(
        mask, scores, cfg.hough_params(), height.transform))
    fused = stage("fusion", lambda: fusion.fuse(
        segments, mix, cfg.p_min, cfg.clearance_samples))
    plan, waypoints = stage("plan", lambda: planner.plan_ironing(
        fused, cfg.iron_spec(), cfg.home(), surface=height))

    return {
        "schema_version": SCHEMA_VERSION,
        "config": dataclasses.asdict(cfg),
        "grid": {"width": height.width, "height": height.height,
                 "cell_size_m": height.cell_size, "origin_m": list(height.origin)},
        "bumps": [{
            "id": b.id, "center_m": list(b.center), "volume_m3": b.volume,
            "d1_m": b.d1, "d2_m": b.d2, "orientation_rad": b.orientation,
            "pixel_count": int(len(b.pixels)),
        } for b in bumps],
        "mixture": [{
            "mean_m": c.mean.tolist(), "cov_m2": c.cov.tolist(),
        } for c in mix.components],
        "wrinkles": [{
            "id": f.discontinuity.id,
            "endpoints_m": [list(f.discontinuity.endpoints[0]),
                            list(f.discontinuity.endpoints[1])],
            "length_m": f.discontinuity.length,
            "direction_rad": f.discontinuity.direction,
            "support": int(len(f.discontinuity.pixels)),
            "q": f.q, "r": f.r, "p": f.p, "accepted": f.accepted,
        } for f in fused],
        "plan": _plan_dict(plan, waypoints),
    }


def _plan_dict(plan: planner.IroningPlan, waypoints) -> dict:
    return {
        "actions": [{
            "kind": a.kind, "wrinkle_id": a.wrinkle_id,
            "align_angle_rad": a.align_angle,
            "start_m": list(a.start), "end_m": list(a.end),
            "travel_leg_m": a.travel_leg, "slide_len_m": a.slide_len,
            "duration_s": a.duration, "force_n": a.force,
        } for a in plan.actions],
        "waypoints": None if waypoints is None else [[
            {"t_s": wp.t, "x_m": wp.x, "y_m": wp.y, "z_m": wp.z,
             "angle_rad": wp.angle, "kind": wp.kind} for wp in wps]
            for wps in waypoints],
        "total_travel_m": plan.total_travel,
        "total_time_s": plan.total_time,
    }


# --- scene corpus helpers ---

def load_scene_dir(scene_dir: str):
    """Read the six synth outputs of one scene directory."""
    paths = {name: os.path.join(scene_dir, name) for name in SYNTH_FILES}
    return (gridio.read_grid(paths["height.fgrid"]),
            gridio.read_gray(paths["light1.pgm"]),
            gridio.read_gray(paths["light2.pgm"]),
            gridio.read_gray(paths["ref1.pgm"]),
            gridio.read_gray(paths["ref2.pgm"]),
            gridio.read_labels(paths["labels.pgm"]))


def _scene_dirs(corpus_dir: str) -> list[str]:
    out = []
    for name in sorted(os.listdir(corpus_dir)):
        d = os.path.join(corpus_dir, name)
        if os.path.isdir(d) and os.path.exists(os.path.join(d, "height.fgrid")):
            out.append(d)
    return out


def build_corpus_training_set(corpus_dir: str, cfg: PipelineConfig) -> classify.TrainingSet:
    dirs = _scene_dirs(corpus_dir)
    if not dirs:
        raise ValueError(f"no scene directories under {corpus_dir}")
    scenes = []
    for idx, d in enumerate(dirs):
        _, i1, i2, r1, r2, labels = load_scene_dir(d)
        scenes.append((discont.normalize(i1, i2, r1, r2).combined, labels,
                       cfg.seed + 1000 * idx))
    return classify.build_training_set(scenes, cfg.negatives_per_positive)


def evaluate_scenes(scene_dirs: list[str], model: classify.SvmModel,
                    cfg: PipelineConfig) -> tuple[float, float]:
    """Pooled held-out accuracy (wrinkle vs sampled background pixels at the
    training ratio) and wrinkle-pixel recall at the configured threshold."""
    correct = total = hit = positives = 0
    for idx, d in enumerate(scene_dirs):
        _, i1, i2, r1, r2, labels = load_scene_dir(d)
        nimg = discont.normalize(i1, i2, r1, r2)
        uu, vv, n_pos = classify.sample_pixels(labels, cfg.negatives_per_positive,
                                               cfg.seed + 7000 + idx, valid=nimg.valid)
        scores = classify.score_margins(model, classify.descriptors_at(nimg.combined, uu, vv))
        sp, sn = scores[:n_pos], scores[n_pos:]
        thr = cfg.score_threshold
        correct += int(np.sum(sp >= thr)) + int(np.sum(sn < thr))
        total += len(sp) + len(sn)
        hit += int(np.sum(sp >= thr))
        positives += len(sp)
    if positives == 0:          # no wrinkle pixel, so no negatives sampled either
        raise ValueError("held-out scenes contain no wrinkle pixels")
    return correct / total, hit / positives


# --- subcommands ---

def cmd_synth(args) -> int:
    if not os.path.exists(args.scene):
        print(f"scene file not found: {args.scene}", file=sys.stderr)
        return 2
    try:
        spec = synth.load_scene(args.scene)
    except ValueError as e:
        print(f"bad scene file: {e}", file=sys.stderr)
        return 2
    os.makedirs(args.outdir, exist_ok=True)
    height = synth.generate_height(spec)
    outputs = {
        "height.fgrid": lambda p: gridio.write_grid(height, p),
        "light1.pgm": lambda p: gridio.write_gray(synth.render_illumination(height, spec, 1), p),
        "light2.pgm": lambda p: gridio.write_gray(synth.render_illumination(height, spec, 2), p),
        "ref1.pgm": lambda p: gridio.write_gray(synth.render_reference(spec, 1), p),
        "ref2.pgm": lambda p: gridio.write_gray(synth.render_reference(spec, 2), p),
        "labels.pgm": lambda p: gridio.write_labels(synth.ground_truth(spec), p),
    }
    for name, writer in outputs.items():
        gridio.write_atomic(os.path.join(args.outdir, name), writer)
    print(f"wrote {len(outputs)} files to {args.outdir}")
    return 0


def cmd_train(args) -> int:
    cfg = parse_config(args.config) if args.config else PipelineConfig()
    eval_dirs = _scene_dirs(args.eval_dir) if args.eval_dir else []
    if args.eval_dir and not eval_dirs:
        print(f"no scene directories under {args.eval_dir}", file=sys.stderr)
        return 2
    try:
        ts = build_corpus_training_set(args.corpus, cfg)
        model = classify.train(ts, cfg.train_hyper())
    except (ValueError, FloatingPointError, OSError) as e:
        print(f"stage train failed: {e}", file=sys.stderr)
        return 1
    gridio.write_atomic(args.model_out, lambda p: classify.save_model(model, p))
    print(f"trained on {len(ts.positives)} positive / {len(ts.negatives)} negative "
          f"pixels; model written to {args.model_out}")
    del ts                      # evaluation needs the model only
    if eval_dirs:
        try:
            acc, rec = evaluate_scenes(eval_dirs, model, cfg)
        except (ValueError, OSError) as e:
            print(f"stage evaluate failed: {e}", file=sys.stderr)
            return 1
        print(f"held-out accuracy {acc:.4f} recall {rec:.4f}")
    return 0


def _thread_count() -> int:
    """Threads for the score stage: IRONPATH_THREADS, or when it is unset,
    the number of CPUs this process may run on."""
    raw = os.environ.get("IRONPATH_THREADS")
    if raw is None:
        return len(os.sched_getaffinity(0))
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"IRONPATH_THREADS must be an integer >= 1, got {raw!r}")
    return n


def cmd_detect(args) -> int:
    cfg = parse_config(args.config) if args.config else PipelineConfig()
    threads = _thread_count()
    try:
        height = gridio.read_grid(args.height)
        imgs = [gridio.read_gray(p) for p in (args.i1, args.i2, args.ref1, args.ref2)]
        model = classify.load_model(args.model)
    except (OSError, ValueError) as e:
        print(f"stage inputs failed: {e}", file=sys.stderr)
        return 1
    timings: dict = {}
    report = run_detection(height, *imgs, model, cfg, timings, threads)
    report["inputs"] = {
        "height": {"path": args.height, "sha256": _sha256(args.height)},
        "light1": {"path": args.i1, "sha256": _sha256(args.i1)},
        "light2": {"path": args.i2, "sha256": _sha256(args.i2)},
        "ref1": {"path": args.ref1, "sha256": _sha256(args.ref1)},
        "ref2": {"path": args.ref2, "sha256": _sha256(args.ref2)},
        "model": {"path": args.model, "sha256": _sha256(args.model)},
    }
    for name, dt in timings.items():
        print(f"stage {name}: {dt:.3f} s", file=sys.stderr)
    if args.timing:
        report["timing_s"] = timings
    text = dump_report(report)
    if args.out:
        gridio.write_atomic(args.out, lambda p: _write_text(p, text))
    else:
        sys.stdout.write(text)
    return 0


def _read_report(path) -> dict:
    """A detection report; ValueError when it is not a JSON object."""
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    if not isinstance(report, dict):
        raise ValueError("not a JSON object")
    return report


# what a malformed report raises where it is read
_REPORT_ERRORS = (ValueError, KeyError, TypeError, IndexError)


def _report_failed(path, e: Exception) -> int:
    what = f"missing key {e}" if isinstance(e, KeyError) else str(e)
    print(f"stage inputs failed: {path}: {what}", file=sys.stderr)
    return 1


def cmd_plan(args) -> int:
    cfg = parse_config(args.config) if args.config else PipelineConfig()
    try:
        report = _read_report(args.report)
        fused = []
        for wk in report.get("wrinkles", []):
            d = discont.Discontinuity(
                id=wk["id"], endpoints=(tuple(wk["endpoints_m"][0]), tuple(wk["endpoints_m"][1])),
                pixels=np.zeros((0, 2), np.int64), scores=np.zeros(0),
                length=wk["length_m"], direction=wk["direction_rad"])
            fused.append(fusion.fuse_one(d, wk["q"], wk["r"], cfg.p_min))
    except _REPORT_ERRORS as e:
        return _report_failed(args.report, e)
    surface = gridio.read_grid(args.height) if args.height else None
    try:
        plan, waypoints = planner.plan_ironing(fused, cfg.iron_spec(), cfg.home(),
                                               surface=surface)
    except ValueError as e:
        print(f"stage plan failed: {e}", file=sys.stderr)
        return 1
    report["plan"] = _plan_dict(plan, waypoints)
    report["config"] = dataclasses.asdict(cfg)
    for wk, f in zip(report.get("wrinkles", []), fused):
        wk["accepted"] = f.accepted
    text = dump_report(report)
    if args.out:
        gridio.write_atomic(args.out, lambda p: _write_text(p, text))
    else:
        sys.stdout.write(text)
    return 0


def cmd_overlay(args) -> int:
    try:
        height = gridio.read_grid(args.height)
    except (OSError, ValueError) as e:
        print(f"stage overlay failed: {e}", file=sys.stderr)
        return 1
    try:
        svg = overlay.render_overlay(_read_report(args.report), height)
    except _REPORT_ERRORS as e:
        return _report_failed(args.report, e)
    gridio.write_atomic(args.out, lambda p: _write_text(p, svg))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ironpath",
        description="wrinkle detection and ironing path planning")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene from a scene file")
    p.add_argument("scene", help="scene spec file")
    p.add_argument("outdir", help="output directory for the six scene files")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train the pixel classifier on a scene corpus")
    p.add_argument("corpus", help="directory of scene subdirectories")
    p.add_argument("model_out", help="output model file")
    p.add_argument("--eval-dir", help="held-out scene directory to report accuracy on")
    p.add_argument("--config", help="pipeline config file")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("detect", help="run the full detection + planning pipeline")
    p.add_argument("height", help="height map (FGRID)")
    p.add_argument("i1", help="light 1 capture (PGM)")
    p.add_argument("i2", help="light 2 capture (PGM)")
    p.add_argument("ref1", help="light 1 flat reference (PGM)")
    p.add_argument("ref2", help="light 2 flat reference (PGM)")
    p.add_argument("--model", required=True, help="trained classifier model")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--timing", action="store_true",
                   help="include stage timings in the report (breaks rerun byte-identity)")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("plan", help="re-plan ironing from an existing report")
    p.add_argument("report", help="detection report JSON")
    p.add_argument("--height", help="height map for waypoint z values")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--out", help="write the updated report here instead of stdout")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("overlay", help="render an SVG overlay from a report")
    p.add_argument("report", help="detection report JSON")
    p.add_argument("height", help="height map (FGRID)")
    p.add_argument("out", help="output SVG path")
    p.set_defaults(fn=cmd_overlay)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"missing input: {e}", file=sys.stderr)
        return 2
    except StageError as e:
        print(e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
