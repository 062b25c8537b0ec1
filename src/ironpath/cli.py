"""Command-line pipeline: synth, train, detect, plan, overlay.

The JSON report (UTF-8, sorted keys) is the single machine interface; the
SVG overlay is derived from it.  For fixed inputs, config and seed the report
is byte-identical across reruns: every stage is deterministic, the score
stage gives the same bits on any number of threads (IRONPATH_THREADS), and
timing diagnostics go to stderr unless --timing explicitly adds them to the
report.  `train` runs its per-scene work, building the training set and
scoring the held-out scenes, on the same number of threads, and writes the
same model and held-out line for every number; its stage timings go to
stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import os
import pathlib
import sys
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import classify, curvature, discont, fusion, gridio, mixture, overlay, planner, synth

SCHEMA_VERSION = 1
CAPTURE_FILES = ("light1.pgm", "light2.pgm", "ref1.pgm", "ref2.pgm")
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


# Largest accepted `clearance_samples`: more points along one segment than a
# 1280x960 scan has pixels along its diagonal (1600), several times over.
MAX_CLEARANCE_SAMPLES = 10_000


class ConfigError(ValueError):
    """A bad config file, config value, argument or environment value (exit 2)."""


class StageError(RuntimeError):
    """A failed pipeline stage (exit 1); `inputs` is a missing or malformed data input."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage


@dataclass
class PipelineConfig:
    """The pipeline's own values and one parameter object per stage.

    CONFIG_KEYS names every value as a config-file key; each value's type,
    default and range come from the class that holds it."""

    seed: int = 0
    score_threshold: float = 0.5
    negatives_per_positive: int = 3
    clearance_samples: int = 16
    p_min: float = 0.3
    home_x_m: float = 0.0
    home_y_m: float = 0.0
    bump: curvature.BumpParams = field(default_factory=curvature.BumpParams)
    hough: discont.HoughParams = field(default_factory=discont.HoughParams)
    train: classify.TrainHyper = field(default_factory=classify.TrainHyper)
    iron: planner.IronSpec = field(default_factory=planner.IronSpec)

    def __post_init__(self):
        # seed plus a small scene offset keys a Philox generator (keys < 2**128)
        for name, lo, hi in (("seed", 0, 2**64 - 1), ("score_threshold", 0, 1), ("p_min", 0, 1),
                             ("negatives_per_positive", 1, math.inf),
                             ("clearance_samples", 2, MAX_CLEARANCE_SAMPLES)):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must be in [{lo}, {hi}], got {getattr(self, name)}")
        for name in ("home_x_m", "home_y_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


# stage section of PipelineConfig -> its parameter class
SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)
            if f.default_factory is not MISSING}

# config-file key -> (section, field); section None is PipelineConfig itself
CONFIG_KEYS = {
    "seed": (None, "seed"),
    "smooth_sigma_px": ("bump", "smooth_sigma_px"),
    "polarity": ("bump", "polarity"),
    "eps_umbilic_rel": ("bump", "eps_umbilic_rel"),
    "min_volume_m3": ("bump", "min_volume_m3"),
    "min_pixels": ("bump", "min_pixels"),
    "close_iterations": ("bump", "close_iterations"),
    "min_minor_axis_m": ("bump", "min_minor_axis_m"),
    "score_threshold": (None, "score_threshold"),
    "negatives_per_positive": (None, "negatives_per_positive"),
    "svm_lambda": ("train", "reg_lambda"),
    "hough_rho_px": ("hough", "rho_res_px"),
    "hough_theta_deg": ("hough", "theta_res_deg"),
    "hough_min_votes": ("hough", "min_votes"),
    "gating_px": ("hough", "gating_px"),
    "gap_px": ("hough", "gap_px"),
    "min_len_px": ("hough", "min_len_px"),
    "nms_rho_px": ("hough", "nms_rho_px"),
    "nms_theta_deg": ("hough", "nms_theta_deg"),
    "clearance_samples": (None, "clearance_samples"),
    "p_min": (None, "p_min"),
    "iron_long_axis_m": ("iron", "long_axis"),
    "iron_short_axis_m": ("iron", "short_axis"),
    "press_depth_m": ("iron", "press_depth"),
    "foam_stiffness_n_per_m": ("iron", "foam_stiffness"),
    "foam_thickness_m": ("iron", "foam_thickness"),
    "lift_height_m": ("iron", "lift_height"),
    "travel_speed_m_per_s": ("iron", "travel_speed"),
    "slide_speed_m_per_s": ("iron", "slide_speed"),
    "home_x_m": (None, "home_x_m"),
    "home_y_m": (None, "home_y_m"),
}


def config_values(cfg: PipelineConfig) -> dict:
    """Every config key with its value in `cfg`: the report's `config` block."""
    return {key: getattr(cfg if section is None else getattr(cfg, section), name)
            for key, (section, name) in CONFIG_KEYS.items()}


def parse_config(path) -> PipelineConfig:
    """Read `key value` lines; unknown keys are rejected.  Every stage object
    is built here, so a value out of its class's range is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    given: dict = {section: {} for section in (None, *SECTIONS)}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'key value'")
        key, sval = parts
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        section, name = CONFIG_KEYS[key]
        ftype = next(f.type for f in fields(SECTIONS.get(section, PipelineConfig))
                     if f.name == name)
        try:
            if ftype == "int":
                value = int(sval)
            elif ftype == "float":
                value = float(sval)
                if math.isnan(value):      # inf stays: ranges with no upper bound take it
                    raise ValueError("not a number")
            else:
                value = sval
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from e
        given[section][name] = value

    def build(section, cls, **stages):
        try:
            return cls(**given[section], **stages)
        except ValueError as e:     # name the keys that set the failing object
            keys = ", ".join(k for k, (s, n) in CONFIG_KEYS.items()
                             if s == section and n in given[section])
            raise ConfigError(f"{path}: {keys}: {e}") from e
    return build(None, PipelineConfig,
                 **{section: build(section, cls) for section, cls in SECTIONS.items()})


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


# what a stage, a malformed data input or a failed write can raise
_STAGE_ERRORS = (OSError, ValueError, ArithmeticError, KeyError, TypeError, IndexError,
                 AttributeError, RecursionError, MemoryError)


@contextlib.contextmanager
def _stage(name: str, path=None, timings: dict | None = None):
    """Errors of the block fail as stage `name`.  With `path`, the file the
    block reads or writes, the message starts with it.  With `timings`, the
    block's wall time in seconds is stored there under `name`."""
    t0 = time.perf_counter()
    try:
        yield
    except _STAGE_ERRORS as e:
        what = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        if path is not None:
            what = f"{path}: {what.removeprefix(f'{path}: ')}"
        raise StageError(name, ValueError(what)) from e
    if timings is not None:
        timings[name] = time.perf_counter() - t0


def _read_input(reader, path):
    """reader(path); a missing or malformed data input fails as stage inputs."""
    with _stage("inputs", path):
        return reader(path)


def _emit(text: str, out) -> None:
    """Write `text` to the file `out`, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return
    with _stage("outputs", out):
        gridio.write_atomic(out, lambda p: pathlib.Path(p).write_text(text, encoding="utf-8"))


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
        with _stage(name, timings=timings):
            return fn()

    for img in (i1, i2, ref1, ref2):
        if img.data.shape != height.data.shape:
            raise StageError("inputs", ValueError(
                f"image {img.data.shape} does not match height {height.data.shape}"))

    bumps = stage("curvature", lambda: curvature.detect_bumps(height, cfg.bump))
    mix = stage("mixture", lambda: mixture.build_mixture(bumps))
    nimg = stage("normalize", lambda: discont.normalize(i1, i2, ref1, ref2))
    mask, scores = stage("score", lambda: discont.score_map(
        nimg, model, cfg.score_threshold, threads))
    segments = stage("segments", lambda: discont.extract_segments(
        mask, scores, cfg.hough, height.transform))
    fused = stage("fusion", lambda: fusion.fuse(
        segments, mix, cfg.p_min, cfg.clearance_samples))
    plan, waypoints = stage("plan", lambda: planner.plan_ironing(
        fused, cfg.iron, (cfg.home_x_m, cfg.home_y_m), surface=height))

    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_values(cfg),
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

def _scene_labels(scene_dir: str) -> gridio.LabelMask:
    return _read_input(gridio.read_labels, os.path.join(scene_dir, "labels.pgm"))


def _scene_image(scene_dir: str, labels: gridio.LabelMask) -> discont.NormalizedImage:
    """The normalized image of a scene directory's captures and references
    (its height map is not read); the scene's labels must match its size."""
    with _stage("inputs", scene_dir):       # captures of different sizes
        nimg = discont.normalize(*[_read_input(gridio.read_gray, os.path.join(scene_dir, name))
                                   for name in CAPTURE_FILES])
    if labels.data.shape != nimg.combined.shape:
        raise StageError("inputs", ValueError(
            f"{os.path.join(scene_dir, 'labels.pgm')}: labels {labels.data.shape} "
            f"do not match images {nimg.combined.shape}"))
    return nimg


def _scene_dirs(corpus_dir: str) -> list[str]:
    out = []
    for name in sorted(os.listdir(corpus_dir)):
        d = os.path.join(corpus_dir, name)
        if os.path.isdir(d) and os.path.exists(os.path.join(d, "height.fgrid")):
            out.append(d)
    if not out:
        raise ValueError(f"no scene directories under {corpus_dir}")
    return out


def build_corpus_training_set(corpus_dir: str, cfg: PipelineConfig,
                              threads: int = 1) -> classify.TrainingSet:
    """The training set of the scene directories under corpus_dir, one scene
    per task on up to `threads` threads (classify.build_training_set).

    Every scene's labels are read first; each task then reads and normalizes
    its own captures, so only the running tasks' images are held.  On any
    number of threads, a bad file is reported as the first one in directory
    order: the scenes in sorted order, and in a scene the labels, then the
    captures.  So when a labels file is bad, the captures of the scenes
    before it are read first."""
    dirs = _scene_dirs(corpus_dir)
    labels = []
    for d in dirs:
        try:
            labels.append(_scene_labels(d))
        except StageError:
            for earlier, lab in zip(dirs, labels):
                _scene_image(earlier, lab)
            raise
    scenes = [(lambda d=d, lab=lab: _scene_image(d, lab).combined, lab, cfg.seed + 1000 * idx)
              for idx, (d, lab) in enumerate(zip(dirs, labels))]
    return classify.build_training_set(scenes, cfg.negatives_per_positive, threads)


def evaluate_scenes(scene_dirs: list[str], model: classify.SvmModel,
                    cfg: PipelineConfig, threads: int = 1) -> tuple[float, float]:
    """Pooled held-out accuracy (wrinkle vs sampled background pixels at the
    training ratio) and wrinkle-pixel recall at the configured threshold.

    Each scene is one task on up to `threads` threads that reads its own
    files (labels, then captures) and returns integer counts; the counts are
    summed in scene order, and a bad file is reported as the first one in
    that order."""
    thr = cfg.score_threshold

    def counts(scene):
        idx, d = scene
        labels = _scene_labels(d)
        nimg = _scene_image(d, labels)
        uu, vv, n_pos = classify.sample_pixels(labels, cfg.negatives_per_positive,
                                               cfg.seed + 7000 + idx, valid=nimg.valid)
        scores = classify.score_margins(model, classify.descriptors_at(nimg.combined, uu, vv))
        hits = int(np.sum(scores[:n_pos] >= thr))
        return hits + int(np.sum(scores[n_pos:] < thr)), len(scores), hits, n_pos

    correct = total = hit = positives = 0
    for c, t, h, p in classify.thread_map(counts, list(enumerate(scene_dirs)), threads):
        correct, total, hit, positives = correct + c, total + t, hit + h, positives + p
    if positives == 0:          # no wrinkle pixel, so no negatives sampled either
        raise ValueError("held-out scenes contain no wrinkle pixels")
    return correct / total, hit / positives


# --- subcommands: each raises ConfigError or StageError, and main alone exits ---

def cmd_synth(args) -> None:
    if not os.path.exists(args.scene):
        raise ConfigError(f"scene file not found: {args.scene}")
    try:
        spec = synth.load_scene(args.scene)
    except (OSError, ValueError) as e:
        raise ConfigError(f"bad scene file: {e}") from e
    height = synth.generate_height(spec)
    outputs = {
        "height.fgrid": lambda p: gridio.write_grid(height, p),
        "light1.pgm": lambda p: gridio.write_gray(synth.render_illumination(height, spec, 1), p),
        "light2.pgm": lambda p: gridio.write_gray(synth.render_illumination(height, spec, 2), p),
        "ref1.pgm": lambda p: gridio.write_gray(synth.render_reference(spec, 1), p),
        "ref2.pgm": lambda p: gridio.write_gray(synth.render_reference(spec, 2), p),
        "labels.pgm": lambda p: gridio.write_labels(synth.ground_truth(spec), p),
    }
    with _stage("outputs", args.outdir):
        os.makedirs(args.outdir, exist_ok=True)
        for name, writer in outputs.items():
            gridio.write_atomic(os.path.join(args.outdir, name), writer)
    print(f"wrote {len(outputs)} files to {args.outdir}")


def _print_timings(timings: dict) -> None:
    for name, dt in timings.items():
        print(f"stage {name}: {dt:.3f} s", file=sys.stderr)


def cmd_train(args) -> None:
    cfg = parse_config(args.config) if args.config else PipelineConfig()
    threads = _thread_count()
    try:        # checked before training starts, like an argument
        eval_dirs = _scene_dirs(args.eval_dir) if args.eval_dir else []
    except (OSError, ValueError) as e:
        raise ConfigError(f"--eval-dir: {e}") from e
    timings: dict = {}
    with _stage("inputs", args.corpus, timings):
        ts = build_corpus_training_set(args.corpus, cfg, threads)
    with _stage("train", timings=timings):
        model = classify.train(ts, cfg.train)
    with _stage("outputs", args.model_out):
        gridio.write_atomic(args.model_out, lambda p: classify.save_model(model, p))
    print(f"trained on {len(ts.positives)} positive / {len(ts.negatives)} negative "
          f"pixels; model written to {args.model_out}")
    del ts                      # evaluation needs the model only
    if eval_dirs:
        with _stage("evaluate", timings=timings):
            acc, rec = evaluate_scenes(eval_dirs, model, cfg, threads)
        print(f"held-out accuracy {acc:.4f} recall {rec:.4f}")
    _print_timings(timings)


def _thread_count() -> int:
    """Threads for the score stage of detect and the per-scene work of train:
    IRONPATH_THREADS, or when it is unset, the number of CPUs this process
    may run on (all of the machine's CPUs where the OS has no affinity call,
    as on macOS and Windows)."""
    raw = os.environ.get("IRONPATH_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"IRONPATH_THREADS must be an integer >= 1, got {raw!r}")
    return n


def cmd_detect(args) -> None:
    cfg = parse_config(args.config) if args.config else PipelineConfig()
    threads = _thread_count()
    height = _read_input(gridio.read_grid, args.height)
    imgs = [_read_input(gridio.read_gray, p) for p in (args.i1, args.i2, args.ref1, args.ref2)]
    model = _read_input(classify.load_model, args.model)
    timings: dict = {}
    report = run_detection(height, *imgs, model, cfg, timings, threads)
    paths = {"height": args.height, "light1": args.i1, "light2": args.i2,
             "ref1": args.ref1, "ref2": args.ref2, "model": args.model}
    report["inputs"] = {k: {"path": p, "sha256": _sha256(p)} for k, p in paths.items()}
    _print_timings(timings)
    if args.timing:
        report["timing_s"] = timings
    _emit(dump_report(report), args.out)


def _read_report(path) -> dict:
    """A detection report; ValueError when it is not a JSON object."""
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    if not isinstance(report, dict):
        raise ValueError("not a JSON object")
    return report


def cmd_plan(args) -> None:
    cfg = parse_config(args.config) if args.config else PipelineConfig()
    with _stage("inputs", args.report):
        report = _read_report(args.report)
        fused = []
        for wk in report.get("wrinkles", []):
            (x0, y0), (x1, y1) = wk["endpoints_m"]
            d = discont.Discontinuity(
                id=int(wk["id"]), endpoints=((float(x0), float(y0)), (float(x1), float(y1))),
                pixels=np.zeros((0, 2), np.int64), scores=np.zeros(0),
                length=float(wk["length_m"]), direction=float(wk["direction_rad"]))
            fused.append(fusion.fuse_one(d, float(wk["q"]), float(wk["r"]), cfg.p_min))
    surface = _read_input(gridio.read_grid, args.height) if args.height else None
    with _stage("plan"):
        plan, waypoints = planner.plan_ironing(fused, cfg.iron, (cfg.home_x_m, cfg.home_y_m),
                                               surface=surface)
    report["plan"] = _plan_dict(plan, waypoints)
    report["config"] = config_values(cfg)
    for wk, f in zip(report.get("wrinkles", []), fused):
        wk["accepted"] = f.accepted
    _emit(dump_report(report), args.out)


def cmd_overlay(args) -> None:
    height = _read_input(gridio.read_grid, args.height)
    with _stage("inputs", args.report):
        svg = overlay.render_overlay(_read_report(args.report), height)
    _emit(svg, args.out)
    print(f"wrote {args.out}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ironpath",
        description="wrinkle detection and ironing path planning")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", choices=LOG_LEVELS,
                        help="show the ironpath diagnostics of this level and above "
                             "on stderr (default: warnings only)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic scene from a scene file")
    p.add_argument("scene", help="scene spec file")
    p.add_argument("outdir", help="output directory for the six scene files")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", parents=[common],
                       help="train the pixel classifier on a scene corpus")
    p.add_argument("corpus", help="directory of scene subdirectories")
    p.add_argument("model_out", help="output model file")
    p.add_argument("--eval-dir", help="held-out scene directory to report accuracy on")
    p.add_argument("--config", help="pipeline config file")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("detect", parents=[common],
                       help="run the full detection + planning pipeline")
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

    p = sub.add_parser("plan", parents=[common],
                       help="re-plan ironing from an existing report")
    p.add_argument("report", help="detection report JSON")
    p.add_argument("--height", help="height map for waypoint z values")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--out", help="write the updated report here instead of stdout")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("overlay", parents=[common],
                       help="render an SVG overlay from a report")
    p.add_argument("report", help="detection report JSON")
    p.add_argument("height", help="height map (FGRID)")
    p.add_argument("out", help="output SVG path")
    p.set_defaults(fn=cmd_overlay)
    return ap


@contextlib.contextmanager
def _logging_to_stderr(level: str | None):
    """With a level, the `ironpath` loggers write records of that level and
    above to stderr for the block; without one, Python's default stands:
    warnings and above, message only."""
    if level is None:
        yield
        return
    log = logging.getLogger("ironpath")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = log.level
    log.setLevel(level.upper())
    log.addHandler(handler)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)


def main(argv=None) -> int:
    """Run one command: exit 0 on success, 1 when a stage fails (named on
    stderr), 2 on a usage or config error."""
    args = build_parser().parse_args(argv)
    with _logging_to_stderr(args.log_level):
        try:
            args.fn(args)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        except StageError as e:
            print(e, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
