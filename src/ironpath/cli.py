"""Command-line pipeline: synth, train, detect, plan, overlay.

The JSON report (UTF-8, sorted keys) is the single machine interface; the
SVG overlay is derived from it, and `plan` and `overlay` read it through
one checked reader.  For fixed inputs, config and seed the report
is byte-identical across reruns: every stage is deterministic, the height
scan and the score stage's bands share one pool of IRONPATH_THREADS threads
and give the same bits on any number of them, and timing diagnostics go to
stderr unless --timing explicitly adds them to the report.  `train` runs its
per-scene work (building the training set and scoring the held-out scenes)
on one pool of the same size, and writes the same model and held-out line
for every size; its stage timings go to stderr only.  The library stages
start no threads: each command opens one pool and passes its map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import classify, curvature, discont, fusion, gridio, mixture, overlay, planner, synth

SCHEMA_VERSION = 1
# the files of a scene directory, which synth writes and train reads
HEIGHT_FILE, LABELS_FILE = "height.fgrid", "labels.pgm"
CAPTURE_FILES = ("light1.pgm", "light2.pgm", "ref1.pgm", "ref2.pgm")
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


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

    Each value's field declares its config-file key: the field's name, or
    its `key` metadata.  CONFIG_KEYS is derived from these fields; each
    value's type, default and range come from the class that holds it."""

    seed: int = 0
    score_threshold: float = 0.5
    negatives_per_positive: int = 3
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
                             ("negatives_per_positive", 1, math.inf)):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must be in [{lo}, {hi}], got {getattr(self, name)}")
        for name in ("home_x_m", "home_y_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


# stage section of PipelineConfig -> its parameter class, each field a config key
SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)
            if f.default_factory is not MISSING}

# config-file key -> (section, Field); section None is PipelineConfig itself.  A
# key is its field's name, or the field's `key` metadata where the two differ.
CONFIG_KEYS = {f.metadata.get("key", f.name): (section, f)
               for section, cls in ((None, PipelineConfig), *SECTIONS.items())
               for f in fields(cls) if f.name not in SECTIONS}


def config_values(cfg: PipelineConfig) -> dict:
    """Every config key with its value in `cfg`: the report's `config` block."""
    return {key: getattr(cfg if section is None else getattr(cfg, section), f.name)
            for key, (section, f) in CONFIG_KEYS.items()}


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
        section, f = CONFIG_KEYS[key]
        try:
            if f.type == "int":
                value = int(sval)
            elif f.type == "float":
                value = float(sval)
                if math.isnan(value):      # inf stays: ranges with no upper bound take it
                    raise ValueError("not a number")
            else:
                value = sval
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from e
        given[section][f.name] = value

    def build(section, cls, **stages):
        try:
            return cls(**given[section], **stages)
        except ValueError as e:     # name the keys that set the failing object
            keys = ", ".join(k for k, (s, f) in CONFIG_KEYS.items()
                             if s == section and f.name in given[section])
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


def _message(e: Exception) -> str:
    return f"missing key {e}" if isinstance(e, KeyError) else str(e)


@contextlib.contextmanager
def _stage(name: str, path=None, timings: dict | None = None):
    """Errors of the block fail as stage `name`.  With `path`, the file the
    block reads or writes, the message starts with it.  With `timings`, the
    block's wall time in seconds is stored there under `name`."""
    t0 = time.perf_counter()
    try:
        yield
    except _STAGE_ERRORS as e:
        what = _message(e)
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
        gridio.write_atomic(out, text.encode("utf-8"))


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

    The two surface scans meet only at fusion, so they share one pool of
    `threads` worker threads.  The height scan (curvature, mixture) is its
    first task; the calling thread normalizes the images meanwhile and then
    queues the score stage's bands behind it.  On one thread the worker runs
    the height scan and then the bands; on more, the height scan runs beside
    the first bands.  The report does not depend on the number of threads.
    When several stages fail, the first in pipeline order is raised, and
    `timings` holds the stages in pipeline order."""
    scan_times, own_times = {}, {}     # the pool task's stages and the calling thread's

    def stage(name, times, fn):
        with _stage(name, timings=times):
            return fn()

    def height_scan():
        bumps = stage("curvature", scan_times, lambda: curvature.detect_bumps(height, cfg.bump))
        return bumps, stage("mixture", scan_times, lambda: mixture.build_mixture(bumps))

    for img in (i1, i2, ref1, ref2):
        if img.shape != height.data.shape:
            raise StageError("inputs", ValueError(
                f"image {img.shape} does not match height {height.data.shape}"))

    with ThreadPoolExecutor(threads) as pool:
        scan = pool.submit(height_scan)
        try:
            nimg = stage("normalize", own_times,
                         lambda: discont.normalize(i1, i2, ref1, ref2))
            mask, scores = stage("score", own_times, lambda: discont.score_map(
                nimg, model, cfg.score_threshold, pool.map))
        except StageError:
            scan.result()       # a failed height scan comes first
            raise
        bumps, mix = scan.result()
    segments = stage("segments", own_times, lambda: discont.extract_segments(
        mask, scores, cfg.hough, height.transform))
    fused = stage("fusion", own_times, lambda: fusion.fuse(segments, mix, cfg.p_min))
    plan, waypoints = stage("plan", own_times, lambda: planner.plan_ironing(
        fused, cfg.iron, (cfg.home_x_m, cfg.home_y_m), surface=height))
    if timings is not None:
        timings.update(scan_times)
        timings.update(own_times)

    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_values(cfg),
        "grid": {"width": height.data.shape[1], "height": height.data.shape[0],
                 "cell_size_m": height.cell_size, "origin_m": list(height.origin)},
        "bumps": [{
            "id": b.id, "center_m": list(b.center), "volume_m3": b.volume,
            "d1_m": b.d1, "d2_m": b.d2, "orientation_rad": b.orientation,
            "pixel_count": int(len(b.pixels)),
        } for b in bumps],
        "mixture": [{
            "mean_m": c.mean.tolist(), "cov_m2": c.cov.tolist(),
        } for c in mix],
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
    return _read_input(gridio.read_labels, os.path.join(scene_dir, LABELS_FILE))


def _scene_image(scene_dir: str, labels: gridio.LabelMask) -> discont.NormalizedImage:
    """The normalized image of a scene directory's captures and references
    (its height map is not read); the scene's labels must match its size."""
    with _stage("inputs", scene_dir):       # captures of different sizes
        nimg = discont.normalize(*[_read_input(gridio.read_gray, os.path.join(scene_dir, name))
                                   for name in CAPTURE_FILES])
    _match_labels(scene_dir, labels, nimg.combined.shape)
    return nimg


def _scene_valid(scene_dir: str, labels: gridio.LabelMask) -> np.ndarray:
    """Where a scene directory's two references are valid
    (discont.reference_valid); the scene's labels must match them in size."""
    refs = [_read_input(gridio.read_gray, os.path.join(scene_dir, name))
            for name in CAPTURE_FILES[2:]]
    with _stage("inputs", scene_dir):       # references of different sizes
        valid = discont.reference_valid(*refs)
    _match_labels(scene_dir, labels, valid.shape)
    return valid


def _match_labels(scene_dir: str, labels: gridio.LabelMask, shape: tuple) -> None:
    if labels.data.shape != shape:
        raise StageError("inputs", ValueError(
            f"{os.path.join(scene_dir, LABELS_FILE)}: labels {labels.data.shape} "
            f"do not match images {shape}"))


def read_scene(scene_dir: str) -> tuple[gridio.LabelMask, discont.NormalizedImage]:
    """A scene directory's labels and normalized image: the labels are read
    first, then the captures, and the two must match in size."""
    labels = _scene_labels(scene_dir)
    return labels, _scene_image(scene_dir, labels)


def _scene_dirs(corpus_dir: str) -> list[str]:
    out = []
    for name in sorted(os.listdir(corpus_dir)):
        d = os.path.join(corpus_dir, name)
        if os.path.isdir(d) and os.path.exists(os.path.join(d, HEIGHT_FILE)):
            out.append(d)
    if not out:
        raise ValueError(f"no scene directories under {corpus_dir}")
    return out


def build_corpus_training_set(corpus_dir: str, cfg: PipelineConfig,
                              map_fn=map) -> classify.TrainingSet:
    """The training set of the scene directories under corpus_dir, one scene
    per task run by map_fn (classify.build_training_set).

    Every scene's labels and references are read first, and only the labels
    and the references' valid mask (_scene_valid) are kept, so that no pixel
    with an invalid reference is drawn; each task then reads and normalizes
    its own captures, so only the running tasks' images are held.  Whatever
    threads map_fn runs the tasks on, a bad file is reported as the first one
    in directory order: the scenes in sorted order, and in a scene the
    labels, then the captures.  So when a labels file is bad, the captures of
    the scenes before it are read first, and when a reference is bad, those
    of its own scene too."""
    dirs = _scene_dirs(corpus_dir)
    labels, valid = [], []
    for d in dirs:
        try:
            labels.append(_scene_labels(d))
            valid.append(_scene_valid(d, labels[-1]))
        except StageError:
            for earlier, lab in zip(dirs, labels):
                _scene_image(earlier, lab)
            raise
    scenes = [(lambda d=d, lab=lab: _scene_image(d, lab).combined, lab, cfg.seed + 1000 * idx, ok)
              for idx, (d, lab, ok) in enumerate(zip(dirs, labels, valid))]
    return classify.build_training_set(scenes, cfg.negatives_per_positive, map_fn)


def evaluate_scenes(scenes: list[tuple[gridio.LabelMask, discont.NormalizedImage]],
                    model: classify.SvmModel, cfg: PipelineConfig,
                    map_fn=map) -> tuple[float, float]:
    """Pooled held-out accuracy (wrinkle vs sampled background pixels at the
    training ratio) and wrinkle-pixel recall at the configured threshold, over
    (labels, normalized image) scenes as read_scene returns them.

    Each scene is one task run by map_fn that returns integer counts; the
    counts are summed in scene order."""
    thr = cfg.score_threshold

    def counts(scene):
        idx, (labels, nimg) = scene
        uu, vv, n_pos = classify.sample_pixels(labels, cfg.negatives_per_positive,
                                               cfg.seed + 7000 + idx, valid=nimg.valid)
        scores = classify.score_margins(model, classify.descriptors_at(nimg.combined, uu, vv))
        hits = int(np.sum(scores[:n_pos] >= thr))
        return hits + int(np.sum(scores[n_pos:] < thr)), len(scores), hits, n_pos

    correct = total = hit = positives = 0
    for c, t, h, p in map_fn(counts, enumerate(scenes)):
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
    with _stage("synth"):           # every raster before the first file is written
        height = synth.generate_height(spec)
        images = (*(synth.render_illumination(height, spec, k) for k in (1, 2)),
                  *(synth.render_reference(spec, k) for k in (1, 2)))
        outputs = {HEIGHT_FILE: (gridio.write_grid, height),
                   **{name: (gridio.write_gray, im) for name, im in zip(CAPTURE_FILES, images)},
                   LABELS_FILE: (gridio.write_labels, synth.ground_truth(spec))}
    with _stage("outputs", args.outdir):
        os.makedirs(args.outdir, exist_ok=True)
        for name, (write, raster) in outputs.items():
            write(raster, os.path.join(args.outdir, name))
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
    with ThreadPoolExecutor(threads) as pool:
        with _stage("inputs", args.corpus, timings):   # every input before training
            ts = build_corpus_training_set(args.corpus, cfg, pool.map)
            # on this thread: no slower than on the pool, and the arrays kept share
            # the solver's heap, not a pool thread's (0.7 MiB less peak RSS)
            held_out = list(map(read_scene, eval_dirs))
        with _stage("train", timings=timings):
            model = classify.train(ts, cfg.train)
        trained = (f"trained on {len(ts.positives)} positive / {len(ts.negatives)} negative "
                   f"pixels; model written to {args.model_out}")
        del ts                  # evaluation needs the model only
        if held_out:            # before the model is written: a failure leaves none
            with _stage("evaluate", timings=timings):
                acc, rec = evaluate_scenes(held_out, model, cfg, pool.map)
    with _stage("outputs", args.model_out):
        classify.save_model(model, args.model_out)
    print(trained)
    if held_out:
        print(f"held-out accuracy {acc:.4f} recall {rec:.4f}")
    _print_timings(timings)


def _thread_count() -> int:
    """Threads of detect's pool (the height scan and the score stage's bands)
    and of train's pool: IRONPATH_THREADS, or when it is unset,
    the number of CPUs this process may run on (all of the machine's CPUs
    where the OS has no affinity call, as on macOS and Windows)."""
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


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _finite(x) -> float:
    """x as a float when it is a finite JSON number, an int or a float but not
    a bool; ValueError otherwise, and as a non-finite number for a string
    that spells one (a detect report writes infinities as "inf" and "-inf")."""
    if isinstance(x, str) and not math.isfinite(float(x)):
        raise ValueError(f"non-finite number {x!r}")
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise ValueError(f"not a finite number: {x!r}")
    return float(x)


def _pair(x, item=_finite) -> tuple:
    """A JSON pair as two values checked by `item` (item=_pair: two pairs)."""
    a, b = x
    return item(a), item(b)


def _wrinkle_id(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"wrinkle id {x!r} is not an integer")
    return x


def _wrinkle_accepted(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError(f"wrinkle accepted {x!r} is not a bool")
    return x


def _action_kind(x) -> str:
    if x not in (planner.STATIC, planner.SLIDING):
        raise ValueError(f"action kind {x!r} is not static or sliding")
    return x


def _pairs(x) -> tuple:
    return _pair(x, _pair)


# the check of each report field that _read_report reads, per section, in
# the order the checks run
_MIXTURE_FIELDS = {"mean_m": _pair, "cov_m2": _pairs}
_WRINKLE_FIELDS = {"id": _wrinkle_id, "accepted": _wrinkle_accepted, "endpoints_m": _pairs,
                   "length_m": _finite, "direction_rad": _finite, "q": _finite, "r": _finite,
                   "p": _finite}
_ACTION_FIELDS = {"kind": _action_kind, "start_m": _pair, "end_m": _pair}


# what each type json.load gives is called in an error
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a bool", type(None): "null"}


def _section(obj: dict, where: str, kind: type):
    """The report section at the path `where`, whose last key is obj's: an
    empty `kind` (list or dict) when it is missing; ValueError naming `where`
    when it is not a `kind`."""
    value = obj.get(where.rpartition(".")[2], kind())
    if not isinstance(value, kind):
        raise ValueError(f"{where}: expected {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}")
    return value


def _checked(obj: dict, where: str, checks: dict) -> list[tuple]:
    """Each entry of the list section `where` of obj as the tuple of its
    fields, each read by its check in the order of `checks`; an error starts
    with the field's path, such as `wrinkles[2].q: `."""
    out = []
    for i, entry in enumerate(_section(obj, where, list)):
        row = []
        for key, check in checks.items():
            try:
                row.append(check(entry[key]))
            except (KeyError, TypeError, ValueError, ArithmeticError) as e:
                raise ValueError(f"{where}[{i}].{key}: {_message(e)}") from e
        out.append(tuple(row))
    return out


def _read_report(path) -> tuple[dict, list, list, list]:
    """A detection report, and its mixture as (mean, cov) pairs, its wrinkles
    as fusion.FusedWrinkle as the report states them and its plan's actions
    as (kind, start, end); a missing section reads as empty.  ValueError when
    it is not a JSON object, holds a bare NaN or Infinity (a detect report
    writes infinities as strings), a section of the wrong type (`mixture`,
    `wrinkles` and `plan.actions` are lists, `plan` an object) or a field of
    the wrong type: numbers are _finite, a wrinkle's id an int and its
    `accepted` a bool, and an action's kind static or sliding."""
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f, parse_constant=_reject_constant)
    if not isinstance(report, dict):
        raise ValueError("not a JSON object")
    mixture = _checked(report, "mixture", _MIXTURE_FIELDS)
    wrinkles = [fusion.FusedWrinkle(discont.Discontinuity(
        id=id_, endpoints=ends, pixels=np.zeros((0, 2), np.int64), scores=np.zeros(0),
        length=length, direction=direction), q, r, p, accepted)
        for id_, accepted, ends, length, direction, q, r, p
        in _checked(report, "wrinkles", _WRINKLE_FIELDS)]
    actions = _checked(_section(report, "plan", dict), "plan.actions", _ACTION_FIELDS)
    return report, mixture, wrinkles, actions


def cmd_plan(args) -> None:
    cfg = parse_config(args.config) if args.config else PipelineConfig()
    with _stage("inputs", args.report):
        report, _, wrinkles, _ = _read_report(args.report)
        fused = [fusion.fuse_one(w.discontinuity, w.q, w.r, cfg.p_min) for w in wrinkles]
    surface = _read_input(gridio.read_grid, args.height) if args.height else None
    with _stage("plan"):
        plan, waypoints = planner.plan_ironing(fused, cfg.iron, (cfg.home_x_m, cfg.home_y_m),
                                               surface=surface)
    report["plan"] = _plan_dict(plan, waypoints)
    report["config"] = config_values(cfg)
    for wk, f in zip(report.get("wrinkles", []), fused):
        wk["p"], wk["accepted"] = f.p, f.accepted
    _emit(dump_report(report), args.out)


def cmd_overlay(args) -> None:
    height = _read_input(gridio.read_grid, args.height)
    with _stage("inputs", args.report):
        _, mix, wrinkles, actions = _read_report(args.report)
        svg = overlay.render_overlay(mix, wrinkles, actions, height)
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
