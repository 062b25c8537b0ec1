"""In-memory spans around the public calls that `cmd_detect` and `cmd_train` make.

The CLI looks its stages up as module attributes (`curvature.detect_bumps`,
`gridio.read_grid`, ...), so a span is recorded by swapping the attribute for
a wrapper while an operation runs, and restoring it afterwards.  Spans stay
in memory as (name, start, end, parent, counts) and are written out by the
caller when the run ends.  Nothing inside the program is changed.
"""

from __future__ import annotations

import contextlib
import resource
import time

import numpy as np

from ironpath import classify, cli, curvature, discont, fusion, gridio, mixture, planner


def _score_counts(out):
    mask, _ = out
    return {"discont.mask_px": int(np.count_nonzero(mask.data == gridio.LABEL_WRINKLE))}


def _plan_counts(out):
    plan, waypoints = out
    return {"planner.actions": len(plan.actions),
            "planner.waypoints": sum(len(w) for w in waypoints or [])}


# (module, attribute, span name, counts taken from the result, by metric name)
DETECT_CALLS = (
    (gridio, "read_grid", "gridio.read", None),
    (gridio, "read_gray", "gridio.read", None),
    (classify, "load_model", "classify.load_model", None),
    (curvature, "detect_bumps", "curvature.detect_bumps", lambda b: {"curvature.bumps": len(b)}),
    (mixture, "build_mixture", "mixture.build_mixture", None),
    (discont, "normalize", "discont.normalize", None),
    (discont, "score_map", "discont.score_map", _score_counts),
    (discont, "extract_segments", "discont.extract_segments",
     lambda s: {"discont.segments": len(s)}),
    (fusion, "fuse", "fusion.fuse", lambda f: {"fusion.accepted": sum(w.accepted for w in f)}),
    (planner, "plan_ironing", "planner.plan_ironing", _plan_counts),
    (cli, "dump_report", "cli.dump_report", lambda text: {"cli.report_bytes": len(text.encode())}),
    (gridio, "write_atomic", "gridio.write", None),
)
TRAIN_CALLS = (
    (cli, "build_corpus_training_set", "cli.build_corpus_training_set",
     lambda ts: {"classify.examples": len(ts.positives) + len(ts.negatives)}),
    (classify, "train", "classify.train", None),
    (gridio, "write_atomic", "gridio.write", None),
    (cli, "evaluate_scenes", "cli.evaluate_scenes", None),
)
# score_map allocates most of detect's memory; fault and kernel time show it
RUSAGE_SPANS = {"discont.score_map"}


class Tracer:
    """Records spans; with `keep`, also keeps each call's result by span name."""

    def __init__(self, keep: bool = False):
        self.spans: list[dict] = []
        self.results: dict[str, list] = {}
        self._keep = keep
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            usage = name in RUSAGE_SPANS
            with self.span(name) as s:
                r0 = resource.getrusage(resource.RUSAGE_SELF) if usage else None
                out = fn(*args, **kwargs)
                if usage:
                    r1 = resource.getrusage(resource.RUSAGE_SELF)
                    s["counts"][f"{name}.minor_faults"] = r1.ru_minflt - r0.ru_minflt
                    s["counts"][f"{name}.sys_s"] = r1.ru_stime - r0.ru_stime
            if counts is not None:
                s["counts"].update(counts(out))
            if self._keep:
                self.results.setdefault(name, []).append(out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self, calls):
        """Wrap the given module attributes for the duration of the block."""
        saved = []
        try:
            for mod, attr, name, counts in calls:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, counts))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def self_times(spans: list[dict], root: int) -> dict[str, float]:
    """Per span name, summed self time (duration minus covered child time)
    over the subtree under spans[root], the root included."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    out: dict[str, float] = {}
    todo = [root]
    while todo:
        i = todo.pop()
        s = spans[i]
        kids = children.get(i, [])
        covered = sum(spans[k]["end"] - spans[k]["start"] for k in kids)
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - covered)
        todo.extend(kids)
    return out


def subtree_counts(spans: list[dict], root: int) -> dict[str, float]:
    """Each count summed over the subtree under spans[root]."""
    out: dict[str, float] = {}
    inside = {root}
    for i in range(root, len(spans)):
        s = spans[i]
        if i != root and s["parent"] not in inside:
            continue
        inside.add(i)
        for key, v in s["counts"].items():
            out[key] = out.get(key, 0) + v
    return out
