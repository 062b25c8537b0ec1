"""The benchmark's use of the library: perfbench/ writes scenes with the
synthetic renderer, wraps the public calls of `detect` and `train` in spans
that count their results, and saves the kept stage outputs.  A change to
what those calls take or return breaks the benchmark, so this runs its path
on one small corpus.  perfbench/ is only imported, never changed."""

import os
import sys

import numpy as np

from ironpath.cli import CAPTURE_FILES

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import scenes  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def test_spans_counts_and_kept_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("IRONPATH_THREADS", "2")
    train_dir, held_dir = tmp_path / "corpus" / "train", tmp_path / "corpus" / "held"
    for i in range(2):
        scenes.write_scene(scenes.corpus_scene(1000 + i, i, strat_idx=i),
                           str(train_dir / f"scene{i}"))
    scene = scenes.write_scene(scenes.corpus_scene(2000, 50), str(held_dir / "scene0"))
    model, report = str(tmp_path / "model.svmw"), str(tmp_path / "report.json")
    tracer = spans.Tracer(keep=True)
    ops = [{"kind": "train", "argv": ["train", str(train_dir), model, "--eval-dir", str(held_dir)],
            "key": "corpus", "out": model},
           {"kind": "detect",
            "argv": ["detect", *[os.path.join(scene, name)
                                 for name in ("height.fgrid", *CAPTURE_FILES)],
                     "--model", model, "--out", report],
            "key": "scene0", "out": report}]
    counts = {}
    for op in ops:
        record = worker.run_op(op, tracer)
        assert record["code"] == 0, record["stderr"]
        counts[op["kind"]] = spans.subtree_counts(tracer.spans, record["root"])

    assert counts["train"]["classify.examples"] > 0
    assert counts["detect"]["curvature.bumps"] >= 1
    assert counts["detect"]["discont.mask_px"] > 0
    kept = tmp_path / "kept"
    worker.save_kept(tracer, str(kept))
    masks = np.load(kept / "masks.npz")
    assert masks["wrinkle"].shape == masks["bump"].shape == (scenes.CORPUS_H, scenes.CORPUS_W)
    assert masks["wrinkle"].sum() == counts["detect"]["discont.mask_px"]
    assert (kept / "stages.json").exists()
