"""The benchmark's use of the library: perfbench/ writes scenes with the
synthetic renderer, wraps the public calls of `detect` and `train` in spans
that count their results, and saves the kept stage outputs; its checks then
reload the model, rebuild the training set and read the scene's labels.  A
change to what those calls take or return breaks the benchmark, so this runs
its path and makes its checks' reads on one small corpus.  perfbench/ is only
imported, never changed."""

import os
import sys

import numpy as np

from ironpath import classify, cli, gridio
from ironpath.cli import CAPTURE_FILES

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import oracle  # noqa: E402
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


    # the reads of run.check_ops: the trained model beats the zero model on
    # the SVM objective of the rebuilt training set
    trained = classify.load_model(model)
    ts = cli.build_corpus_training_set(str(train_dir), cli.PipelineConfig())
    X = np.vstack([ts.positives, ts.negatives])
    y = np.concatenate([np.ones(len(ts.positives)), -np.ones(len(ts.negatives))])
    zero = oracle.svm_objective(np.zeros_like(trained.weights), 0.0, X, y,
                                trained.hyper.reg_lambda)
    assert oracle.svm_objective(trained.weights, trained.bias, X, y,
                                trained.hyper.reg_lambda) < zero
    # the reads of run.kept_checks: the scene's labels against the kept masks
    labels = np.asarray(gridio.read_labels(os.path.join(scene, "labels.pgm")).data)
    wrinkle = labels == gridio.LABEL_WRINKLE
    assert oracle.f1(oracle.mask_counts(masks["wrinkle"], wrinkle)) > 0
    assert oracle.iou(oracle.mask_counts(masks["bump"], labels == gridio.LABEL_BUMP,
                                         ignore=wrinkle)) >= 0
