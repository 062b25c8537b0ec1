import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CELL, TRAIN_SEEDS, corpus_scene
import ironpath
from ironpath import classify, gridio, synth
from ironpath.cli import (CONFIG_KEYS, ConfigError, PipelineConfig, build_corpus_training_set,
                          build_parser, dump_report, main, parse_config, run_detection)

SCENE_TEXT = """\
# small test scene
width 120
height 90
cell_size 0.002
seed 11
albedo 0.8
bump 0.12 0.09 0.030 0.015 0.4 0.018
wrinkle 0.003 0.0025 0.03 0.03 0.17 0.12
"""


def write_scene_dir(tmp_path, name, spec):
    """Render a SceneSpec to the six files the CLI expects."""
    d = tmp_path / name
    d.mkdir(parents=True, exist_ok=True)
    height = synth.generate_height(spec)
    gridio.write_grid(height, d / "height.fgrid")
    gridio.write_gray(synth.render_illumination(height, spec, 1), d / "light1.pgm")
    gridio.write_gray(synth.render_illumination(height, spec, 2), d / "light2.pgm")
    gridio.write_gray(synth.render_reference(spec, 1), d / "ref1.pgm")
    gridio.write_gray(synth.render_reference(spec, 2), d / "ref2.pgm")
    gridio.write_labels(synth.ground_truth(spec), d / "labels.pgm")
    return d


def write_corpus(root, seeds, width=140, height=100):
    """Scene directories scene0, scene1, ... of corpus scenes, ridge
    directions stratified over the corpus."""
    for i, seed in enumerate(seeds):
        write_scene_dir(root, f"scene{i}", corpus_scene(seed, strat_idx=i, strat_total=len(seeds),
                                                        width=width, height=height))
    return root


# IRONPATH_THREADS values that are a config error
BAD_THREAD_COUNTS = ["abc", "0", "-1", "", "2.5"]

# tracemalloc peak of build_corpus_training_set on 2 threads, over its
# training matrix, on the 10-scene 240x180 corpus of TRAIN_SEEDS.  Measured:
# 10.2-11.1 MiB on 2 threads (6.3 on 1, 13.8 on 3); 19.9-20.5 MiB on 1 thread
# when every scene's images were loaded before any descriptor was built and
# each scene's descriptors were copied into the matrix.
TRAINING_SET_EXTRA_MIB = 15.0


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, trained_model):
    p = tmp_path_factory.mktemp("model") / "model.svmw"
    classify.save_model(trained_model, p)
    return p


class TestConfig:
    def test_defaults_roundtrip(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        assert parse_config(p) == PipelineConfig()

    def test_values_parsed(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("p_min 0.4\nsvm_lambda 3e-4\npolarity down\ngap_px inf\n")
        cfg = parse_config(p)
        assert cfg.p_min == 0.4
        assert cfg.train.reg_lambda == 3e-4
        assert cfg.bump.polarity == "down"
        assert math.isinf(cfg.hough.gap_px)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("warp_speed 9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("min_pixels banana\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    @pytest.mark.parametrize("line", ["p_min nan", "min_len_px NaN", "gap_px -nan",
                                      "hough_min_votes nan"])
    def test_nan_rejected(self, tmp_path, line):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError, match="not a number"):
            parse_config(p)

    @pytest.mark.parametrize("line", [
        "seed 0", "seed 18446744073709551615", "score_threshold 0", "p_min 1",
        "clearance_samples 2", "clearance_samples 10000", "close_iterations 0",
        "close_iterations 100", "hough_rho_px 0.25", "hough_theta_deg 0.25",
        "hough_theta_deg 180", "min_pixels 0", "gap_px inf", "nms_rho_px 0"])
    def test_range_bounds_accepted(self, tmp_path, line):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        parse_config(p)

    def test_error_names_the_key_set(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("hough_rho_px 0\n")
        with pytest.raises(ConfigError, match="hough_rho_px: rho_res_px must be"):
            parse_config(p)


# integers, floats, words the parser knows and any other text without spaces
TOKENS = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "false", "up", "down", "inf", "-inf", "nan", "-0",
                     "1e-300", "1e300", "0.25", "180"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
            min_size=1, max_size=8))


@settings(max_examples=500, deadline=None)
@given(key=st.sampled_from(sorted(CONFIG_KEYS)), token=TOKENS)
def test_any_key_and_token_give_a_valid_config_or_a_config_error(tmp_path_factory, key, token):
    p = tmp_path_factory.getbasetemp() / "property.cfg"
    p.write_text(f"{key} {token}\n", encoding="utf-8")
    try:
        cfg = parse_config(p)
    except ConfigError:
        return
    for obj in (cfg, cfg.bump, cfg.hough, cfg.train, cfg.iron):
        dataclasses.replace(obj)        # runs the range checks again


def test_readme_config_block_lists_every_key_with_its_default(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("**Config file**", 1)[1].split("```\n", 2)[1]
    keys = [line.split()[0] for line in block.splitlines()
            if line.split("#", 1)[0].strip()]
    assert sorted(keys) == sorted(CONFIG_KEYS)
    p = tmp_path / "readme.cfg"
    p.write_text(block)
    assert parse_config(p) == PipelineConfig()


@pytest.fixture(scope="module")
def flat_dir(tmp_path_factory):
    return write_scene_dir(tmp_path_factory.mktemp("flat"), "flat", synth.SceneSpec(96, 72, CELL))


# values that failed inside a stage (exit 1), or that ran and meant nothing
OUT_OF_RANGE = [
    "hough_rho_px 0", "hough_rho_px -1", "hough_rho_px 0.1", "hough_rho_px inf",
    "hough_theta_deg 0", "hough_theta_deg 1e-9", "hough_theta_deg 181",
    "clearance_samples 0", "clearance_samples -3", "clearance_samples 1",
    "clearance_samples 10001", "iron_long_axis_m 0.05", "press_depth_m 0.1",
    "lift_height_m 0", "travel_speed_m_per_s 0", "iron_short_axis_m inf",
    "foam_stiffness_n_per_m -1", "seed -1", "seed 18446744073709551616",
    "min_pixels -1", "close_iterations -1", "close_iterations 101", "gap_px -1",
    "gating_px -1", "min_len_px -1", "hough_min_votes -1", "min_volume_m3 -1",
    "min_minor_axis_m -1", "nms_rho_px -1", "nms_theta_deg -1", "eps_umbilic_rel -1",
    "eps_umbilic_rel inf", "p_min 1.5", "p_min -0.1", "score_threshold 2",
    "score_threshold -1", "home_x_m inf", "home_y_m -inf"]


@pytest.mark.parametrize("line", OUT_OF_RANGE)
def test_out_of_range_value_exit_2(tmp_path, capsys, flat_dir, model_file, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "r.json"
    assert main(detect_args(flat_dir, model_file,
                            ["--config", str(cfg), "--out", str(out)])) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and line.split()[0] in err
    assert "Traceback" not in err and not out.exists()


class TestErrorContract:
    """No input ends in a traceback: 2 for config and usage errors, 1 naming
    the stage, `inputs` with the path for a missing or malformed data input."""

    def _report(self, tmp_path):
        rpt = tmp_path / "r.json"
        rpt.write_text(dump_report({"bumps": [], "mixture": [], "wrinkles": [WRINKLE],
                                    "plan": {"actions": []}}))
        return rpt

    @pytest.mark.parametrize("command", ["overlay", "plan"])
    @pytest.mark.parametrize("field", ["plan", "mixture", "wrinkles"])
    @pytest.mark.parametrize("value", [None, 0, "x", [], {}],
                             ids=["null", "zero", "string", "list", "object"])
    def test_report_section_of_any_json_type_exit_0_or_1(self, tmp_path, capsys, command,
                                                         field, value):
        rpt = tmp_path / "r.json"
        rpt.write_text(dump_report({"bumps": [], "mixture": [MIXTURE], "wrinkles": [WRINKLE],
                                    "plan": {"actions": []}, field: value}))
        height = tmp_path / "h.fgrid"
        gridio.write_grid(gridio.FloatGrid(64, 48, CELL, data=np.zeros(64 * 48)), height)
        if command == "overlay":
            argv = ["overlay", str(rpt), str(height), str(tmp_path / "o.svg")]
        else:
            argv = ["plan", str(rpt), "--height", str(height), "--out", str(tmp_path / "o.json")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1) and "Traceback" not in err
        if code == 1:
            assert err.startswith(f"stage inputs failed: {rpt}: ")

    def test_config_not_utf8_exit_2(self, tmp_path, capsys, flat_dir, model_file):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("p_min 0.4  # \u00e9t\u00e9\n".encode("latin-1"))
        assert main(detect_args(flat_dir, model_file, ["--config", str(cfg)])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read ") and "Traceback" not in err

    def test_config_is_directory_exit_2(self, tmp_path, capsys, flat_dir, model_file):
        assert main(detect_args(flat_dir, model_file, ["--config", str(tmp_path)])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read ") and "Traceback" not in err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["plan", str(self._report(tmp_path)),
                     "--config", str(tmp_path / "none.cfg")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read ")

    @pytest.mark.parametrize("line", ["svm_epochs 20", "svm_seed 7", "svm_calibrate false",
                                      "max_len_px inf"])
    def test_removed_key_exit_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(line + "\n")
        assert main(["plan", str(self._report(tmp_path)), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"unknown key {line.split()[0]!r}" in err

    def test_six_token_model_header_exit_1(self, tmp_path, capsys, flat_dir):
        # the earlier format: lambda, a step cap, a seed and a calibration
        # flag, then weights, bias, sigmoid slope and offset
        model = tmp_path / "old.svmw"
        model.write_bytes(b"SVMW 128 0.0001 20 7 0\n" + np.zeros(131).astype("<f8").tobytes())
        out = tmp_path / "r.json"
        assert main(detect_args(flat_dir, model, ["--out", str(out)])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage inputs failed: {model}: bad SVMW header")
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"garbage\n", b"FGRID 3 3 0.002\n" + b"\x00" * 5])
    def test_plan_malformed_height_exit_1(self, tmp_path, capsys, content):
        height = tmp_path / "h.fgrid"
        height.write_bytes(content)
        out = tmp_path / "o.json"
        assert main(["plan", str(self._report(tmp_path)), "--height", str(height),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage inputs failed: {height}: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("length_m", "long"), ("q", [0.5]),
                                              ("id", "first"), ("endpoints_m", [[0, 0]])])
    def test_plan_report_field_of_wrong_type_exit_1(self, tmp_path, capsys, field, value):
        rpt = tmp_path / "r.json"
        rpt.write_text(dump_report({"wrinkles": [WRINKLE, {**WRINKLE, "id": 1, field: value}]}))
        assert main(["plan", str(rpt)]) == 1
        assert capsys.readouterr().err.startswith(f"stage inputs failed: {rpt}: ")

    def test_plan_missing_height_exit_1(self, tmp_path, capsys):
        height = tmp_path / "nope.fgrid"
        assert main(["plan", str(self._report(tmp_path)), "--height", str(height)]) == 1
        assert capsys.readouterr().err.startswith(f"stage inputs failed: {height}: ")

    def test_overlay_missing_height_exit_1(self, tmp_path, capsys):
        height = tmp_path / "nope.fgrid"
        assert main(["overlay", str(self._report(tmp_path)), str(height),
                     str(tmp_path / "o.svg")]) == 1
        assert capsys.readouterr().err.startswith(f"stage inputs failed: {height}: ")

    def test_missing_corpus_exit_1(self, tmp_path, capsys):
        corpus = tmp_path / "nope"
        assert main(["train", str(corpus), str(tmp_path / "m.svmw")]) == 1
        assert capsys.readouterr().err.startswith(f"stage inputs failed: {corpus}: ")

    def test_malformed_corpus_scene_names_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        d = write_scene_dir(corpus, "scene0", corpus_scene(560, width=140, height=100))
        (d / "labels.pgm").write_bytes(b"P5\n3 3\n7\n")
        assert main(["train", str(corpus), str(tmp_path / "m.svmw")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage inputs failed: {d / 'labels.pgm'}: ")

    def test_model_with_nan_weight_exit_1(self, tmp_path, capsys, flat_dir):
        weights = np.zeros(128)
        weights[5] = np.nan
        model = tmp_path / "nan.svmw"
        classify.save_model(classify.SvmModel(weights, 0.0, classify.TrainHyper()), model)
        assert main(detect_args(flat_dir, model)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage inputs failed: {model}: non-finite value in payload")

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "o.json"
        assert main(["plan", str(self._report(tmp_path)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage outputs failed: {out}: ") and "Traceback" not in err

    def test_scene_file_not_utf8_exit_2(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_bytes(b"width 10 \xff\n")
        assert main(["synth", str(scene), str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: bad scene file")


class TestSynthCommand:
    def test_writes_six_files_deterministically(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_TEXT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", str(scene), str(out1)]) == 0
        assert main(["synth", str(scene), str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(["height.fgrid", "light1.pgm", "light2.pgm",
                                "ref1.pgm", "ref2.pgm", "labels.pgm"])
        for n in names:
            assert (out1 / n).read_bytes() == (out2 / n).read_bytes()

    def test_missing_scene_file_exit_2(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path / "nope.txt"), str(tmp_path / "o")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_scene_file_exit_2(self, tmp_path):
        scene = tmp_path / "bad.txt"
        scene.write_text("width 10\n")
        assert main(["synth", str(scene), str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("lines", [
        "image_noise nan", "height_noise inf", "image_noise -0.1", "cell_size inf",
        "origin_x nan", "origin_y -inf", "albedo nan", "albedo -0.5",
        "bump 0.12 nan 0.030 0.015 0.4 0.018", "bump 0.12 0.09 0.030 0.015 0.4 inf",
        "wrinkle 0.003 0.0025 0.03 0.03 inf 0.12", "wrinkle 0.003 nan 0.03 0.03 0.17 0.12",
        "light nan 0 1 1\nlight 0 0 1 1", "light 0 0 1 inf\nlight 0 0 1 1"])
    def test_non_finite_scene_value_exit_2(self, tmp_path, capsys, lines):
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_TEXT + lines + "\n")
        out = tmp_path / "o"
        assert main(["synth", str(scene), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad scene file") and "Traceback" not in err
        assert not out.exists()


class TestTrainCommand:
    def test_train_and_retrain_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        for i, seed in enumerate((500, 501, 502)):
            write_scene_dir(corpus, f"scene{i}",
                            corpus_scene(seed, strat_idx=i, strat_total=3,
                                         width=140, height=100))
        m1, m2 = tmp_path / "m1.svmw", tmp_path / "m2.svmw"
        assert main(["train", str(corpus), str(m1)]) == 0
        assert main(["train", str(corpus), str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()
        model = classify.load_model(m1)
        assert np.all(np.isfinite(model.weights))

    def test_empty_corpus_fails(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["train", str(empty), str(tmp_path / "m.svmw")]) == 1
        assert "no scene directories" in capsys.readouterr().err

    def test_eval_dir_prints_held_out_metrics(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        holdout = tmp_path / "holdout"
        for i, seed in enumerate((510, 511)):
            write_scene_dir(corpus, f"scene{i}",
                            corpus_scene(seed, strat_idx=i, strat_total=2,
                                         width=140, height=100))
        write_scene_dir(holdout, "scene0", corpus_scene(520, width=140, height=100))
        assert main(["train", str(corpus), str(tmp_path / "m.svmw"),
                     "--eval-dir", str(holdout)]) == 0
        out = capsys.readouterr().out
        assert "held-out accuracy" in out and "recall" in out

    def test_eval_dir_without_scenes_exit_2_before_training(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_scene_dir(corpus, "scene0", corpus_scene(530, width=140, height=100))
        holdout = tmp_path / "holdout"
        holdout.mkdir()
        model = tmp_path / "m.svmw"
        assert main(["train", str(corpus), str(model), "--eval-dir", str(holdout)]) == 2
        err = capsys.readouterr().err
        assert f"no scene directories under {holdout}" in err
        assert not model.exists()

    @pytest.mark.parametrize("line", ["svm_lambda 0", "svm_lambda -1", "svm_lambda inf",
                                      "negatives_per_positive 0", "negatives_per_positive -2"])
    def test_bad_training_value_exit_2(self, tmp_path, capsys, line):
        corpus = tmp_path / "corpus"
        write_scene_dir(corpus, "scene0", corpus_scene(550, width=140, height=100))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        model = tmp_path / "m.svmw"
        assert main(["train", str(corpus), str(model), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not model.exists()

    def test_solver_stopping_short_exit_1(self, tmp_path, capsys):
        # svm_lambda 1e-200 is in range, but its Newton step overflows
        corpus = tmp_path / "corpus"
        write_scene_dir(corpus, "scene0", corpus_scene(550, width=140, height=100))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("svm_lambda 1e-200\n")
        model = tmp_path / "m.svmw"
        assert main(["train", str(corpus), str(model), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage train failed: training failed at Newton step")
        assert "Traceback" not in err
        assert not model.exists()

    def test_memory_error_in_training_exit_1(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        write_scene_dir(corpus, "scene0", corpus_scene(550, width=140, height=100))

        def out_of_memory(*args):
            raise MemoryError("cannot allocate the Hessian")
        monkeypatch.setattr(classify, "train", out_of_memory)
        model = tmp_path / "m.svmw"
        assert main(["train", str(corpus), str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage train failed: cannot allocate the Hessian")
        assert "Traceback" not in err
        assert not model.exists()

    def test_eval_dir_without_wrinkle_pixels_exit_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_scene_dir(corpus, "scene0", corpus_scene(540, width=140, height=100))
        holdout = tmp_path / "holdout"
        write_scene_dir(holdout, "flat", synth.SceneSpec(96, 72, CELL))
        assert main(["train", str(corpus), str(tmp_path / "m.svmw"),
                     "--eval-dir", str(holdout)]) == 1
        assert "stage evaluate failed: held-out scenes contain no wrinkle pixels" \
            in capsys.readouterr().err

    def test_model_and_held_out_line_identical_for_every_thread_count(self, tmp_path, capsys,
                                                                      monkeypatch):
        # three scenes each: up to three tasks run at once in both stages
        corpus = write_corpus(tmp_path / "corpus", (570, 571, 572))
        holdout = write_corpus(tmp_path / "holdout", (580, 581, 582))
        models, lines = [], []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("IRONPATH_THREADS", threads)
            model = tmp_path / f"m{threads}.svmw"
            assert main(["train", str(corpus), str(model), "--eval-dir", str(holdout)]) == 0
            models.append(model.read_bytes())
            lines.append(capsys.readouterr().out.replace(str(model), "MODEL"))
        assert models[0] == models[1] == models[2]
        assert lines[0] == lines[1] == lines[2] and "held-out accuracy" in lines[0]

    def test_stage_timings_on_stderr(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus", (590, 591))
        holdout = write_corpus(tmp_path / "holdout", (592,))
        assert main(["train", str(corpus), str(tmp_path / "m.svmw"),
                     "--eval-dir", str(holdout)]) == 0
        out, err = capsys.readouterr()
        stages = re.findall(r"^stage (\w+): \d+\.\d{3} s$", err, re.MULTILINE)
        assert stages == ["inputs", "train", "evaluate"]
        assert "stage " not in out

    @pytest.mark.parametrize("value", BAD_THREAD_COUNTS)
    def test_bad_thread_count_exit_2(self, tmp_path, monkeypatch, capsys, value):
        # checked before the corpus is read: a missing corpus would be exit 1
        monkeypatch.setenv("IRONPATH_THREADS", value)
        model = tmp_path / "m.svmw"
        assert main(["train", str(tmp_path / "nope"), str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: IRONPATH_THREADS") and "Traceback" not in err
        assert not model.exists()

    @pytest.mark.parametrize("where", ["corpus", "eval-dir"])
    @pytest.mark.parametrize("bad", [("light1.pgm", "labels.pgm"), ("labels.pgm", "light1.pgm"),
                                     ("light1.pgm", "light1.pgm")],
                             ids=["light1-labels", "labels-light1", "light1-light1"])
    def test_first_bad_file_in_directory_order(self, tmp_path, capsys, monkeypatch, where, bad):
        # scene0 is sound, scene1 and scene2 each have one malformed file:
        # a truncated capture or a label mask of maxval 3
        scenes = write_corpus(tmp_path / "scenes", (600, 601, 602))
        for scene, name in zip(("scene1", "scene2"), bad):
            path = scenes / scene / name
            if name == "labels.pgm":
                path.write_bytes(b"P5\n140 100\n3\n" + bytes(140 * 100))
            else:
                path.write_bytes(path.read_bytes()[:5000])
        if where == "corpus":
            argv = ["train", str(scenes), str(tmp_path / "m.svmw")]
        else:
            corpus = write_corpus(tmp_path / "corpus", (603,))
            argv = ["train", str(corpus), str(tmp_path / "m.svmw"), "--eval-dir", str(scenes)]
        errs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("IRONPATH_THREADS", threads)
            assert main(argv) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and "Traceback" not in errs[0]
        assert errs[0].startswith(f"stage inputs failed: {scenes / 'scene1' / bad[0]}: ")

    @pytest.mark.parametrize("where", ["corpus", "eval-dir"])
    @pytest.mark.parametrize("size", [(140, 100), (260, 190)], ids=["smaller", "larger"])
    def test_labels_of_another_size_name_the_file(self, tmp_path, capsys, monkeypatch,
                                                  where, size):
        # 200x150 captures; scene1's labels are drawn for another image size
        scenes = write_corpus(tmp_path / "scenes", (620, 621), width=200, height=150)
        labels = scenes / "scene1" / "labels.pgm"
        gridio.write_labels(synth.ground_truth(corpus_scene(621, width=size[0], height=size[1])),
                            labels)
        if where == "corpus":
            argv = ["train", str(scenes), str(tmp_path / "m.svmw")]
        else:
            corpus = write_corpus(tmp_path / "corpus", (603,))
            argv = ["train", str(corpus), str(tmp_path / "m.svmw"), "--eval-dir", str(scenes)]
        errs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("IRONPATH_THREADS", threads)
            assert main(argv) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"stage inputs failed: {labels}: labels ({size[1]}, {size[0]}) "
                                  f"do not match images (150, 200)\n")

    @pytest.mark.parametrize("where", ["corpus", "eval-dir"])
    def test_captures_of_different_sizes_name_the_scene(self, tmp_path, capsys, where):
        scenes = write_corpus(tmp_path / "scenes", (620, 621))
        spec = corpus_scene(621, width=150, height=100)
        gridio.write_gray(synth.render_illumination(synth.generate_height(spec), spec, 1),
                          scenes / "scene1" / "light1.pgm")
        if where == "corpus":
            argv = ["train", str(scenes), str(tmp_path / "m.svmw")]
        else:
            corpus = write_corpus(tmp_path / "corpus", (603,))
            argv = ["train", str(corpus), str(tmp_path / "m.svmw"), "--eval-dir", str(scenes)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"stage inputs failed: {scenes / 'scene1'}: image dimensions differ: ")

    def test_scene_without_wrinkles_fails_before_any_descriptor(self, tmp_path, capsys,
                                                                 monkeypatch):
        corpus = write_corpus(tmp_path / "corpus", (610,))
        write_scene_dir(corpus, "scene1", synth.SceneSpec(96, 72, CELL))
        built = []
        monkeypatch.setattr(classify, "descriptors_at", lambda *args: built.append(args))
        monkeypatch.setenv("IRONPATH_THREADS", "2")
        assert main(["train", str(corpus), str(tmp_path / "m.svmw")]) == 1
        assert capsys.readouterr().err.startswith(
            f"stage inputs failed: {corpus}: mask contains no wrinkle pixels")
        assert not built

    def test_training_set_peak_memory(self, tmp_path):
        corpus = write_corpus(tmp_path / "corpus", TRAIN_SEEDS, width=240, height=180)
        tracemalloc.start()
        try:
            ts = build_corpus_training_set(str(corpus), PipelineConfig(), threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ts.n_pos > 0
        assert (peak - ts.X.nbytes) / 2**20 < TRAINING_SET_EXTRA_MIB


def detect_args(scene_dir, model_file, extra=()):
    return ["detect",
            str(scene_dir / "height.fgrid"), str(scene_dir / "light1.pgm"),
            str(scene_dir / "light2.pgm"), str(scene_dir / "ref1.pgm"),
            str(scene_dir / "ref2.pgm"), "--model", str(model_file), *extra]


class TestDetectCommand:
    def test_flat_scene_empty_results(self, tmp_path, model_file, capsys):
        spec = synth.SceneSpec(96, 72, CELL)
        d = write_scene_dir(tmp_path, "flat", spec)
        out = tmp_path / "report.json"
        assert main(detect_args(d, model_file, ["--out", str(out)])) == 0
        report = json.loads(out.read_text())
        assert report["bumps"] == []
        assert report["wrinkles"] == []
        assert report["plan"]["actions"] == []
        assert report["plan"]["total_travel_m"] == 0.0

    def test_detect_scene_and_rerun_byte_identical(self, tmp_path, model_file):
        spec = synth.SceneSpec(
            200, 150, CELL,
            bumps=[synth.BumpSpec((0.10, 0.15), 0.036, 0.018, 0.9, 0.018)],
            wrinkles=[synth.WrinkleSpec([(0.22, 0.06), (0.34, 0.20)], 0.003, 0.0025)])
        d = write_scene_dir(tmp_path, "scene", spec)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(detect_args(d, model_file, ["--out", str(r1)])) == 0
        assert main(detect_args(d, model_file, ["--out", str(r2)])) == 0
        assert r1.read_bytes() == r2.read_bytes()
        report = json.loads(r1.read_text())
        assert len(report["bumps"]) == 1
        accepted = [w for w in report["wrinkles"] if w["accepted"]]
        assert len(accepted) == 1
        assert len(report["plan"]["actions"]) == 1
        assert report["inputs"]["height"]["sha256"]

    def test_timing_flag_adds_stage_timings(self, tmp_path, model_file, capsys):
        spec = synth.SceneSpec(96, 72, CELL)
        d = write_scene_dir(tmp_path, "flat3", spec)
        out = tmp_path / "t.json"
        assert main(detect_args(d, model_file, ["--out", str(out), "--timing"])) == 0
        report = json.loads(out.read_text())
        assert set(report["timing_s"]) == {"curvature", "mixture", "normalize",
                                           "score", "segments", "fusion", "plan"}
        assert "stage score" in capsys.readouterr().err

    def test_missing_height_exit_1(self, tmp_path, model_file, capsys):
        args = ["detect", str(tmp_path / "nope.fgrid"), "x", "x", "x", "x",
                "--model", str(model_file)]
        assert main(args) == 1
        assert "stage inputs failed" in capsys.readouterr().err

    def test_model_of_wrong_size_exit_1(self, tmp_path, capsys):
        d = write_scene_dir(tmp_path, "flat4", synth.SceneSpec(96, 72, CELL))
        short = tmp_path / "short.svmw"
        classify.save_model(classify.SvmModel(np.zeros(64), 0.0, classify.TrainHyper()), short)
        assert main(detect_args(d, short)) == 1
        err = capsys.readouterr().err
        assert "stage inputs failed" in err and "64 weights, expected 128" in err

    def test_bad_config_exit_2(self, tmp_path, model_file):
        spec = synth.SceneSpec(96, 72, CELL)
        d = write_scene_dir(tmp_path, "flat2", spec)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense 1\n")
        assert main(detect_args(d, model_file, ["--config", str(cfg)])) == 2

    def test_nan_p_min_exit_2_and_report_is_strict_json(self, tmp_path, model_file, capsys):
        d = write_scene_dir(tmp_path, "flat5", synth.SceneSpec(96, 72, CELL))
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("p_min nan\n")
        out = tmp_path / "r.json"
        assert main(detect_args(d, model_file, ["--config", str(cfg), "--out", str(out)])) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text("gap_px inf\n")
        assert main(detect_args(d, model_file, ["--config", str(cfg), "--out", str(out)])) == 0

        def reject(name):
            raise ValueError(f"bare {name} in report")
        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["config"]["gap_px"] == "inf"

    @pytest.mark.parametrize("line", ["smooth_sigma_px -1", "smooth_sigma_px inf",
                                      "smooth_sigma_px 1e300", "polarity sideways"])
    def test_bad_curvature_value_exit_2(self, tmp_path, model_file, capsys, line):
        d = write_scene_dir(tmp_path, "flat7", synth.SceneSpec(96, 72, CELL))
        cfg = tmp_path / "curv.cfg"
        cfg.write_text(line + "\n")
        assert main(detect_args(d, model_file, ["--config", str(cfg)])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and line.split()[0] in err
        assert "stage curvature failed" not in err and "Traceback" not in err

    @pytest.mark.parametrize("value", BAD_THREAD_COUNTS)
    def test_bad_thread_count_exit_2(self, tmp_path, model_file, monkeypatch, capsys, value):
        d = write_scene_dir(tmp_path, "flat6", synth.SceneSpec(96, 72, CELL))
        monkeypatch.setenv("IRONPATH_THREADS", value)
        assert main(detect_args(d, model_file)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: IRONPATH_THREADS") and "Traceback" not in err

    def test_reports_identical_for_every_thread_count(self, tmp_path, model_file, monkeypatch):
        # 150 rows: three bands of rows, so up to three threads take part
        spec = synth.SceneSpec(
            200, 150, CELL,
            bumps=[synth.BumpSpec((0.10, 0.15), 0.036, 0.018, 0.9, 0.018)],
            wrinkles=[synth.WrinkleSpec([(0.22, 0.06), (0.34, 0.20)], 0.003, 0.0025)])
        d = write_scene_dir(tmp_path, "scene", spec)
        reports = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("IRONPATH_THREADS", threads)
            out = tmp_path / f"r{threads}.json"
            assert main(detect_args(d, model_file, ["--out", str(out)])) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]
        assert json.loads(reports[0])["wrinkles"]

    def test_no_affinity_call_uses_every_cpu(self, tmp_path, model_file, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        spec = synth.SceneSpec(
            200, 150, CELL,
            bumps=[synth.BumpSpec((0.10, 0.15), 0.036, 0.018, 0.9, 0.018)],
            wrinkles=[synth.WrinkleSpec([(0.22, 0.06), (0.34, 0.20)], 0.003, 0.0025)])
        d = write_scene_dir(tmp_path, "scene", spec)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        monkeypatch.setenv("IRONPATH_THREADS", "1")
        assert main(detect_args(d, model_file, ["--out", str(r1)])) == 0
        monkeypatch.delenv("IRONPATH_THREADS")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert main(detect_args(d, model_file, ["--out", str(r2)])) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestLogLevel:
    SPEC = synth.SceneSpec(
        200, 150, CELL,
        bumps=[synth.BumpSpec((0.10, 0.15), 0.036, 0.018, 0.9, 0.018)],
        wrinkles=[synth.WrinkleSpec([(0.22, 0.06), (0.34, 0.20)], 0.003, 0.0025)])

    def test_debug_shows_logger_lines_and_keeps_report_bytes(self, tmp_path, model_file,
                                                              capsys):
        d = write_scene_dir(tmp_path, "scene", self.SPEC)
        plain, logged = tmp_path / "plain.json", tmp_path / "logged.json"
        assert main(detect_args(d, model_file, ["--out", str(plain)])) == 0
        assert "ironpath.curvature" not in capsys.readouterr().err
        assert main(detect_args(d, model_file, ["--out", str(logged),
                                                "--log-level", "debug"])) == 0
        err = capsys.readouterr().err
        # the ridge leaves thin components that the curvature scan drops
        assert "DEBUG ironpath.curvature: discarded 2 degenerate" in err
        assert logged.read_bytes() == plain.read_bytes()
        # the level is set for one command only
        assert main(detect_args(d, model_file, ["--out", str(plain)])) == 0
        assert "ironpath.curvature" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["synth", "s.txt", "out"], ["train", "c", "m"],
                                         ["plan", "r.json"], ["overlay", "r", "h", "o"]])
    def test_every_subcommand_takes_it(self, command):
        assert build_parser().parse_args(command + ["--log-level", "error"]).log_level \
            == "error"

    def test_unknown_level_exit_2(self, tmp_path, model_file, capsys):
        with pytest.raises(SystemExit) as e:
            main(["plan", str(tmp_path / "r.json"), "--log-level", "loud"])
        assert e.value.code == 2
        assert "invalid choice: 'loud'" in capsys.readouterr().err


MIXTURE = {"mean_m": [0.03, 0.02], "cov_m2": [[1e-4, 0.0], [0.0, 4e-5]]}
WRINKLE = {"id": 0, "endpoints_m": [[0.01, 0.01], [0.05, 0.02]], "length_m": 0.041,
           "direction_rad": 0.24, "support": 30, "q": 0.9, "r": 0.8, "p": 0.72,
           "accepted": True}


def malformed_reports(tmp_path):
    """A truncated report, and one whose wrinkle lacks endpoints_m."""
    whole = dump_report({"bumps": [], "mixture": [], "wrinkles": [WRINKLE],
                         "plan": {"actions": []}})
    truncated = tmp_path / "truncated.json"
    truncated.write_text(whole[:len(whole) // 2])
    partial = tmp_path / "partial.json"
    wk = {k: v for k, v in WRINKLE.items() if k != "endpoints_m"}
    partial.write_text(dump_report({"bumps": [], "mixture": [], "wrinkles": [wk],
                                    "plan": {"actions": []}}))
    return {"truncated": (truncated, "truncated.json"), "partial": (partial, "endpoints_m")}


class TestPlanCommand:
    def test_replan_with_new_threshold(self, tmp_path, model_file):
        spec = synth.SceneSpec(
            200, 150, CELL,
            wrinkles=[synth.WrinkleSpec([(0.08, 0.10), (0.30, 0.18)], 0.003, 0.0025)])
        d = write_scene_dir(tmp_path, "scene", spec)
        rpt = tmp_path / "r.json"
        assert main(detect_args(d, model_file, ["--out", str(rpt)])) == 0
        strict = tmp_path / "strict.cfg"
        strict.write_text("p_min 0.999\n")
        out = tmp_path / "replanned.json"
        assert main(["plan", str(rpt), "--config", str(strict),
                     "--height", str(d / "height.fgrid"), "--out", str(out)]) == 0
        replanned = json.loads(out.read_text())
        assert replanned["plan"]["actions"] == []
        assert all(not w["accepted"] for w in replanned["wrinkles"])

    @pytest.mark.parametrize("kind", ["truncated", "partial"])
    def test_malformed_report_exit_1(self, tmp_path, capsys, kind):
        rpt, why = malformed_reports(tmp_path)[kind]
        assert main(["plan", str(rpt), "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage inputs failed: ") and why in err
        assert "Traceback" not in err and not (tmp_path / "o.json").exists()


class TestOverlayCommand:
    SVG_ELEMENTS = {"svg", "defs", "marker", "path", "image", "ellipse",
                    "line", "circle", "text"}

    def _strip(self, tag):
        return tag.rsplit("}", 1)[-1]

    def test_empty_report_background_only(self, tmp_path):
        g = gridio.FloatGrid(64, 48, CELL, data=np.zeros(64 * 48))
        gridio.write_grid(g, tmp_path / "h.fgrid")
        rpt = tmp_path / "empty.json"
        rpt.write_text(dump_report({"bumps": [], "mixture": [], "wrinkles": [],
                                    "plan": {"actions": []}}))
        out = tmp_path / "o.svg"
        assert main(["overlay", str(rpt), str(tmp_path / "h.fgrid"), str(out)]) == 0
        root = ET.parse(out).getroot()
        tags = [self._strip(e.tag) for e in root.iter()]
        assert tags.count("image") == 1
        assert "ellipse" not in tags and "line" not in tags

    def test_arrows_and_labels_match_plan(self, tmp_path, model_file):
        spec = synth.SceneSpec(
            200, 150, CELL,
            bumps=[synth.BumpSpec((0.10, 0.15), 0.036, 0.018, 0.9, 0.018)],
            wrinkles=[synth.WrinkleSpec([(0.22, 0.06), (0.34, 0.20)], 0.003, 0.0025)])
        d = write_scene_dir(tmp_path, "scene", spec)
        rpt = tmp_path / "r.json"
        assert main(detect_args(d, model_file, ["--out", str(rpt)])) == 0
        out = tmp_path / "o.svg"
        assert main(["overlay", str(rpt), str(d / "height.fgrid"), str(out)]) == 0
        root = ET.parse(out).getroot()
        report = json.loads(rpt.read_text())
        n_actions = len(report["plan"]["actions"])
        tags = [self._strip(e.tag) for e in root.iter()]
        assert tags.count("text") == n_actions
        assert tags.count("ellipse") == 2 * len(report["mixture"])
        assert set(tags) <= self.SVG_ELEMENTS
        assert root.get("version") == "1.1"

    @pytest.mark.parametrize("kind", ["truncated", "partial"])
    def test_malformed_report_exit_1(self, tmp_path, capsys, kind):
        rpt, why = malformed_reports(tmp_path)[kind]
        g = gridio.FloatGrid(64, 48, CELL, data=np.zeros(64 * 48))
        gridio.write_grid(g, tmp_path / "h.fgrid")
        out = tmp_path / "o.svg"
        assert main(["overlay", str(rpt), str(tmp_path / "h.fgrid"), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage inputs failed: ") and why in err
        assert "Traceback" not in err and not out.exists()


def test_dump_report_keeps_sign_of_infinity():
    text = dump_report({"a": -math.inf, "b": math.inf, "c": np.float64(-np.inf),
                        "d": [np.float32(np.inf)], "e": np.array([-np.inf])})
    assert json.loads(text) == {"a": "-inf", "b": "inf", "c": "-inf",
                                "d": ["inf"], "e": ["-inf"]}


class TestRunDetection:
    def test_dimension_mismatch_fails_cleanly(self, trained_model):
        from ironpath.cli import StageError
        height = gridio.FloatGrid(64, 48, CELL, data=np.zeros(64 * 48))
        img_ok = gridio.GrayImage(64, 48, data=np.full(64 * 48, 0.5))
        img_bad = gridio.GrayImage(32, 48, data=np.full(32 * 48, 0.5))
        with pytest.raises(StageError, match="inputs"):
            run_detection(height, img_bad, img_ok, img_ok, img_ok,
                          trained_model, PipelineConfig())


def test_cli_import_loads_no_scipy():
    # scipy.ndimage alone costs about 0.4 s of every command's start-up, and
    # xml.sax about 28 ms
    src = os.path.dirname(os.path.dirname(os.path.abspath(ironpath.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import ironpath.cli, sys; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules); "
            "assert not any(m.startswith('xml.sax') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
