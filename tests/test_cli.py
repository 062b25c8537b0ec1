import ast
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CELL, TRAIN_SEEDS, corpus_scene
import ironpath
from ironpath import classify, curvature, discont, gridio, mixture, synth
from ironpath.cli import (CONFIG_KEYS, SECTIONS, ConfigError, PipelineConfig,
                          build_corpus_training_set, build_parser, dump_report, main,
                          parse_config, read_scene, run_detection)

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


def count_solves(monkeypatch) -> list:
    """A list that gains one entry per classify.train_arrays call."""
    solves, train_arrays = [], classify.train_arrays

    def counted(*args):
        solves.append(None)
        return train_arrays(*args)
    monkeypatch.setattr(classify, "train_arrays", counted)
    return solves


def on_both_commands(own: str, cases: dict) -> list:
    """The cases (id -> args) as pytest params (command, *args) on plan and
    on overlay; on the command other than `own` the id ends in its name."""
    return [pytest.param(command, *args, id=case_id if command == own else f"{case_id}-{command}")
            for command in ("plan", "overlay") for case_id, args in cases.items()]


def report_argv(command: str, rpt, tmp_path, out) -> list:
    """argv of plan or overlay reading the report rpt and writing out; overlay
    draws on a flat 64x48 height grid written to tmp_path."""
    if command == "plan":
        return ["plan", str(rpt), "--out", str(out)]
    height = tmp_path / "h.fgrid"
    gridio.write_grid(gridio.FloatGrid(np.zeros((48, 64)), CELL), height)
    return ["overlay", str(rpt), str(height), str(out)]


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
        "close_iterations 0", "close_iterations 100", "hough_rho_px 0.25",
        "hough_theta_deg 0.25", "hough_theta_deg 180", "min_pixels 0", "gap_px inf",
        "nms_rho_px 0"])
    def test_range_bounds_accepted(self, tmp_path, line):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        parse_config(p)

    def test_error_names_the_key_set(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("hough_rho_px 0\n")
        with pytest.raises(ConfigError, match="hough_rho_px: rho_res_px must be"):
            parse_config(p)

    @pytest.mark.parametrize("line", ["p_min", "p_min 0.4 0.5"])
    def test_line_of_other_than_two_tokens_rejected(self, tmp_path, line):
        p = tmp_path / "c.cfg"
        p.write_text(f"# two lines\n{line}\n")
        with pytest.raises(ConfigError, match=f"{re.escape(str(p))}:2: expected 'key value'"):
            parse_config(p)

    def test_every_field_has_exactly_one_key(self):
        # a field declares its key by its name or its `key` metadata; two
        # fields that declared one key would leave one of them with none
        declared = [(section, f.name)
                    for section, cls in ((None, PipelineConfig), *SECTIONS.items())
                    for f in dataclasses.fields(cls) if f.name not in SECTIONS]
        keyed = [(section, f.name) for section, f in CONFIG_KEYS.values()]
        assert Counter(keyed) == Counter(declared) and len(declared) == 29
        for key, (_, f) in CONFIG_KEYS.items():
            assert key == f.metadata.get("key", f.name)


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
    "iron_long_axis_m 0.05", "press_depth_m 0.1",
    "lift_height_m 0", "travel_speed_m_per_s 0", "iron_short_axis_m inf",
    "foam_stiffness_n_per_m -1", "seed -1", "seed 18446744073709551616",
    "min_pixels -1", "close_iterations -1", "close_iterations 101", "gap_px -1",
    "gating_px -1", "min_len_px -1", "hough_min_votes -1", "min_volume_m3 -1",
    "min_minor_axis_m -1", "nms_rho_px -1", "nms_theta_deg -1", "p_min 1.5",
    "p_min -0.1", "score_threshold 2",
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
        gridio.write_grid(gridio.FloatGrid(np.zeros((48, 64)), CELL), height)
        if command == "overlay":
            argv = ["overlay", str(rpt), str(height), str(tmp_path / "o.svg")]
        else:
            argv = ["plan", str(rpt), "--height", str(height), "--out", str(tmp_path / "o.json")]
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # an empty section of the right type reads as no entries; any other
        # value is refused, naming the section
        if isinstance(value, dict if field == "plan" else list):
            assert code == 0
        else:
            assert code == 1 and err.startswith(f"stage inputs failed: {rpt}: {field}: expected ")

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
                                      "max_len_px inf", "eps_umbilic_rel 1e-9",
                                      "clearance_samples 16"])
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

    def test_detect_infinite_cell_size_exit_1(self, tmp_path, capsys, recwarn, flat_dir,
                                              model_file):
        # the one cell-size check refuses it when the grid is read, before
        # any stage computes with it
        height = tmp_path / "h.fgrid"
        header, payload = (flat_dir / "height.fgrid").read_bytes().split(b"\n", 1)
        height.write_bytes(header.rsplit(b" ", 1)[0] + b" inf\n" + payload)
        argv = detect_args(flat_dir, model_file, ["--out", str(tmp_path / "r.json")])
        argv[1] = str(height)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage inputs failed: {height}: cell_size must be finite")
        assert not recwarn.list and not (tmp_path / "r.json").exists()

    # ids as pytest generates them (a list value is named by its position), kept stable
    @pytest.mark.parametrize("command, field, value", on_both_commands("plan", {
        "length_m-long": ("length_m", "long"), "q-value1": ("q", [0.5]),
        "id-first": ("id", "first"), "endpoints_m-value3": ("endpoints_m", [[0, 0]]),
        "id-1.5": ("id", 1.5), "id-True": ("id", True), "id-1": ("id", "1"),
        "q-True": ("q", True), "r-0.5": ("r", "0.5"),
        "direction_rad-False": ("direction_rad", False),
        "endpoints_m-value10": ("endpoints_m", [[0.01, "0.01"], [0.05, 0.02]]),
        "p-True": ("p", True), "q-x": ("q", "x"), "r-None": ("r", None)}))
    def test_plan_report_field_of_wrong_type_exit_1(self, tmp_path, capsys, command, field,
                                                    value):
        # plan and overlay read a report through one reader and refuse the same fields
        rpt = tmp_path / "r.json"
        rpt.write_text(dump_report({"wrinkles": [WRINKLE, {**WRINKLE, "id": 1, field: value}]}))
        out = tmp_path / "o.out"
        assert main(report_argv(command, rpt, tmp_path, out)) == 1
        assert capsys.readouterr().err.startswith(f"stage inputs failed: {rpt}: ")
        assert not out.exists()

    @pytest.mark.parametrize("field, value, where", [
        ("endpoints_m", [[0.1, "nan"], [0.3, 0.2]], "wrinkles[0].endpoints_m: "),
        ("q", "inf", "wrinkles[0].q: "), ("r", "-inf", "wrinkles[0].r: "),
        ("length_m", math.nan, ""), ("direction_rad", math.inf, ""), ("q", -math.inf, "")],
        ids=["string-nan", "string-inf", "string-minus-inf", "bare-nan", "bare-infinity",
             "bare-minus-infinity"])
    def test_plan_non_finite_number_exit_1(self, tmp_path, capsys, field, value, where):
        # json.dumps writes a float NaN or infinity as a bare NaN or Infinity,
        # which the JSON parser refuses before any field is read
        rpt = tmp_path / "r.json"
        rpt.write_text(json.dumps({"wrinkles": [{**WRINKLE, field: value}]}))
        out = tmp_path / "o.json"
        assert main(["plan", str(rpt), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage inputs failed: {rpt}: {where}non-finite number ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["overlay", "plan"])
    def test_report_not_an_object_exit_1(self, tmp_path, capsys, command):
        rpt = tmp_path / "r.json"
        rpt.write_text("[1, 2]\n")
        out = tmp_path / "o.out"
        assert main(report_argv(command, rpt, tmp_path, out)) == 1
        err = capsys.readouterr().err
        assert err == f"stage inputs failed: {rpt}: not a JSON object\n"
        assert not out.exists()

    def test_overlay_bare_nan_exit_1(self, tmp_path, capsys):
        rpt = tmp_path / "r.json"
        rpt.write_text(json.dumps({"mixture": [{**MIXTURE, "mean_m": [math.nan, 0.02]}],
                                   "wrinkles": [], "plan": {"actions": []}}))
        height = tmp_path / "h.fgrid"
        gridio.write_grid(gridio.FloatGrid(np.zeros((48, 64)), CELL), height)
        out = tmp_path / "o.svg"
        assert main(["overlay", str(rpt), str(height), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage inputs failed: {rpt}: non-finite number NaN")
        assert not out.exists()

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

    @pytest.mark.parametrize("step", ["generate_height", "render_illumination",
                                      "render_reference", "ground_truth"])
    def test_failed_scene_step_exit_1_and_writes_nothing(self, tmp_path, capsys,
                                                         monkeypatch, step):
        # as a scene of width and height 1000000 fails, without the 7 TiB request
        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")
        monkeypatch.setattr(synth, step, no_memory)
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE_TEXT)
        out = tmp_path / "o"
        assert main(["synth", str(scene), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage synth failed: Unable to allocate") and "Traceback" not in err
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
        assert not (tmp_path / "m.svmw").exists()      # the model is written last

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

    def test_one_pool_for_every_stage(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "corpus", (573, 574))
        holdout = write_corpus(tmp_path / "holdout", (583,))
        pools, init = [], ThreadPoolExecutor.__init__

        def counted(self, *args, **kwargs):
            pools.append(None)
            init(self, *args, **kwargs)
        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counted)
        monkeypatch.setenv("IRONPATH_THREADS", "2")
        assert main(["train", str(corpus), str(tmp_path / "m.svmw"),
                     "--eval-dir", str(holdout)]) == 0
        assert len(pools) == 1

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
                                     ("light1.pgm", "light1.pgm"), ("ref1.pgm", "labels.pgm"),
                                     ("light2.pgm", "ref2.pgm")],
                             ids=["light1-labels", "labels-light1", "light1-light1",
                                  "ref1-labels", "light2-ref2"])
    def test_first_bad_file_in_directory_order(self, tmp_path, capsys, monkeypatch, where, bad):
        # scene0 is sound, scene1 and scene2 each have one malformed file:
        # a truncated capture or reference, or a label mask of maxval 3
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
        solves = count_solves(monkeypatch)
        errs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("IRONPATH_THREADS", threads)
            assert main(argv) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and "Traceback" not in errs[0]
        assert errs[0].startswith(f"stage inputs failed: {scenes / 'scene1' / bad[0]}: ")
        assert not solves           # every input is checked before training

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
        solves = count_solves(monkeypatch)
        errs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("IRONPATH_THREADS", threads)
            assert main(argv) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"stage inputs failed: {labels}: labels ({size[1]}, {size[0]}) "
                                  f"do not match images (150, 200)\n")
        assert not solves

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

    def test_invalid_reference_pixels_not_drawn(self, tmp_path):
        # a dark patch of ref1 across the ridge: detect scores those pixels 0
        # and held-out evaluation leaves them out, so training draws none
        corpus = write_corpus(tmp_path / "corpus", (610,))
        scene = corpus / "scene0"
        ridge = np.argwhere(gridio.read_labels(scene / "labels.pgm").data
                            == gridio.LABEL_WRINKLE)
        v, u = ridge[len(ridge) // 2]
        ref = np.array(gridio.read_gray(scene / "ref1.pgm"))
        ref[max(v - 12, 0):v + 12, max(u - 12, 0):u + 12] = 0.0
        gridio.write_gray(ref, scene / "ref1.pgm")
        cfg = PipelineConfig()
        labels, nimg = read_scene(str(scene))
        assert not nimg.valid[tuple(ridge.T)].all() and nimg.valid[tuple(ridge.T)].any()
        uu, vv, n_pos = classify.sample_pixels(labels, cfg.negatives_per_positive, cfg.seed,
                                               valid=nimg.valid)
        ts = build_corpus_training_set(str(corpus), cfg)
        assert ts.n_pos == n_pos
        assert np.array_equal(ts.X, classify.descriptors_at(nimg.combined, uu, vv))

    def test_training_set_peak_memory(self, tmp_path):
        corpus = write_corpus(tmp_path / "corpus", TRAIN_SEEDS, width=240, height=180)
        tracemalloc.start()
        try:
            with ThreadPoolExecutor(2) as pool:
                ts = build_corpus_training_set(str(corpus), PipelineConfig(), pool.map)
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

    def test_scene_origin_reaches_the_report(self, tmp_path, model_file):
        # the origin of the scene file frames the height grid synth writes,
        # so detect reports the bump where the scene planted it
        scene = tmp_path / "scene.txt"
        scene.write_text("width 320\nheight 240\ncell_size 0.002\norigin_x 0.5\n"
                         "origin_y 0.25\nbump 0.82 0.49 0.04 0.02 0.5 0.02\n")
        d, out = tmp_path / "scene", tmp_path / "r.json"
        assert main(["synth", str(scene), str(d)]) == 0
        assert main(detect_args(d, model_file, ["--out", str(out)])) == 0
        report = json.loads(out.read_text())
        assert report["grid"]["origin_m"] == [0.5, 0.25]
        [bump] = report["bumps"]
        assert math.dist(bump["center_m"], (0.82, 0.49)) <= 0.002

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

    def test_first_failing_stage_in_pipeline_order_is_named(self, tmp_path, model_file,
                                                            monkeypatch, capsys):
        # the height scan fails on a pool thread after score has failed on
        # the calling thread; curvature comes first in pipeline order
        d = write_scene_dir(tmp_path, "flat8", synth.SceneSpec(96, 72, CELL))
        monkeypatch.setenv("IRONPATH_THREADS", "2")
        score_failed = threading.Event()

        def detect_bumps(*args):
            score_failed.wait(10)
            raise MemoryError("no room for the height scan")

        def score_map(*args):
            score_failed.set()
            raise ValueError("bad scores")
        monkeypatch.setattr(curvature, "detect_bumps", detect_bumps)
        monkeypatch.setattr(discont, "score_map", score_map)
        out = tmp_path / "r.json"
        assert main(detect_args(d, model_file, ["--out", str(out)])) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage curvature failed: no room for the height scan")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("module, name, stage", [
        (curvature, "detect_bumps", "curvature"), (mixture, "build_mixture", "mixture"),
        (classify, "_score_band", "score")], ids=["curvature", "mixture", "score-band"])
    def test_failure_on_a_pool_thread_exit_1(self, tmp_path, model_file, monkeypatch, capsys,
                                             module, name, stage):
        d = write_scene_dir(tmp_path, "flat9", synth.SceneSpec(96, 72, CELL))
        monkeypatch.setenv("IRONPATH_THREADS", "2")
        failed_on = []

        def fail(*args):
            failed_on.append(threading.get_ident())
            raise ValueError(f"{name} broke")
        monkeypatch.setattr(module, name, fail)
        out = tmp_path / "r.json"
        assert main(detect_args(d, model_file, ["--out", str(out)])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage {stage} failed: {name} broke")
        assert "Traceback" not in err and not out.exists()
        assert failed_on and threading.get_ident() not in failed_on

    def test_one_thread_runs_height_scan_and_bands_on_one_worker(self, tmp_path, model_file,
                                                                 monkeypatch):
        # 150 rows: three bands
        d = write_scene_dir(tmp_path, "scene", synth.SceneSpec(
            200, 150, CELL, bumps=[synth.BumpSpec((0.10, 0.15), 0.036, 0.018, 0.9, 0.018)]))
        monkeypatch.setenv("IRONPATH_THREADS", "1")
        ran_on = {"curvature": [], "score": []}

        def recorded(stage, fn):
            def wrapper(*args, **kwargs):
                ran_on[stage].append(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(curvature, "detect_bumps", recorded("curvature", curvature.detect_bumps))
        monkeypatch.setattr(classify, "_score_band", recorded("score", classify._score_band))
        assert main(detect_args(d, model_file, ["--out", str(tmp_path / "r.json")])) == 0
        assert len(ran_on["curvature"]) == 1 and len(ran_on["score"]) == 3
        (worker,) = set(ran_on["curvature"] + ran_on["score"])
        assert worker != threading.get_ident()

    def test_stage_timings_in_pipeline_order(self, tmp_path, model_file, monkeypatch, capsys):
        # the height scan ends after score, yet is printed first
        d = write_scene_dir(tmp_path, "flat10", synth.SceneSpec(96, 72, CELL))
        monkeypatch.setenv("IRONPATH_THREADS", "2")
        scored = threading.Event()
        detect_bumps, score_map = curvature.detect_bumps, discont.score_map

        def late_detect_bumps(*args):
            scored.wait(10)
            return detect_bumps(*args)

        def signalling_score_map(*args):
            out = score_map(*args)
            scored.set()
            return out
        monkeypatch.setattr(curvature, "detect_bumps", late_detect_bumps)
        monkeypatch.setattr(discont, "score_map", signalling_score_map)
        assert main(detect_args(d, model_file, ["--out", str(tmp_path / "t.json")])) == 0
        assert re.findall(r"^stage (\w+): ", capsys.readouterr().err, re.M) == [
            "curvature", "mixture", "normalize", "score", "segments", "fusion", "plan"]


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
        # one line of component counters: the ridge leaves small and
        # low-volume components that the curvature scan drops
        assert re.findall(r"^DEBUG ironpath\.curvature: .*$", err, re.M) == [
            "DEBUG ironpath.curvature: 6 bump components, 1 kept; dropped 2 min_pixels, "
            "3 volume, 0 flat, 0 fit, 0 thin"]
        assert logged.read_bytes() == plain.read_bytes()
        # one line of segment counters, whose last matches the report
        counts = re.findall(r"^DEBUG ironpath\.discont: (\d+) cells at or above min_votes, "
                            r"(\d+) lines kept, (\d+) refit, (\d+) segments$", err, re.M)
        assert len(counts) == 1
        cells, kept, refit, segments = map(int, counts[0])
        assert cells >= kept >= refit >= 1
        assert segments == len(json.loads(plain.read_text())["wrinkles"]) >= 1
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
ACTION = {"kind": "sliding", "wrinkle_id": 0, "start_m": [0.01, 0.01], "end_m": [0.05, 0.02]}


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

    @pytest.mark.parametrize("field, value, why", [
        ("mean_m", [True, 0.02], "not a finite number: True"),
        ("cov_m2", [[1e-4, 0.0], [None, 4e-5]], "not a finite number: None")],
        ids=["mean-bool", "cov-null"])
    def test_mixture_field_of_wrong_type_exit_1(self, tmp_path, capsys, field, value, why):
        # plan writes the mixture back, so it checks it as overlay reads it
        rpt = tmp_path / "r.json"
        rpt.write_text(dump_report({"mixture": [{**MIXTURE, field: value}],
                                    "wrinkles": [WRINKLE]}))
        out = tmp_path / "o.json"
        assert main(["plan", str(rpt), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"stage inputs failed: {rpt}: mixture[0].{field}: {why}")
        assert not out.exists()

    def test_p_written_back_with_accepted(self, tmp_path):
        rpt = tmp_path / "r.json"
        rpt.write_text(dump_report({"mixture": [], "wrinkles": [
            {**WRINKLE, "q": 0.1, "r": 0.1, "p": 0.9}]}))
        out = tmp_path / "o.json"
        assert main(["plan", str(rpt), "--out", str(out)]) == 0
        wk, = json.loads(out.read_text())["wrinkles"]
        assert (wk["p"], wk["accepted"]) == (0.1 * 0.1, False)


class TestOverlayCommand:
    SVG_ELEMENTS = {"svg", "defs", "marker", "path", "image", "ellipse",
                    "line", "circle", "text"}

    def _strip(self, tag):
        return tag.rsplit("}", 1)[-1]

    def test_empty_report_background_only(self, tmp_path):
        g = gridio.FloatGrid(np.zeros((48, 64)), CELL)
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

    def test_static_action_drawn_as_circle(self, tmp_path):
        g = gridio.FloatGrid(np.zeros((48, 64)), CELL)
        gridio.write_grid(g, tmp_path / "h.fgrid")
        rpt = tmp_path / "r.json"
        action = {**ACTION, "kind": "static", "end_m": ACTION["start_m"]}
        rpt.write_text(dump_report({"mixture": [], "wrinkles": [],
                                    "plan": {"actions": [action]}}))
        out = tmp_path / "o.svg"
        assert main(["overlay", str(rpt), str(tmp_path / "h.fgrid"), str(out)]) == 0
        root = ET.parse(out).getroot()
        circles = [e for e in root.iter() if self._strip(e.tag) == "circle"]
        u, v = g.transform.world_to_pixel(*action["start_m"])
        assert [(c.get("cx"), c.get("cy")) for c in circles] == [(f"{u:.2f}", f"{v:.2f}")]
        assert "line" not in [self._strip(e.tag) for e in root.iter()]

    @pytest.mark.parametrize("command, section, field, value, why", on_both_commands("overlay", {
        "mean-bool": ("mixture", "mean_m", [True, 0.02], "not a finite number: True"),
        "mean-short": ("mixture", "mean_m", [0.03], "not enough values to unpack"),
        "cov-bool": ("mixture", "cov_m2", [[1e-4, False], [0.0, 4e-5]],
                     "not a finite number: False"),
        "cov-1x2": ("mixture", "cov_m2", [[1e-4, 0.0]], "not enough values to unpack"),
        "endpoint-bool": ("wrinkles", "endpoints_m", [[0.01, True], [0.05, 0.02]],
                          "not a finite number: True"),
        "p-bool": ("wrinkles", "p", True, "not a finite number: True"),
        "p-string": ("wrinkles", "p", "0.7", "not a finite number: '0.7'"),
        "accepted-string": ("wrinkles", "accepted", "no", "wrinkle accepted 'no' is not a bool"),
        "accepted-int": ("wrinkles", "accepted", 1, "wrinkle accepted 1 is not a bool"),
        "kind-hover": ("actions", "kind", "hover", "action kind 'hover' is not static or sliding"),
        "start-bool": ("actions", "start_m", [False, 0.02], "not a finite number: False"),
        "end-string": ("actions", "end_m", [0.03, "0.02"], "not a finite number: '0.02'")}))
    def test_malformed_field_exit_1(self, tmp_path, capsys, command, section, field, value,
                                    why):
        # every field overlay draws is checked as strictly as plan reads numbers,
        # and plan, which writes the report back, refuses the same fields
        entries = {"mixture": MIXTURE, "wrinkles": WRINKLE, "actions": ACTION}
        entries[section] = {**entries[section], field: value}
        rpt = tmp_path / "r.json"
        rpt.write_text(dump_report({"mixture": [entries["mixture"]],
                                    "wrinkles": [entries["wrinkles"]],
                                    "plan": {"actions": [entries["actions"]]}}))
        out = tmp_path / "o.out"
        assert main(report_argv(command, rpt, tmp_path, out)) == 1
        where = {"mixture": "mixture[0]", "wrinkles": "wrinkles[0]",
                 "actions": "plan.actions[0]"}[section]
        assert capsys.readouterr().err.startswith(
            f"stage inputs failed: {rpt}: {where}.{field}: {why}")
        assert not out.exists()

    @pytest.mark.parametrize("command, section, index, key, value, why", on_both_commands(
            "overlay", {
                "q-string": ("wrinkles", 2, "q", "x", "could not convert string to float: 'x'"),
                "length-missing": ("wrinkles", 1, "length_m", None, "missing key 'length_m'"),
                "cov-1x2": ("mixture", 1, "cov_m2", [[1e-4, 0.0]],
                            "not enough values to unpack (expected 2, got 1)"),
                "start-short": ("plan.actions", 1, "start_m", [0.01],
                                "not enough values to unpack (expected 2, got 1)")}))
    def test_error_names_the_field(self, tmp_path, capsys, command, section, index, key,
                                   value, why):
        # the path names the section, the entry and the field; value None
        # deletes the field
        report = {"mixture": [{**MIXTURE}, {**MIXTURE}],
                  "wrinkles": [{**WRINKLE, "id": i} for i in range(3)],
                  "plan": {"actions": [{**ACTION}, {**ACTION}]}}
        entry = {"mixture": report["mixture"], "wrinkles": report["wrinkles"],
                 "plan.actions": report["plan"]["actions"]}[section][index]
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        rpt = tmp_path / "r.json"
        rpt.write_text(dump_report(report))
        out = tmp_path / "o.out"
        assert main(report_argv(command, rpt, tmp_path, out)) == 1
        assert capsys.readouterr().err == (
            f"stage inputs failed: {rpt}: {section}[{index}].{key}: {why}\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["truncated", "partial"])
    def test_malformed_report_exit_1(self, tmp_path, capsys, kind):
        rpt, why = malformed_reports(tmp_path)[kind]
        g = gridio.FloatGrid(np.zeros((48, 64)), CELL)
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
        height = gridio.FloatGrid(np.zeros((48, 64)), CELL)
        img_ok = np.full((48, 64), 0.5)
        img_bad = np.full((48, 32), 0.5)
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


def test_only_cli_imports_threads():
    # the library stages run their tasks through a map they are given; each
    # command opens the one pool it uses
    importers = set()
    for path in pathlib.Path(ironpath.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("concurrent", "threading") for name in names):
                importers.add(path.name)
    assert importers == {"cli.py"}
