import math
import os
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ironpath import classify, gridio
from ironpath.gridio import FloatGrid, GridFormatError, LabelMask, WorldTransform


class TestFloatGrid:
    def test_roundtrip_bit_exact(self, tmp_path):
        g = FloatGrid(np.zeros((3, 3)), 0.002)
        p = tmp_path / "z.fgrid"
        gridio.write_grid(g, p)
        # a grid whose origin is (0, 0) is written without the origin fields
        assert p.read_bytes().startswith(b"FGRID 3 3 0.002\n")
        g2 = gridio.read_grid(p)
        assert (g2.data.shape, g2.cell_size, g2.origin) == ((3, 3), 0.002, (0.0, 0.0))
        assert np.array_equal(g.data, g2.data)

    def test_roundtrip_random_payload(self, tmp_path):
        rng = np.random.default_rng(3)
        g = FloatGrid(rng.normal(size=(9, 17)).astype(np.float32), 0.0016,
                      origin=(0.5, -0.25))
        p = tmp_path / "r.fgrid"
        gridio.write_grid(g, p)
        back = gridio.read_grid(p)
        assert np.array_equal(back.data, g.data)
        assert back.transform == g.transform == WorldTransform(0.0016, (0.5, -0.25))

    @pytest.mark.parametrize("header, why", [
        (b"FGRID 3 3 0.002 inf 0\n", "origin must be finite"),
        (b"FGRID 3 3 0.002 0 nan\n", "origin must be finite"),
        (b"FGRID 3 3 0.002 0.5\n", "bad FGRID header"),
        (b"FGRID 3 3 0.002 0.5 0.25 1\n", "bad FGRID header")],
        ids=["inf", "nan", "one-coordinate", "three-coordinates"])
    def test_bad_origin_refused(self, tmp_path, header, why):
        p = tmp_path / "o.fgrid"
        p.write_bytes(header + np.zeros(9, dtype="<f4").tobytes())
        with pytest.raises(ValueError, match=why):
            gridio.read_grid(p)

    def test_depth_stream_resolution_header(self, tmp_path):
        p = tmp_path / "depth.fgrid"
        payload = np.zeros(640 * 480, dtype="<f4").tobytes()
        p.write_bytes(b"FGRID 640 480 0.0016\n" + payload)
        g = gridio.read_grid(p)
        assert g.data.shape == (480, 640)
        assert g.cell_size == 0.0016

    def test_length_mismatch(self, tmp_path):
        p = tmp_path / "short.fgrid"
        p.write_bytes(b"FGRID 3 3 0.002\n" + np.zeros(8, dtype="<f4").tobytes())
        with pytest.raises(GridFormatError, match="payload"):
            gridio.read_grid(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.fgrid"
        p.write_bytes(b"GRID 3 3\n")
        with pytest.raises(GridFormatError):
            gridio.read_grid(p)

    def test_non_finite_payload(self, tmp_path):
        p = tmp_path / "nan.fgrid"
        data = np.zeros(9, dtype="<f4")
        data[4] = np.nan
        p.write_bytes(b"FGRID 3 3 0.002\n" + data.tobytes())
        with pytest.raises(GridFormatError, match="non-finite"):
            gridio.read_grid(p)

    def test_invariants(self):
        # 2-D data only, of at least 3 rows and 3 columns
        for shape in [(9,), (3, 3, 1), (2, 3), (3, 2)]:
            with pytest.raises(ValueError, match="2-D array of at least 3x3"):
                FloatGrid(np.zeros(shape), 0.002)
        for cell in [0.0, math.nan, math.inf]:
            with pytest.raises(ValueError, match="cell_size must be finite and > 0"):
                FloatGrid(np.zeros((3, 3)), cell)
        with pytest.raises(ValueError, match="non-finite"):
            FloatGrid(np.full((3, 3), np.inf), 0.002)

    @pytest.mark.parametrize("header", [b"FGRID -3 -3 0.002\n", b"FGRID 3 -3 0.002\n"],
                             ids=["both", "height"])
    def test_negative_size_is_header_error(self, tmp_path, header):
        p = tmp_path / "neg.fgrid"
        p.write_bytes(header + np.zeros(9, dtype="<f4").tobytes())
        with pytest.raises(GridFormatError, match="bad FGRID header"):
            gridio.read_grid(p)

    def test_data_is_readonly(self):
        g = FloatGrid(np.zeros((3, 3)), 1.0)
        with pytest.raises(ValueError):
            g.data[0, 0] = 1.0


class TestGrayImage:
    def test_extreme_samples(self, tmp_path):
        img = np.array([1.0, 0.0] + [0.25] * 7).reshape(3, 3)
        p = tmp_path / "g.pgm"
        gridio.write_gray(img, p)
        back = gridio.read_gray(p)
        assert back.shape == (3, 3) and not back.flags.writeable
        assert back[0, 0] == 1.0
        assert back[0, 1] == 0.0

    def test_roundtrip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 1, (17, 31))
        p = tmp_path / "q.pgm"
        gridio.write_gray(img, p)
        back = gridio.read_gray(p)
        assert back.shape == (17, 31)
        err = np.abs(back - img)
        assert err.max() <= 1.0 / 131070

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_rejects_non_finite(self, tmp_path, bad):
        img = np.full((3, 4), 0.5)
        img[1, 2] = bad
        p = tmp_path / "n.pgm"
        with pytest.raises(ValueError, match="non-finite"):
            gridio.write_gray(img, p)
        assert not p.exists()

    def test_write_clips_to_unit_range(self, tmp_path):
        p = tmp_path / "c.pgm"
        gridio.write_gray(np.array([[1.5, -0.5, 0.5]]), p)
        assert np.array_equal(gridio.read_gray(p), [[1.0, 0.0, 32768 / 65535]])

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n65535\n" + b"\x00" * 10)
        with pytest.raises(GridFormatError):
            gridio.read_gray(p)

    def test_header_comments_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# written by a scanner\n2 1 # width, height\n65535\n"
                      b"\xff\xff\x00\x00")
        assert np.array_equal(gridio.read_gray(p), [[1.0, 0.0]])

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(GridFormatError):
            gridio.read_gray(p)


class TestLabelMask:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        mask = LabelMask(rng.integers(0, 3, (7, 9)))
        p = tmp_path / "l.pgm"
        gridio.write_labels(mask, p)
        assert np.array_equal(gridio.read_labels(p).data, mask.data)

    def test_bad_label_value(self):
        with pytest.raises(ValueError):
            LabelMask(np.array([[3, 0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_data_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            LabelMask(np.zeros(9, np.uint8))

    @pytest.mark.parametrize("header", [b"P5\n-3 -3\n2\n", b"P5\n3 -3\n2\n"],
                             ids=["both", "height"])
    def test_negative_size_is_header_error(self, tmp_path, header):
        p = tmp_path / "neg.pgm"
        p.write_bytes(header + b"\x00" * 9)
        with pytest.raises(GridFormatError, match="bad PGM header token b'-3'"):
            gridio.read_labels(p)

    @pytest.mark.parametrize("n_bytes", [8, 10], ids=["short", "long"])
    def test_payload_of_wrong_length(self, tmp_path, n_bytes):
        p = tmp_path / "l.pgm"
        p.write_bytes(b"P5\n3 3\n2\n" + b"\x00" * n_bytes)
        with pytest.raises(GridFormatError, match=f"payload {n_bytes} bytes, expected 9"):
            gridio.read_labels(p)

    def test_uint8_data_is_a_readonly_view(self):
        a = np.array([[0, 1, 2]] * 3, np.uint8)
        mask = LabelMask(a)
        assert np.shares_memory(mask.data, a)
        with pytest.raises(ValueError):
            mask.data[0, 0] = 1
        converted = LabelMask(a.astype(np.int64)).data
        assert converted.dtype == np.uint8 and np.array_equal(converted, mask.data)


class TestWriteAtomic:
    def test_failed_writer_leaves_nothing_behind(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        written = []

        def fail(src, dst):
            written.append(pathlib.Path(src).read_bytes())
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            gridio.write_atomic(target, b"new")
        assert written == [b"new"]          # it failed after the temporary file was written
        assert target.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["out.bin"]

    def test_temporary_name_is_not_fixed(self, tmp_path):
        target = tmp_path / "out.bin"
        other = tmp_path / "out.bin.tmp"
        other.write_bytes(b"someone else's")
        gridio.write_atomic(target, b"")
        assert target.read_bytes() == b""
        assert other.read_bytes() == b"someone else's"
        assert sorted(os.listdir(tmp_path)) == ["out.bin", "out.bin.tmp"]


class TestExactBytes:
    """Each writer's file, byte for byte, from a hand-built header and
    payload; each reader gives the raster back."""

    def test_grid(self, tmp_path):
        p = tmp_path / "g.fgrid"
        gridio.write_grid(FloatGrid(np.arange(12.0).reshape(3, 4) / 4, 0.002, (1.0, 2.0)), p)
        assert p.read_bytes() == (b"FGRID 4 3 0.002 1.0 2.0\n"
                                  + struct.pack("<12f", *[i / 4 for i in range(12)]))
        back = gridio.read_grid(p)
        assert (back.cell_size, back.origin) == (0.002, (1.0, 2.0))
        assert np.array_equal(back.data, np.arange(12.0).reshape(3, 4) / 4)

    def test_gray(self, tmp_path):
        p = tmp_path / "g.pgm"
        gridio.write_gray(np.array([[0.0, 1.0, 0.5], [2.0, -1.0, 1 / 65535]]), p)
        samples = [0, 65535, 32768, 65535, 0, 1]
        assert p.read_bytes() == b"P5\n3 2\n65535\n" + struct.pack(">6H", *samples)
        assert np.array_equal(gridio.read_gray(p), np.reshape(samples, (2, 3)) / 65535)

    def test_labels(self, tmp_path):
        p = tmp_path / "l.pgm"
        gridio.write_labels(LabelMask(np.array([[0, 1], [2, 0], [1, 2]])), p)
        assert p.read_bytes() == b"P5\n2 3\n2\n\x00\x01\x02\x00\x01\x02"
        assert np.array_equal(gridio.read_labels(p).data, [[0, 1], [2, 0], [1, 2]])

    def test_model(self, tmp_path):
        p = tmp_path / "m.svmw"
        weights = np.arange(128) / 8 - 3
        classify.save_model(classify.SvmModel(weights, -1.5, classify.TrainHyper(3e-4)), p)
        assert p.read_bytes() == (b"SVMW 128 0.0003\n"
                                  + struct.pack("<129d", *weights.tolist(), -1.5))
        back = classify.load_model(p)
        assert np.array_equal(back.weights, weights)
        assert (back.bias, back.hyper.reg_lambda) == (-1.5, 3e-4)


class TestPgmHeader:
    @pytest.mark.parametrize("header", [
        b"P5\t2\t1\t65535\t", b"P5\r2\r1\r65535\r", b"P5\x0b2\x0b1\x0b65535\x0b",
        b"P5\x0c2 1\r\n65535\n", b"P5# a comment right after the magic\n2 1 65535\n",
        b"P52 1 65535 ", b"P5 2 # w\n 1 #h\n#\n65535\n"],
        ids=["tab", "cr", "vt", "ff-crlf", "comment-after-magic", "no-space-after-magic",
             "comments"])
    def test_separators_and_comments(self, tmp_path, header):
        p = tmp_path / "s.pgm"
        p.write_bytes(header + b"\xff\xff\x00\x00")
        assert np.array_equal(gridio.read_gray(p), [[1.0, 0.0]])

    @pytest.mark.parametrize("data, why", [
        (b"P5\n3# c\n3\n2\n", "bad PGM header token b'3#'"),
        (b"P5\n2 1\n# no end of line", "truncated PGM header"),
        (b"P5\n2 1", "truncated PGM header"),
        (b"P6\n2 1\n2\n\x00\x00", "not a binary PGM (magic b'P6')"),
        (b"P5\n2 1\n3\n\x00\x00", "expected maxval 2 label mask, got 3"),
        (b"P5\n2 1 2\n\x00", "payload 1 bytes, expected 2")],
        ids=["hash-in-token", "comment-to-eof", "eof", "magic", "maxval", "payload"])
    def test_malformed_label_header(self, tmp_path, data, why):
        p = tmp_path / "m.pgm"
        p.write_bytes(data)
        with pytest.raises(GridFormatError) as e:
            gridio.read_labels(p)
        assert str(e.value) == f"{p}: {why}"


class TestHeaderNumbers:
    """A size, a maxval or the SVMW weight count is a run of ASCII digits, and
    a real-number field takes no `_`; int() and float() read every one of
    these headers."""

    @pytest.mark.parametrize("data, read, why", [
        (b"P5 +2 1_0 2\n" + bytes(2 * 10), gridio.read_labels, "bad PGM header token b'+2'"),
        (b"FGRID +3 1_0 0.002\n" + bytes(4 * 3 * 10), gridio.read_grid,
         "bad FGRID header 'FGRID +3 1_0 0.002\\n'"),
        (b"SVMW 12_8 1e-4\n" + bytes(8 * 129), classify.load_model,
         "bad SVMW header 'SVMW 12_8 1e-4\\n'"),
        (b"FGRID 3 3 2_0e-3\n" + bytes(4 * 9), gridio.read_grid,
         "bad FGRID header 'FGRID 3 3 2_0e-3\\n'"),
        (b"SVMW 128 1_0e-4\n" + bytes(8 * 129), classify.load_model,
         "bad SVMW header 'SVMW 128 1_0e-4\\n'")],
        ids=["pgm-sign-and-separator", "fgrid-sign-and-separator", "svmw-count-separator",
             "fgrid-cell-separator", "svmw-lambda-separator"])
    def test_more_than_digits_refused(self, tmp_path, data, read, why):
        p = tmp_path / "f.bin"
        p.write_bytes(data)
        with pytest.raises(GridFormatError) as e:
            read(p)
        assert str(e.value) == f"{p}: {why}"


class TestWorldTransform:
    def test_linear_map(self):
        t = WorldTransform(0.002, (0.0, 0.0))
        assert t.pixel_to_world(10, 0) == (0.020, 0.000)
        assert t.pixel_to_world(0, 0) == (0.0, 0.0)

    def test_roundtrip_property(self):
        t = WorldTransform(0.0016, (1.25, -0.75))
        rng = np.random.default_rng(17)
        for u, v in rng.uniform(-1000, 1000, size=(1000, 2)):
            u2, v2 = t.world_to_pixel(*t.pixel_to_world(u, v))
            assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9

    def test_bad_cell(self):
        for cell in [0.0, -1.0, math.nan, math.inf]:
            with pytest.raises(ValueError, match="cell_size must be finite and > 0"):
                WorldTransform(cell)

    def test_arrays_map_elementwise(self):
        t = WorldTransform(0.0016, (1.25, -0.75))
        u, v = np.arange(5), np.arange(4)
        x, y = t.pixel_to_world(u, v)
        assert [t.pixel_to_world(a, 0)[0] for a in u] == x.tolist()
        assert [t.pixel_to_world(0, b)[1] for b in v] == y.tolist()


def _token():
    return st.one_of(st.integers(-3, 300).map(str),
                     st.sampled_from(["0", "-0", "nan", "inf", "1e-4", "0.002", "2",
                                      "128", "65535", "1e999", "99999999999999999999"]))


@st.composite
def pgm_header(draw):
    """`P5` (mostly), then up to four tokens, each followed by whitespace
    (mostly) or by a run of whitespace and comments that may be empty."""
    space = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n"])
    comment = st.builds(lambda text, end: b"#" + text + end,
                        st.binary(max_size=6).filter(lambda b: b"\n" not in b),
                        st.sampled_from([b"\n", b"\n", b"\n", b""]))
    gap = st.one_of(space, space, space,
                    st.lists(st.one_of(space, comment), max_size=3).map(b"".join))
    small = st.sampled_from([b"0", b"1", b"2", b"3"])
    token = st.one_of(small, small, small, _token().map(str.encode),
                      st.sampled_from([b"3#", b"+2", b"1_0", b"x", b"\xd9\xa3", b"#"]))
    magic = draw(st.sampled_from([b"P5"] * 8 + [b"P6", b"P"]))
    return magic + draw(gap) + b"".join(draw(token) + draw(gap) for _ in
                                        range(draw(st.sampled_from([3, 3, 3, 0, 1, 2, 4]))))


@st.composite
def file_bytes(draw):
    """Random bytes, or a header of one of the formats with random fields,
    then a payload of random length."""
    header = draw(st.one_of(
        st.binary(max_size=40),
        st.builds(lambda magic, fields: magic + " ".join(fields).encode() + b"\n",
                  st.sampled_from([b"FGRID ", b"P5\n", b"P5 ", b"SVMW "]),
                  st.lists(_token(), max_size=6)),
        pgm_header()))
    size = draw(st.one_of(st.integers(0, 64), st.sampled_from([9 * 2, 9 * 4, 131 * 8])))
    return header + draw(st.binary(min_size=size, max_size=size))


@settings(max_examples=400, deadline=None)
@given(data=file_bytes())
def test_readers_raise_only_value_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(data)
    for reader in (gridio.read_grid, gridio.read_gray, gridio.read_labels,
                   classify.load_model):
        try:
            reader(path)
        except ValueError:          # GridFormatError included
            pass


def reference_read_labels(path) -> np.ndarray:
    """A label mask's samples, its header read one byte at a time: the
    reference grammar of the PGM header and its error messages."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"P5":
            raise GridFormatError(f"{path}: not a binary PGM (magic {magic!r})")
        vals = []
        while len(vals) < 3:
            c = f.read(1)
            if not c:
                raise GridFormatError(f"{path}: truncated PGM header")
            if c.isspace():
                continue
            if c == b"#":
                while c not in (b"\n", b""):
                    c = f.read(1)
                continue
            tok = c
            c = f.read(1)
            while c and not c.isspace():
                tok += c
                c = f.read(1)
            if not (tok.isascii() and tok.isdigit()):     # netpbm: decimal digits only
                raise GridFormatError(f"{path}: bad PGM header token {tok!r}")
            vals.append(int(tok))
        w, h, maxval = vals
        if maxval != 2:
            raise GridFormatError(f"{path}: expected maxval 2 label mask, got {maxval}")
        payload = f.read()
    if len(payload) != w * h:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, expected {w * h}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def _outcome(read, path):
    try:
        return read(path).tolist()
    except ValueError as e:
        return type(e).__name__, str(e)


@settings(max_examples=500, deadline=None)
@given(header=pgm_header(), payload=st.lists(st.sampled_from(b"\x00\x01\x02\x03"),
                                              max_size=12).map(bytes))
def test_pgm_header_grammar_matches_reference(tmp_path_factory, header, payload):
    path = tmp_path_factory.getbasetemp() / "grammar.pgm"
    path.write_bytes(header + payload)
    assert (_outcome(lambda p: gridio.read_labels(p).data, path)
            == _outcome(lambda p: LabelMask(reference_read_labels(p)).data, path))
