import numpy as np
import pytest

from conftest import build_synthetic_dataset, make_blob_map, write_pgm, write_ppm
from fastsal import data_io
from fastsal.distill import TeacherBundle
from fastsal.errors import ContractError, ParseError
from fastsal.tensor import Tensor


class TestPnmParsing:
    def test_pgm_round_trip(self, tmp_path):
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
        path = tmp_path / "a.pgm"
        write_pgm(path, arr)
        out = data_io._load_resized(str(path), None)
        assert out.shape == (3, 4, 1)
        np.testing.assert_allclose(out[:, :, 0], arr / 255.0, atol=1e-7)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, (5, 6, 3)).astype(np.uint8)
        path = tmp_path / "a.ppm"
        write_ppm(path, arr)
        out = data_io._load_resized(str(path), None)
        np.testing.assert_allclose(out, arr / 255.0, atol=1e-7)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n 2 \t2\n255\n" + bytes(4))
        out = data_io._load_resized(str(path), None)
        assert out.shape == (2, 2, 1)

    def test_maxval_scaling(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 100]))
        out = data_io._load_resized(str(path), None)
        np.testing.assert_allclose(out[0, :, 0], [0.5, 1.0])

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(ParseError) as e:
            data_io._load_resized(str(path), None)
        assert e.value.offset == 0

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ParseError, match="16-bit"):
            data_io._load_resized(str(path), None)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ParseError, match="truncated"):
            data_io._load_resized(str(path), None)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(6))
        with pytest.raises(ParseError, match="trailing"):
            data_io._load_resized(str(path), None)

    @pytest.mark.parametrize("dims", [b"0 4", b"4 0", b"0 0"])
    @pytest.mark.parametrize("size", [None, (8, 8)])
    def test_empty_image_rejected(self, tmp_path, dims, size):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n")
        with pytest.raises(ParseError, match="empty image") as e:
            data_io.load_image(str(path), size=size)
        assert str(e.value).count("byte offset") == 1

    def test_missing_dimension(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n2\n")
        with pytest.raises(ParseError, match="height"):
            data_io._load_resized(str(path), None)


class TestImageLoading:
    def test_image_tensor_shape_and_normalization(self, tmp_path):
        arr = np.full((4, 6, 3), 128, dtype=np.uint8)
        path = tmp_path / "i.ppm"
        write_ppm(path, arr)
        t = data_io.load_image(str(path))
        assert t.shape == (1, 3, 4, 6)
        expect = (128 / 255.0 - np.array(data_io.IMAGENET_MEAN)) \
            / np.array(data_io.IMAGENET_STD)
        np.testing.assert_allclose(t.data[0, :, 0, 0], expect, atol=1e-5)

    def test_grayscale_broadcast(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_pgm(path, np.full((3, 3), 100, dtype=np.uint8))
        t = data_io.load_image(str(path))
        assert t.shape == (1, 3, 3, 3)
        raw = (t.data[0] * np.array(data_io.IMAGENET_STD).reshape(3, 1, 1)
               + np.array(data_io.IMAGENET_MEAN).reshape(3, 1, 1))
        np.testing.assert_allclose(raw[0], raw[2], atol=1e-6)

    def test_resize_to_target(self, tmp_path):
        path = tmp_path / "r.ppm"
        write_ppm(path, np.zeros((4, 4, 3), dtype=np.uint8))
        t = data_io.load_image(str(path), size=(8, 16))
        assert t.shape == (1, 3, 8, 16)

    def test_load_map_bounds(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(path, make_blob_map(6, 8, 3, 4, 2.0))
        t = data_io.load_map(str(path))
        assert t.shape == (1, 1, 6, 8)
        assert 0.0 <= t.data.min() and t.data.max() <= 1.0


def _dense_resize(n_in, n_out):
    """Float64 half-pixel bilinear operator, written out independently."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    np.add.at(m, (rows, np.clip(i0, 0, n_in - 1)), 1.0 - frac)
    np.add.at(m, (rows, np.clip(i0 + 1, 0, n_in - 1)), frac)
    return m


def _reference(pixels, maxval, size):
    """(C, h, w) float64: scale, then dense resize of each plane."""
    planes = pixels.transpose(2, 0, 1).astype(np.float64) / maxval
    if size is None:
        return planes
    return _dense_resize(planes.shape[1], size[0]) @ planes \
        @ _dense_resize(planes.shape[2], size[1]).T


def _write_pnm(path, pixels, maxval):
    h, w, c = pixels.shape
    with open(path, "wb") as f:
        f.write(f"{'P6' if c == 3 else 'P5'}\n{w} {h}\n{maxval}\n".encode())
        f.write(pixels.astype(np.uint8).tobytes())


class TestResizeOnLoad:
    """load_image and load_map resize on the 8-bit pixels; both must match a
    float64 dense-matrix resize of the scaled image within 2e-6."""

    CASES = [  # (channels, source HxW, target size, maxval)
        (3, (48, 64), (24, 32), 255),     # downsize by 2
        (1, (48, 64), (24, 32), 255),
        (3, (37, 53), (16, 24), 255),     # non-integer ratios
        (1, (5, 7), (12, 20), 255),       # upsize
        (3, (5, 7), (12, 20), 100),
        (3, (20, 30), (20, 30), 255),     # native size given
        (1, (20, 30), None, 77),          # no target size
        (3, (20, 30), (20, 12), 200),     # one axis native
        (1, (21, 30), (8, 30), 1),
    ]

    @pytest.mark.parametrize("channels,src,size,maxval", CASES)
    def test_load_image_matches_dense_reference(self, tmp_path, channels, src, size,
                                                maxval):
        rng = np.random.default_rng(channels * 1000 + maxval)
        pixels = rng.integers(0, maxval + 1, (*src, channels))
        path = tmp_path / "img.pnm"
        _write_pnm(path, pixels, maxval)
        ref = _reference(pixels, maxval, size)
        raw = data_io._load_resized(str(path), size).transpose(2, 0, 1)
        assert raw.dtype == np.float32 and raw.shape == ref.shape
        np.testing.assert_allclose(raw, ref, rtol=0, atol=2e-6)
        ref = np.broadcast_to(ref, (3,) + ref.shape[1:])
        mean = np.array(data_io.IMAGENET_MEAN).reshape(3, 1, 1)
        std = np.array(data_io.IMAGENET_STD).reshape(3, 1, 1)
        x = data_io.load_image(str(path), size=size).data
        np.testing.assert_allclose(x[0], (ref - mean) / std, rtol=0, atol=2e-6)

    @pytest.mark.parametrize("channels,src,size,maxval", CASES)
    def test_load_map_matches_dense_reference(self, tmp_path, channels, src, size,
                                              maxval):
        rng = np.random.default_rng(channels * 1000 + maxval + 1)
        pixels = rng.integers(0, maxval + 1, (*src, channels))
        path = tmp_path / "map.pnm"
        _write_pnm(path, pixels, maxval)
        ref = _reference(pixels, maxval, size).mean(axis=0)
        got = data_io.load_map(str(path), size=size).data
        assert got.dtype == np.float32 and got.shape == (1, 1) + ref.shape
        np.testing.assert_allclose(got[0, 0], ref, rtol=0, atol=2e-6)

    def test_native_size_is_exact_scale(self, tmp_path):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, (6, 9, 3)).astype(np.uint8)
        path = tmp_path / "n.ppm"
        write_ppm(path, pixels)
        x = data_io._load_resized(str(path), (6, 9))
        np.testing.assert_array_equal(x, pixels.astype(np.float32) / np.float32(255))


class TestSaveMap:
    def test_round_trip_with_scaling(self, tmp_path):
        sal = np.linspace(-2, 5, 12).reshape(1, 1, 3, 4)
        path = tmp_path / "out.pgm"
        data_io.save_map(Tensor(sal), str(path))
        back = data_io._load_resized(str(path), None)[:, :, 0]
        expect = (sal[0, 0] - sal.min()) / (sal.max() - sal.min())
        np.testing.assert_allclose(back, expect, atol=1 / 255.0)

    def test_constant_map_writes_zeros(self, tmp_path):
        path = tmp_path / "flat.pgm"
        data_io.save_map(np.full((2, 2), 3.0), str(path))
        back = data_io._load_resized(str(path), None)
        np.testing.assert_array_equal(back, np.zeros((2, 2, 1)))


class TestFixations:
    def test_parse_pairs(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 2\n\n3 4\n")
        assert data_io.load_fixations(str(path)) == [(1, 2), (3, 4)]

    def test_bounds_violations_list_lines(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 0\n9 9\n1 1\n20 0\n")
        with pytest.raises(ContractError, match=r"\[2, 4\]"):
            data_io.load_fixations(str(path), bounds=(5, 5))

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 0\n1 2 3\n")
        with pytest.raises(ParseError) as e:
            data_io.load_fixations(str(path))
        assert e.value.line == 2

    def test_non_integer(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a b\n")
        with pytest.raises(ParseError):
            data_io.load_fixations(str(path))


class TestManifest:
    def test_loads_and_resolves_paths(self, tmp_path):
        manifest = build_synthetic_dataset(str(tmp_path / "d"), n=3)
        m = data_io.load_manifest(manifest)
        assert len(m) == 3
        for rec in m:
            assert rec.image.startswith(str(tmp_path))
            assert rec.gt and rec.fix and rec.teacher

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"image": "nope.ppm"}\n')
        with pytest.raises(ContractError, match="not found"):
            data_io.load_manifest(str(path))

    def test_duplicate_image(self, tmp_path):
        img = tmp_path / "a.ppm"
        write_ppm(img, np.zeros((2, 2, 3), dtype=np.uint8))
        path = tmp_path / "m.jsonl"
        path.write_text('{"image": "a.ppm"}\n{"image": "a.ppm"}\n')
        with pytest.raises(ContractError, match="duplicate"):
            data_io.load_manifest(str(path))

    def test_invalid_json_line(self, tmp_path):
        img = tmp_path / "a.ppm"
        write_ppm(img, np.zeros((2, 2, 3), dtype=np.uint8))
        path = tmp_path / "m.jsonl"
        path.write_text('{"image": "a.ppm"}\nnot json\n')
        with pytest.raises(ParseError) as e:
            data_io.load_manifest(str(path))
        assert e.value.line == 2

    def test_missing_image_key(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"gt": "a.pgm"}\n')
        with pytest.raises(ParseError, match="image"):
            data_io.load_manifest(str(path))

    @pytest.mark.parametrize("content, match", [
        (b'{"image": "a\xff.ppm"}\n', "UTF-8"),
        (b"5\n", "not a JSON object"),
        (b'"an image"\n', "not a JSON object"),
        (b'["image"]\n', "not a JSON object"),
        (b'{"image": 5}\n', "got int"),
        (b'{"image": null}\n', "got null"),
        (b'{"image": ["a"]}\n', "got list"),
        (b'{"image": ""}\n', "got ''"),
        (b'{"image": "a.ppm", "gt": {}}\n', "'gt' must be"),
        (b"[" * 100000 + b"\n", "invalid JSON"),
        (b"1" * 5000 + b"\n", "invalid JSON"),
    ], ids=["non-utf8", "number", "string", "list", "int-path", "null-path",
            "list-path", "empty-path", "object-gt", "deep-nesting", "long-int"])
    def test_malformed_record_names_its_line(self, tmp_path, content, match):
        for name in ("a.ppm", "b.ppm"):
            write_ppm(tmp_path / name, np.zeros((2, 2, 3), dtype=np.uint8))
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"image": "a.ppm"}\n' + content.replace(b"a.ppm", b"b.ppm"))
        with pytest.raises(ParseError, match=match) as e:
            data_io.load_manifest(str(path))
        assert e.value.line == 2

    def test_null_optional_path_is_absent(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        path = tmp_path / "m.jsonl"
        path.write_text('{"image": "a.ppm", "gt": null}\r\n')
        rec = data_io.load_manifest(str(path))[0]
        assert rec.image == str(tmp_path / "a.ppm") and rec.gt is None

    def test_optional_fields_default_none(self, tmp_path):
        img = tmp_path / "a.ppm"
        write_ppm(img, np.zeros((2, 2, 3), dtype=np.uint8))
        path = tmp_path / "m.jsonl"
        path.write_text('{"image": "a.ppm"}\n')
        rec = data_io.load_manifest(str(path))[0]
        assert rec.gt is None and rec.fix is None and rec.teacher is None


class TestTeacherBundles:
    def test_round_trip_full(self, tmp_path):
        rng = np.random.default_rng(1)
        hints = [Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32))
                 for _ in range(4)]
        pm = Tensor(rng.uniform(0, 1, (1, 1, 4, 4)).astype(np.float32))
        d = rng.uniform(0.1, 1.0, (1, 1, 4, 4))
        pd = Tensor((d / d.sum()).astype(np.float32))
        path = str(tmp_path / "t.fsal")
        data_io.save_teacher_bundle(
            TeacherBundle(hint_features=hints, pseudo_map=pm, pseudo_dist=pd), path)
        back = data_io.load_teacher_bundle(path)
        assert len(back.hint_features) == 4
        for a, b in zip(hints, back.hint_features):
            np.testing.assert_allclose(a.data, b.data, atol=1e-6)
        np.testing.assert_allclose(back.pseudo_map.data, pm.data, atol=1e-6)
        np.testing.assert_allclose(back.pseudo_dist.data, pd.data, atol=1e-6)

    def test_partial_bundle(self, tmp_path):
        pm = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        path = str(tmp_path / "p.fsal")
        data_io.save_teacher_bundle(TeacherBundle(pseudo_map=pm), path)
        back = data_io.load_teacher_bundle(path)
        assert back.hint_features is None
        assert back.pseudo_dist is None
        assert back.pseudo_map is not None

    def test_invalid_bundle_rejected_on_load(self, tmp_path):
        from fastsal.network import WeightStore, save_weights

        store = WeightStore()
        store.put(data_io.PSEUDO_MAP_SLOT,
                  Tensor(np.full((1, 1, 2, 2), 2.0, dtype=np.float32)))
        path = str(tmp_path / "bad.fsal")
        save_weights(store, path)
        with pytest.raises(Exception):
            data_io.load_teacher_bundle(path)
