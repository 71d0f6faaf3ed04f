"""Seeded fuzzing of the input files: random truncations and byte flips of a
saved width-0.25 C store, a teacher bundle, P5/P6 images, a manifest and a
fixation file must fail with a typed engine error, never a raw Python or numpy one. Plain numpy
loops, so that the suite needs nothing beyond numpy and pytest."""

import numpy as np
import pytest

from conftest import build_synthetic_dataset
from fastsal import data_io
from fastsal.distill import TeacherBundle
from fastsal.errors import ContractError, NumericDomainError, ParseError, WeightStoreError
from fastsal.network import build_fastsal, check_weights, init_weights, load_weights, save_weights
from fastsal.tensor import Tensor

TYPED = (ParseError, WeightStoreError, ContractError)
CASES = 150


def _header_mask(blob):
    """True on the bytes of blob that are not tensor payload: magic, version,
    count and every entry's name length, name, rank and dims."""
    mask = np.ones(len(blob), dtype=bool)
    off = 10
    for _ in range(int.from_bytes(blob[6:10], "little")):
        nlen = int.from_bytes(blob[off:off + 2], "little")
        rank = blob[off + 2 + nlen]
        dims = np.frombuffer(blob, dtype="<u4", count=rank, offset=off + 3 + nlen)
        off += 3 + nlen + 4 * rank
        nbytes = 4 * int(np.prod(dims, dtype=np.int64))
        mask[off:off + nbytes] = False
        off += nbytes
    assert off == len(blob)
    return mask


def _flip(blob, pos, rng):
    b = bytearray(blob)
    b[pos] ^= int(rng.integers(1, 256))
    return bytes(b)


def _fuzz(tmp_path, blob, load, payload_errors, seed):
    """Truncations must raise ParseError; flips outside the payloads must
    raise one of TYPED; flips inside them must load or raise one of
    payload_errors."""
    rng = np.random.default_rng(seed)
    path = tmp_path / "fuzz.fsal"
    header = np.flatnonzero(_header_mask(blob))
    payload = np.flatnonzero(~_header_mask(blob))
    for cut in rng.integers(0, len(blob), CASES):
        path.write_bytes(blob[:cut])
        with pytest.raises(ParseError):
            load(str(path))
    for pos in rng.choice(header, CASES):
        path.write_bytes(_flip(blob, pos, rng))
        with pytest.raises(TYPED):
            load(str(path))
    for pos in rng.choice(payload, CASES // 3):
        path.write_bytes(_flip(blob, pos, rng))
        try:
            load(str(path))
        except payload_errors:
            pass


def test_c_store_mutations_raise_typed_errors(tmp_path):
    graph = build_fastsal("C", (1, 3, 48, 64), width=0.25)
    path = tmp_path / "c.fsal"
    save_weights(init_weights(graph, seed=0), str(path))

    def load(p):
        check_weights(graph, load_weights(p))

    _fuzz(tmp_path, path.read_bytes(), load, (), seed=0)


def test_teacher_bundle_mutations_raise_typed_errors(tmp_path):
    rng = np.random.default_rng(1)
    d = rng.uniform(0.1, 1.0, (1, 1, 12, 16))
    bundle = TeacherBundle(
        hint_features=[Tensor(rng.normal(size=(1, c, 6, 8)).astype(np.float32))
                       for c in (4, 8, 8, 2)],
        pseudo_map=Tensor(rng.uniform(0, 1, (1, 1, 12, 16)).astype(np.float32)),
        pseudo_dist=Tensor((d / d.sum()).astype(np.float32)))
    path = tmp_path / "t.fsal"
    data_io.save_teacher_bundle(bundle, str(path))
    # a flipped pseudo-map value can leave [0, 1] and a flipped distribution
    # value breaks its unit sum
    _fuzz(tmp_path, path.read_bytes(), data_io.load_teacher_bundle,
          (NumericDomainError, ContractError), seed=2)


def _mutants(blob, seed):
    """CASES seeded truncations and CASES single-byte flips of blob."""
    rng = np.random.default_rng(seed)
    for cut in rng.integers(0, len(blob), CASES):
        yield blob[:cut]
    for pos in rng.integers(0, len(blob), CASES):
        yield _flip(blob, pos, rng)


def _pnm(magic, h, w, maxval, rng):
    channels = 3 if magic == "P6" else 1
    dtype = ">u2" if maxval > 255 else np.uint8
    pixels = rng.integers(0, maxval + 1, (h, w, channels)).astype(dtype)
    return f"{magic}\n# fuzz\n{w} {h}\n{maxval}\n".encode() + pixels.tobytes()


@pytest.mark.parametrize("maxval", [255, 100, 65535])
@pytest.mark.parametrize("magic", ["P5", "P6"])
def test_pnm_mutations_raise_typed_errors(tmp_path, magic, maxval):
    """Images and maps, read at their own size and resized: every mutant
    either loads or raises one of TYPED. 16-bit files never load."""
    rng = np.random.default_rng(maxval)
    blob = _pnm(magic, 6, 9, maxval, rng)
    path = tmp_path / "fuzz.pnm"
    loaders = [data_io.load_image, lambda p: data_io.load_image(p, size=(8, 4)),
               data_io.load_map, lambda p: data_io.load_map(p, size=(3, 12))]
    for i, mutant in enumerate(_mutants(blob, seed=maxval + (magic == "P6"))):
        path.write_bytes(mutant)
        try:
            loaders[i % len(loaders)](str(path))
        except TYPED:
            continue
        assert maxval <= 255, mutant[:24]


def test_manifest_mutations_raise_typed_errors(tmp_path):
    path = build_synthetic_dataset(str(tmp_path / "d"), n=3)
    with open(path, "rb") as f:
        blob = f.read()
    data_io.load_manifest(path)
    for mutant in _mutants(blob, seed=3):
        with open(path, "wb") as f:
            f.write(mutant)
        try:
            data_io.load_manifest(path)
        except TYPED:
            pass


def test_fixation_mutations_raise_typed_errors(tmp_path):
    path = tmp_path / "fix.txt"
    blob = b"".join(b"%d %d\n" % (r, c) for r, c in ((3, 17), (40, 2), (0, 63), (47, 9)))
    path.write_bytes(blob)
    assert len(data_io.load_fixations(str(path), bounds=(48, 64))) == 4
    for mutant in _mutants(blob, seed=4):
        path.write_bytes(mutant)
        try:
            data_io.load_fixations(str(path), bounds=(48, 64))
        except TYPED:
            pass
