"""Seeded fuzzing of the weight container: random truncations and byte flips
of a saved width-0.25 C store and of a teacher bundle must fail with a typed
engine error, never a raw Python or numpy one. Plain numpy loops, so that
the suite needs nothing beyond numpy and pytest."""

import numpy as np
import pytest

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
