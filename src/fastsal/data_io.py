"""Dataset ingestion and saliency-map output.

Images are binary PPM (P6) or PGM (P5), 8-bit only; saliency maps are written
as 8-bit P5 after min-max scaling. Fixations are "row col" text lines,
0-indexed. Manifests are JSON lines with image/gt/fix/teacher keys. Teacher
bundles reuse the weight-file container with reserved entry names.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .distill import TeacherBundle
from .errors import ContractError, ParseError
from .kernels import _resize_taps
from .network import load_weights
from .tensor import Tensor

IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)
_MEAN = np.asarray(IMAGENET_MEAN, dtype=np.float32).reshape(3, 1, 1)
_STD = np.asarray(IMAGENET_STD, dtype=np.float32).reshape(3, 1, 1)


def _parse_pnm(blob):
    """Parse a binary P5/P6 file, returning its uint8 (H, W, C) pixels and
    its maxval. Raises ParseError with the byte offset of the first bad byte."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos:pos + 1]
            if ch in b" \t\r\n":
                pos += 1
            elif ch == b"#":
                while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                return

    def read_int(what):
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(blob) and blob[pos:pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise ParseError(f"expected {what}", offset=start)
        return int(blob[start:pos])

    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"unsupported magic {magic!r}, need binary P5 or P6", offset=0)
    pos = 2
    width = read_int("width")
    height = read_int("height")
    if width < 1 or height < 1:
        raise ParseError(f"empty image ({width}x{height})", offset=pos)
    maxval = read_int("maxval")
    if maxval > 255:
        raise ParseError(f"16-bit samples (maxval {maxval}) unsupported", offset=pos)
    if maxval < 1:
        raise ParseError(f"invalid maxval {maxval}", offset=pos)
    if pos >= len(blob) or blob[pos:pos + 1] not in b" \t\r\n":
        raise ParseError("missing whitespace after maxval", offset=pos)
    pos += 1
    channels = 3 if magic == b"P6" else 1
    nbytes = width * height * channels
    if len(blob) - pos < nbytes:
        raise ParseError(
            f"truncated pixel data: need {nbytes} bytes, have {len(blob) - pos}",
            offset=pos)
    if len(blob) - pos > nbytes:
        raise ParseError("trailing bytes after pixel data", offset=pos + nbytes)
    pixels = np.frombuffer(blob, dtype=np.uint8, count=nbytes, offset=pos)
    return pixels.reshape(height, width, channels), maxval


def _read_pnm(path):
    """Decode a P5/P6 file to its uint8 (H, W, C) pixels and maxval."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _parse_pnm(blob)
    except ParseError as e:
        e.args = (f"{path}: {e}",)  # the message already ends with the offset
        raise


def _lerp(arr, axis, taps, scale):
    """Two-tap interpolation of a 2-D array along axis: output index j is
    arr[i0[j]] * w0[j] + arr[i1[j]] * w1[j], times scale, in float32."""
    i0, i1, w0, w1 = taps
    shape = (-1, 1) if axis == 0 else (-1,)
    out = arr.take(i0, axis).astype(np.float32, copy=False)
    out *= (w0 * scale).astype(np.float32).reshape(shape)
    far = arr.take(i1, axis).astype(np.float32, copy=False)
    far *= (w1 * scale).astype(np.float32).reshape(shape)
    out += far
    return out


def _load_resized(path, size):
    """Decode a P5/P6 file, resize it bilinearly to size (or keep its own
    size when None) and scale it to [0, 1]: float32 (h, w, C).

    The resize gathers whole rows, then single samples within the rows, of
    the uint8 pixels with kernels._resize_taps, so it costs in proportion to
    the output; the first pass folds 1/maxval into its weights. An image
    already at size is only scaled."""
    pixels, maxval = _read_pnm(path)
    h, w, c = pixels.shape
    oh, ow = size or (h, w)
    arr = pixels.reshape(h, w * c)
    if oh != h:
        arr = _lerp(arr, 0, _resize_taps(h, oh, np.float64), 1.0 / maxval)
    if ow != w:
        # interleaved channels: sample k of output column j reads i*c + k
        i0, i1, w0, w1 = _resize_taps(w, ow, np.float64)
        k = np.arange(c)
        taps = ((i0[:, None] * c + k).ravel(), (i1[:, None] * c + k).ravel(),
                np.repeat(w0, c), np.repeat(w1, c))
        arr = _lerp(arr, 1, taps, 1.0 / maxval if oh == h else 1.0)
    if (oh, ow) == (h, w):
        arr = arr / np.float32(maxval)
    return arr.reshape(oh, ow, c)


def load_image(path, size=None):
    """Image file to a (1,3,H,W) float32 tensor. In order: decode, bilinear
    resize to size (half-pixel centers), scale by 1/maxval, broadcast
    grayscale to 3 channels, then normalize each channel by the ImageNet
    mean and std. The resize and the scale run in one pass on the 8-bit
    pixels (_load_resized), so the rest works at the output size."""
    arr = _load_resized(path, size)
    x = np.empty((1, 3) + arr.shape[:2], dtype=np.float32)
    x[0] = arr.transpose(2, 0, 1)
    x -= _MEAN
    x /= _STD
    return Tensor(x)


def load_map(path, size=None):
    """Map file to a (1,1,H,W) float32 tensor in [0,1]. In order: decode,
    bilinear resize to size, scale by 1/maxval (both in one pass, as in
    load_image), then average the channels of a color file to one."""
    arr = _load_resized(path, size)
    if arr.shape[2] == 3:
        arr = arr @ np.full((3, 1), 1 / 3, dtype=np.float32)
    return Tensor(np.ascontiguousarray(arr.transpose(2, 0, 1)[None]))


def save_map(saliency, path):
    """Write a saliency map as 8-bit P5 after per-map min-max scaling; a
    constant map writes as all zeros."""
    arr = np.asarray(saliency.data if isinstance(saliency, Tensor) else saliency,
                     dtype=np.float64)
    arr = arr.reshape(arr.shape[-2], arr.shape[-1])
    lo, hi = arr.min(), arr.max()
    scaled = (arr - lo) / (hi - lo) if hi > lo else np.zeros_like(arr)
    data = np.round(scaled * 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())


def _text_lines(path):
    """(line number, stripped text) of each non-blank line of path. A line
    that is not UTF-8 raises ParseError naming it."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: byte {e.start} of the line is not valid UTF-8",
                             line=lineno) from None
        if line:
            yield lineno, line


def load_fixations(path, bounds=None):
    """Fixation file: one "row col" 0-indexed pair per UTF-8 line."""
    fixations = []
    bad_lines = []
    for lineno, line in _text_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}: expected 'row col'", line=lineno)
        try:
            r, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}: non-integer coordinate", line=lineno) from None
        if bounds is not None:
            h, w = bounds
            if not (0 <= r < h and 0 <= c < w):
                bad_lines.append(lineno)
                continue
        fixations.append((r, c))
    if bad_lines:
        raise ContractError(
            f"{path}: fixation coordinates out of range on lines {bad_lines}")
    return fixations


@dataclass
class ManifestRecord:
    image: str
    gt: str | None = None
    fix: str | None = None
    teacher: str | None = None


def load_manifest(path):
    """JSON-lines manifest as a list of ManifestRecords, with paths made
    absolute. Each line must be UTF-8 and hold one JSON object whose image,
    and gt, fix and teacher when present and not null, are non-empty
    strings; other content raises ParseError naming the line. Every
    referenced path must exist and image paths must be unique."""
    base = os.path.dirname(os.path.abspath(path))
    records = []
    seen = set()
    for lineno, line in _text_lines(path):
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{path}: invalid JSON ({getattr(e, 'msg', e)})",
                             line=lineno) from None
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: record is not a JSON object", line=lineno)
        if "image" not in obj:
            raise ParseError(f"{path}: record missing 'image' key", line=lineno)
        rec = ManifestRecord(image=obj["image"], gt=obj.get("gt"),
                             fix=obj.get("fix"), teacher=obj.get("teacher"))
        for key in ("image", "gt", "fix", "teacher"):
            p = getattr(rec, key)
            if p is None and key != "image":
                continue
            if not (isinstance(p, str) and p):
                got = "null" if p is None else "''" if p == "" else type(p).__name__
                raise ParseError(f"{path}: '{key}' must be a non-empty path string, "
                                 f"got {got}", line=lineno)
            full = p if os.path.isabs(p) else os.path.join(base, p)
            if not os.path.exists(full):
                raise ContractError(
                    f"{path} line {lineno}: {key} file not found: {p}")
            setattr(rec, key, full)
        if rec.image in seen:
            raise ContractError(
                f"{path}: duplicate image path '{rec.image}' (line {lineno})")
        seen.add(rec.image)
        records.append(rec)
    return records


HINT_SLOTS = tuple(f"teacher.hint.{i}" for i in range(4))
PSEUDO_MAP_SLOT = "teacher.pseudo_map"
PSEUDO_DIST_SLOT = "teacher.pseudo_dist"


def load_teacher_bundle(path):
    """Teacher supervision packed in the weight-file container under the
    reserved teacher.* names. Any other slot name, or some of the four hint
    slots without the rest, raises ContractError."""
    store = load_weights(path)
    for name in store.names():
        if name not in HINT_SLOTS + (PSEUDO_MAP_SLOT, PSEUDO_DIST_SLOT):
            raise ContractError(f"{path}: unexpected slot '{name}' in teacher bundle")
    hints = None
    if any(s in store for s in HINT_SLOTS):
        hints = [store.get(s) for s in HINT_SLOTS if s in store]
    bundle = TeacherBundle(
        hint_features=hints,
        pseudo_map=store.get(PSEUDO_MAP_SLOT) if PSEUDO_MAP_SLOT in store else None,
        pseudo_dist=store.get(PSEUDO_DIST_SLOT) if PSEUDO_DIST_SLOT in store else None,
    )
    return bundle.validate()


def save_teacher_bundle(bundle, path):
    from .network import WeightStore, save_weights

    store = WeightStore()
    if bundle.hint_features is not None:
        for slot, t in zip(HINT_SLOTS, bundle.hint_features):
            store.put(slot, t)
    if bundle.pseudo_map is not None:
        store.put(PSEUDO_MAP_SLOT, bundle.pseudo_map)
    if bundle.pseudo_dist is not None:
        store.put(PSEUDO_DIST_SLOT, bundle.pseudo_dist)
    save_weights(store, path)
