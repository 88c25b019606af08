"""Flat model-parameter vectors, the two reductions over a round's block,
checkpoints and the file container they share with federation files.

A :class:`ParamVector` is the checked value at a run's edges: the initial
weights, each round's new global, checkpoints and results. It is a 1-D
float64 array plus a shape manifest naming each parameter segment and its
dims, finite and immutable after construction. Everything between those
points works on plain float64 arrays.
"""

from __future__ import annotations

import functools
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, NumericError, ShapeError, checked, is_int, owned, record

Manifest = tuple[tuple[str, tuple[int, ...]], ...]


def normalize_manifest(manifest) -> Manifest:
    """The manifest, a tuple or list of pairs, as a tuple of ``(name, dims)``
    tuples, never converting a name or a dim: a name is a str, and dims a
    tuple or list of positive ints."""
    if not isinstance(manifest, (tuple, list)):
        raise ShapeError(f"a manifest must be a tuple or list, got {manifest!r}")
    out = []
    for pair in manifest:
        name, dims = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (pair, None)
        if not (isinstance(name, str) and isinstance(dims, (tuple, list))
                and all(is_int(dim) for dim in dims)):
            raise ShapeError(f"a segment needs a string 'name' and a list of integer "
                             f"'dims', got name {name!r} and dims {dims!r}")
        dims = tuple(dims)
        if any(d <= 0 for d in dims):
            raise ShapeError(f"segment {name!r} has non-positive dims {dims}")
        out.append((name, dims))
    return tuple(out)


Layout = tuple[tuple[str, int, int, tuple[int, ...]], ...]


@functools.lru_cache(maxsize=64)
def layout(manifest: Manifest) -> Layout:
    """``(name, offset, stop, dims)`` of each segment in the flat vector.

    Computed once per manifest; every unpacking of a flat vector reads it.
    """
    out = []
    offset = 0
    for name, dims in manifest:
        stop = offset + math.prod(dims)
        out.append((name, offset, stop, dims))
        offset = stop
    return tuple(out)


def manifest_size(manifest: Manifest) -> int:
    segments = layout(manifest)
    return segments[-1][2] if segments else 0


@record
class ParamVector:
    """Immutable flat parameter vector with a named shape manifest.

    Two vectors are shape-compatible iff their manifests are identical.
    The values must be integers or floats (a bool, string or object array is
    a :class:`NumericError`, never cast) and finite.
    """

    values: np.ndarray
    manifest: Manifest

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype.kind not in "iuf":
            raise NumericError(f"parameter values must be integers or floats, "
                               f"got dtype {values.dtype}")
        values = owned(values.astype(np.float64, copy=False).reshape(-1))
        manifest = normalize_manifest(self.manifest)
        if values.size != manifest_size(manifest):
            raise ShapeError(
                f"manifest describes {manifest_size(manifest)} values, "
                f"got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("parameter vector contains NaN or Inf")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "manifest", manifest)

    def __len__(self) -> int:
        return self.values.size


def _check_block(block) -> None:
    """A (K, P) block of at least one row."""
    if np.ndim(block) != 2:
        raise ShapeError(f"need a (K, P) block of vectors, got shape {np.shape(block)}")
    if not len(block):
        raise EmptyInputError("need at least one vector")


def weighted_sum(block: np.ndarray, weights) -> np.ndarray:
    """Convex combination of a (K, P) block's rows, as a (P,) array; the
    weights are normalized.

    Callers pass raw sample counts n_k directly. Weights must be integers
    or floats (a bool or string is a :class:`NumericError`, never cast),
    finite, nonnegative, and sum to a positive finite value.
    """
    _check_block(block)
    w = np.asarray(weights)
    if w.dtype.kind not in "iuf":
        raise NumericError(f"weights must be integers or floats, got dtype {w.dtype}")
    w = w.astype(np.float64, copy=False)
    if w.shape != (len(block),):
        raise ShapeError(f"{len(block)} vectors but {w.size} weights")
    with np.errstate(over="ignore"):  # a sum past the float range is refused
        if not (np.all(np.isfinite(w)) and np.all(w >= 0)
                and 0 < (total := w.sum()) < np.inf):
            raise NumericError(f"weights must be finite and nonnegative, with a "
                               f"positive finite sum, got {w}")
    return (w / total) @ block


# Columns sorted per tile: a (256, K) float64 tile is 128 KiB at K = 64, which
# stays in a core's L2 cache while it is copied, sorted and read.
_MEDIAN_TILE = 256


def coordinate_median(block: np.ndarray) -> np.ndarray:
    """Coordinate-wise median of the rows of a (K, P) block, as a (P,) array.

    Each tile of ``_MEDIAN_TILE`` columns is copied transposed, sorted along
    its rows and its middle column read; for even K the two middle columns
    are added and the sum halved, as ``np.median`` does. So the result is
    bitwise equal to it, except for the sign of a zero where -0.0 and +0.0
    meet in the middle: they compare equal, so which comes out depends on
    the algorithm, for ``np.median`` as well. A NaN in the block is a
    :class:`NumericError`, where ``np.median`` would return NaN.
    """
    _check_block(block)
    half = len(block) // 2
    middle = np.empty(block.shape[1])
    for j in range(0, middle.size, _MEDIAN_TILE):
        tile = block[:, j:j + _MEDIAN_TILE].T.copy()  # C order, never a view
        tile.sort(axis=1)
        if np.isnan(tile[:, -1]).any():  # the sort puts NaN last
            raise NumericError("median block contains NaN")
        middle[j:j + _MEDIAN_TILE] = (tile[:, half] if len(block) % 2
                                      else (tile[:, half - 1] + tile[:, half]) / 2)
    return middle


@checked
def l2_distance(a: ParamVector, b: ParamVector) -> float:
    if a.manifest != b.manifest:
        raise ShapeError("vectors have different shape manifests")
    return float(np.linalg.norm(a.values - b.values))


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a temp file, then rename it over ``path``.

    A crash never leaves a torn file at ``path``; a failed write removes
    the temp file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Container layout of checkpoints and federation files (little-endian):
# an 8-byte unsigned header length N_h, N_h bytes of UTF-8 JSON holding one
# object, then the payload up to the end of the file. A checkpoint's header
# is {"segments": [{"name": ..., "dims": [...]}], "dtype": "f64", "count": N}
# and its payload N IEEE-754 float64 values.
def write_container(path: str | Path, header: dict, payload: bytes) -> None:
    """Write ``header`` and ``payload`` as one container file, atomically."""
    encoded = json.dumps(header).encode("utf-8")
    write_atomic(path, len(encoded).to_bytes(8, "little") + encoded + payload)


def read_container(path: str | Path) -> tuple[dict, bytes]:
    """The header object and the payload bytes of a container file; a fault
    in the length or the header is a :class:`ShapeError` naming ``path``."""
    raw = Path(path).read_bytes()
    header_end = 8 + int.from_bytes(raw[:8], "little")
    if len(raw) < 8 or header_end > len(raw):
        raise ShapeError(f"{path}: file ends before its header does")
    try:
        header = json.loads(raw[8:header_end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, huge int, deep nesting
        raise ShapeError(f"{path}: header is not UTF-8 JSON") from exc
    if not isinstance(header, dict):
        raise ShapeError(f"{path}: header is not a JSON object")
    return header, raw[header_end:]


@checked
def save_checkpoint(vec: ParamVector, path: str | Path) -> None:
    """Write a vector to the canonical single-file checkpoint layout."""
    write_container(path, {
        "segments": [{"name": name, "dims": list(dims)} for name, dims in vec.manifest],
        "dtype": "f64",
        "count": len(vec),
    }, vec.values.astype("<f8").tobytes())


@checked
def load_checkpoint(path: str | Path) -> ParamVector:
    header, payload = read_container(path)
    segments, count = header.get("segments"), header.get("count")
    if not (header.get("dtype") == "f64" and isinstance(segments, list)
            and all(isinstance(seg, dict) for seg in segments)):
        raise ShapeError(f"{path}: a checkpoint header needs dtype 'f64' and "
                         f"segments of a string 'name' and a list of integer 'dims'")
    try:  # a missing key reads as None, which is no name and no dims
        manifest = normalize_manifest([(seg.get("name"), seg.get("dims"))
                                       for seg in segments])
    except ShapeError as exc:
        raise ShapeError(f"{path}: {exc}") from None
    size = manifest_size(manifest)
    if not is_int(count) or count != size or len(payload) != 8 * size:
        raise ShapeError(f"{path}: the manifest holds {size} values, but the "
                         f"count is {count!r} and the payload {len(payload)} bytes")
    return ParamVector(np.frombuffer(payload, dtype="<f8"), manifest)
