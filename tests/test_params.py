from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest

from fedsim.errors import EmptyInputError, NumericError, ShapeError
from fedsim.params import (ParamVector, coordinate_median, l2_distance,
                           load_checkpoint, manifest_size, save_checkpoint,
                           weighted_sum)

MANIFEST = (("weight", (2, 3)), ("bias", (3,)))


class TestParamVector:
    def test_length_matches_manifest(self):
        v = ParamVector(np.arange(9.0), MANIFEST)
        assert len(v) == 9
        assert manifest_size(MANIFEST) == 9

    def test_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            ParamVector(np.arange(8.0), MANIFEST)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            ParamVector(np.array([1.0, np.nan, 0.0]), (("w", (3,)),))
        with pytest.raises(NumericError):
            ParamVector(np.array([np.inf]), (("w", (1,)),))

    def test_rejects_non_positive_dims(self):
        with pytest.raises(ShapeError):
            ParamVector(np.zeros(0), (("w", (0,)),))

    @pytest.mark.parametrize("manifest", [
        (("w", (2.9,)),), (("w", ("2",)),), (("w", (True, 2)),), ((5, (2,)),),
        (("w", (np.int64(2),)),), (("w", "2"),),
    ], ids=["float-dim", "string-dim", "bool-dim", "int-name", "numpy-dim",
            "string-dims"])
    def test_ill_typed_segment_is_shape_error(self, manifest):
        # each of these once loaded, converted to int dims or a str name
        with pytest.raises(ShapeError, match="string 'name' and a list of integer"):
            ParamVector(np.zeros(2), manifest)

    @pytest.mark.parametrize("values", [
        ["1.5", "2"], [True, False], [None, 1.0], [1 + 2j, 0.0],
    ], ids=["strings", "bools", "object", "complex"])
    def test_values_of_another_kind_are_numeric_error(self, values):
        with pytest.raises(NumericError, match="integers or floats"):
            ParamVector(values, (("w", (2,)),))

    def test_integer_values_become_float64(self):
        v = ParamVector(np.array([1, 2], dtype=np.int32), (("w", (2,)),))
        assert v.values.dtype == np.float64 and v.values.tolist() == [1.0, 2.0]

    def test_values_are_frozen(self):
        v = ParamVector(np.arange(9.0), MANIFEST)
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_copies_its_input(self):
        src = np.arange(9.0)
        v = ParamVector(src, MANIFEST)
        src[0] = 99.0
        assert v.values[0] == 0.0

    @pytest.mark.parametrize("clone", [
        lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_copy_is_rebuilt_by_the_constructor(self, clone):
        v = ParamVector(np.arange(9.0), MANIFEST)
        copied = clone(v)
        assert copied.manifest == v.manifest
        assert np.array_equal(copied.values, v.values)
        assert not copied.values.flags.writeable
        assert copied.values is not v.values


def wsum(vectors, weights):
    """weighted_sum of the block whose rows are ``vectors``."""
    return weighted_sum(np.stack([v.values for v in vectors]), weights)


def median(vectors):
    """coordinate_median of the block whose rows are ``vectors``."""
    return coordinate_median(np.stack([v.values for v in vectors]))


class TestWeightedSum:
    def test_hand_computed_two_vectors(self, vec):
        # weights (0.2, 0.8) applied to [0,0] and [10,0] puts the result
        # exactly at [8, 0].
        out = wsum([vec([0.0, 0.0]), vec([10.0, 0.0])], [0.2, 0.8])
        assert out.tolist() == [8.0, 0.0]

    def test_sample_counts_normalize(self, vec):
        # counts 300 and 100 normalize to exactly (0.75, 0.25):
        # 0.75*1 + 0.25*4 = 1.75 and 0.75*2 + 0.25*8 = 3.5
        out = wsum([vec([1.0, 2.0]), vec([4.0, 8.0])], [300, 100])
        assert out.tolist() == [1.75, 3.5]

    def test_single_vector_is_identity(self, vec):
        v = vec([0.1, -2.7, 3.3])
        out = wsum([v], [123])
        assert np.array_equal(out, v.values)

    def test_equal_weights_give_plain_mean(self, vec):
        rng = np.random.default_rng(7)
        vectors = [vec(rng.normal(size=16)) for _ in range(8)]
        out = wsum(vectors, [200] * 8)
        # 1/8 is a power of two, so the normalized weights are exact.
        stacked = np.stack([v.values for v in vectors])
        assert np.allclose(out, stacked.mean(axis=0), rtol=1e-15, atol=0)

    def test_scaling_weights_changes_nothing(self, vec):
        rng = np.random.default_rng(8)
        vectors = [vec(rng.normal(size=10)) for _ in range(5)]
        counts = [67, 200, 13, 41, 5]
        a = wsum(vectors, counts)
        b = wsum(vectors, [3 * c for c in counts])
        assert np.allclose(a, b, rtol=1e-15, atol=0)

    def test_result_stays_inside_bounds(self, vec):
        rng = np.random.default_rng(9)
        vectors = [vec(rng.normal(size=12)) for _ in range(6)]
        out = wsum(vectors, rng.uniform(0.1, 5.0, size=6))
        stacked = np.stack([v.values for v in vectors])
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)

    def test_weight_errors(self, vec):
        vs = [vec([1.0]), vec([2.0])]
        with pytest.raises(ShapeError):
            wsum(vs, [1.0])
        with pytest.raises(NumericError):
            wsum(vs, [1.0, -0.5])
        with pytest.raises(NumericError):
            wsum(vs, [0.0, 0.0])
        with pytest.raises(NumericError):
            wsum(vs, [1.0, np.nan])
        with pytest.raises(EmptyInputError):
            weighted_sum(np.zeros((0, 1)), [])

    @pytest.mark.parametrize("block, weights", [
        (np.zeros(3), [1, 1, 1]), (np.zeros((1, 1, 3)), [1]), (np.float64(1.0), [1]),
    ], ids=["1-d", "3-d", "0-d"])
    def test_block_that_is_not_2d_is_shape_error(self, block, weights):
        # a 1-d block once summed to 0.0, and a 1-d median raised IndexError
        with pytest.raises(ShapeError, match=r"need a \(K, P\) block"):
            weighted_sum(block, weights)
        with pytest.raises(ShapeError, match=r"need a \(K, P\) block"):
            coordinate_median(block)


class TestCoordinateMedian:
    def test_even_count_averages_middle_pair(self, vec):
        out = median([vec([1.0]), vec([3.0])])
        assert out.tolist() == [2.0]

    def test_odd_count_picks_middle(self, vec):
        out = median([vec([5.0, -1.0]), vec([1.0, 0.0]), vec([2.0, 7.0])])
        assert out.tolist() == [2.0, 0.0]

    def test_coordinates_are_independent(self, vec):
        # medians per coordinate: [1,2,9] -> 2 and [5,0,1] -> 1
        out = median([vec([1.0, 5.0]), vec([2.0, 0.0]), vec([9.0, 1.0])])
        assert out.tolist() == [2.0, 1.0]

    def test_one_outlier_among_eight_is_ignored(self, vec):
        honest = vec(np.linspace(-1.0, 1.0, 20))
        outlier = vec(np.full(20, 1e9))
        out = median([honest] * 7 + [outlier])
        assert np.array_equal(out, honest.values)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 63, 64, 65])
    def test_bitwise_equal_to_np_median(self, vec, k):
        rng = np.random.default_rng(k)
        rows = [rng.normal(size=500) for _ in range(k)]
        for row in rows:  # heavy ties in the first 200 coordinates
            row[:200] = rng.integers(1, 4, size=200) * 0.75
        rows[0] = np.full(500, -1e9)  # a hostile client
        block = np.stack(rows)
        before = block.tobytes()
        out = coordinate_median(block)
        assert out.tobytes() == np.median(np.stack(rows), axis=0).tobytes()
        assert block.tobytes() == before

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_signed_zeros_equal_np_median(self, vec, k):
        # -0.0 == +0.0, so which of them lands in the middle depends on the
        # algorithm, for np.median as much as for a sort; compare values,
        # not bytes.
        rng = np.random.default_rng(k)
        rows = [rng.choice([-0.0, 0.0, 1.0, -1.0], size=64) for _ in range(k)]
        out = median([vec(row) for row in rows])
        assert np.array_equal(out, np.median(np.stack(rows), axis=0))


def stack_and_sort_median(block):
    """The coordinate median as it was before tiling, frozen as the oracle:
    sort a fresh copy of the whole block down axis 0, read the middle row,
    and for even K add the two middle rows and halve the sum."""
    ordered = np.array(block)
    ordered.sort(axis=0)
    k = len(ordered)
    middle = ordered[k // 2]
    if k % 2 == 0:
        middle = (ordered[k // 2 - 1] + middle) / 2
    return middle


class TestTiledMedian:
    @pytest.mark.parametrize("p", [1, 255, 256, 257, 19_210])
    @pytest.mark.parametrize("k", [1, 2, 3, 63, 64, 65])
    def test_bitwise_equal_to_stack_and_sort(self, k, p):
        rng = np.random.default_rng(1000 * k + p)
        block = rng.normal(size=(k, p))
        # every third column mixes -0.0 and +0.0 with ties; every fifth is
        # zeros of both signs only
        block[:, ::3] = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5],
                                   size=block[:, ::3].shape)
        block[:, ::5] = rng.choice([-0.0, 0.0], size=block[:, ::5].shape)
        before = block.tobytes()
        out = coordinate_median(block)
        expected = stack_and_sort_median(block)
        assert np.array_equal(out.view(np.uint64),
                              expected.view(np.uint64))
        assert block.tobytes() == before

    @pytest.mark.parametrize("column", [0, 299],
                             ids=["first-tile", "past-first-tile"])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_nan_is_numeric_error(self, k, column):
        # sorted, a NaN comes last, so it would never reach the middle
        block = np.random.default_rng(k).normal(size=(k, 300))
        block[k // 2, column] = np.nan
        with pytest.raises(NumericError, match="NaN"):
            coordinate_median(block)


class TestDistanceAndElementwise:
    def test_l2_against_naive_loop(self, vec):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=50), rng.normal(size=50)
        expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        got = l2_distance(vec(a), vec(b))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_l2_zero_and_symmetry(self, vec):
        a, b = vec([1.0, 2.0, 3.0]), vec([0.5, 2.0, -1.0])
        assert l2_distance(a, a) == 0.0
        assert l2_distance(a, b) == l2_distance(b, a)

    def test_mismatched_manifests_raise(self, vec):
        with pytest.raises(ShapeError):
            l2_distance(vec([1.0, 2.0]), vec([1.0, 2.0, 3.0]))


class TestCheckpointIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        v = ParamVector(rng.normal(size=9), MANIFEST)
        path = tmp_path / "model.ckpt"
        save_checkpoint(v, path)
        loaded = load_checkpoint(path)
        assert loaded.manifest == v.manifest
        assert np.array_equal(loaded.values, v.values)

    def test_header_describes_layout(self, tmp_path):
        import json
        import struct

        v = ParamVector(np.arange(9.0), MANIFEST)
        path = tmp_path / "model.ckpt"
        save_checkpoint(v, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw)
        header = json.loads(raw[8:8 + header_len])
        assert header["dtype"] == "f64"
        assert header["count"] == 9
        assert header["segments"][0] == {"name": "weight", "dims": [2, 3]}
        assert len(raw) == 8 + header_len + 9 * 8

    def test_truncated_payload_rejected(self, tmp_path):
        v = ParamVector(np.arange(9.0), MANIFEST)
        path = tmp_path / "model.ckpt"
        save_checkpoint(v, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ShapeError):
            load_checkpoint(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"\x10\x00\x00\x00\x00\x00\x00\x00" + b"x" * 24)
        with pytest.raises(ShapeError):
            load_checkpoint(path)

    def test_deeply_nested_header_is_shape_error(self, tmp_path):
        # the C decoder gives up at a depth of 1,000 with a RecursionError
        raw = b"[" * 10_000 + b"]" * 10_000
        path = tmp_path / "model.ckpt"
        path.write_bytes(len(raw).to_bytes(8, "little") + raw + bytes(72))
        with pytest.raises(ShapeError, match="model.ckpt: header is not"):
            load_checkpoint(path)

    def test_integer_past_the_digit_cap_is_shape_error(self, tmp_path):
        raw = b'{"dtype": "f64", "count": 1' + b"0" * 5000 + b"}"
        path = tmp_path / "model.ckpt"
        path.write_bytes(len(raw).to_bytes(8, "little") + raw + bytes(72))
        with pytest.raises(ShapeError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        {"dtype": "f64", "count": 9},
        {"dtype": "f64", "segments": "weight", "count": 9},
        {"dtype": "f64", "segments": [{"name": "w"}], "count": 9},
        {"dtype": "f64", "segments": [{"name": "w", "dims": 9}], "count": 9},
        {"dtype": "f64", "segments": [["w", [9]]], "count": 9},
        {"dtype": "f64", "segments": [{"name": "w", "dims": ["a"]}], "count": 9},
        {"dtype": "f64", "segments": [{"name": "w", "dims": [9]}]},
        {"dtype": "f64", "segments": [{"name": "w", "dims": [9]}], "count": "9"},
        ["not", "an", "object"],
    ])
    def test_malformed_header_structure_is_shape_error(self, tmp_path, header):
        import json
        import struct

        raw = json.dumps(header).encode("utf-8")
        path = tmp_path / "model.ckpt"
        path.write_bytes(struct.pack("<Q", len(raw)) + raw + bytes(72))
        with pytest.raises(ShapeError):
            load_checkpoint(path)

    @staticmethod
    def write_raw(path, header, payload_values):
        import json
        import struct

        raw = json.dumps(header).encode("utf-8")
        path.write_bytes(struct.pack("<Q", len(raw)) + raw
                         + bytes(8 * payload_values))

    @pytest.mark.parametrize("segment, count", [
        ({"name": "w", "dims": [2.7]}, 2),
        ({"name": "w", "dims": ["2"]}, 2),
        ({"name": "w", "dims": [True]}, 1),
        ({"name": 1, "dims": [2]}, 2),
        ({"name": [1], "dims": [2]}, 2),
    ], ids=["float-dim", "string-dim", "bool-dim", "int-name", "list-name"])
    def test_ill_typed_segment_is_shape_error(self, tmp_path, segment, count):
        # each of these once loaded, coerced to int dims or a str name
        path = tmp_path / "model.ckpt"
        self.write_raw(path, {"dtype": "f64", "segments": [segment],
                              "count": count}, count)
        with pytest.raises(ShapeError, match="string 'name' and a list of integer"):
            load_checkpoint(path)

    def test_non_positive_dims_name_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        self.write_raw(path, {"dtype": "f64", "count": 2,
                              "segments": [{"name": "w", "dims": [-2]}]}, 2)
        with pytest.raises(ShapeError) as info:
            load_checkpoint(path)
        assert str(info.value) == \
            f"{path}: segment 'w' has non-positive dims (-2,)"

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from pathlib import Path

        old = ParamVector(np.arange(9.0), MANIFEST)
        path = tmp_path / "model.ckpt"
        save_checkpoint(old, path)
        write_bytes = Path.write_bytes

        def torn(self, data):
            write_bytes(self, data[:10])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ParamVector(np.ones(9), MANIFEST), path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert np.array_equal(load_checkpoint(path).values, old.values)

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        old = ParamVector(np.arange(9.0), MANIFEST)
        path = tmp_path / "model.ckpt"
        save_checkpoint(old, path)

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("fedsim.params.os.replace", crash)
        with pytest.raises(OSError):
            save_checkpoint(ParamVector(np.ones(9), MANIFEST), path)
        assert np.array_equal(load_checkpoint(path).values, old.values)
        monkeypatch.undo()
        save_checkpoint(ParamVector(np.ones(9), MANIFEST), path)
        assert np.array_equal(load_checkpoint(path).values, np.ones(9))
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
