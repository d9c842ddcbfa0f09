import importlib
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from hapod.io import (
    MatrixFormatError,
    iter_columns,
    load_snapshots,
    read_floats,
    read_matrix,
    read_matrix_header,
    write_floats,
    write_matrix,
)

hio = importlib.import_module("hapod.io")
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
matrices = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=7),
                  elements=finite)


class TestBinaryRoundTrip:
    @settings(max_examples=40)
    @given(values=matrices)
    def test_bytes_survive(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("m") / "x.hpd"
        write_matrix(path, values)
        back, weights = read_matrix(path)
        assert weights is None
        assert back.shape == values.shape
        # tobytes comparison keeps signed zeros honest where == would not
        assert back.tobytes() == values.tobytes()

    def test_weighted_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((6, 4))
        w = rng.uniform(0.5, 2.0, 6)
        path = tmp_path / "w.hpd"
        write_matrix(path, values, weights=w)
        back, back_w = read_matrix(path)
        assert np.array_equal(back, values)
        assert np.array_equal(back_w, w)
        assert read_matrix_header(path) == (6, 4, True)

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "e.hpd"
        write_matrix(path, np.zeros((5, 0)))
        back, _ = read_matrix(path)
        assert back.shape == (5, 0)

    def test_header_without_payload_read(self, tmp_path):
        path = tmp_path / "h.hpd"
        write_matrix(path, np.ones((3, 2)))
        assert read_matrix_header(path) == (3, 2, False)


class TestChunkedWrite:
    def test_peak_stays_at_a_chunk(self, tmp_path):
        # a C-ordered 20000 x 400 matrix, 64 MB, goes to file order one
        # column chunk of about 1 MiB at a time, never copied whole
        values = np.random.default_rng(41).standard_normal((20000, 400))
        path = tmp_path / "big.hpd"
        tracemalloc.start()
        try:
            write_matrix(path, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert np.array_equal(load_snapshots(path).values, values)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_chunks_write_the_payload_bytes(self, tmp_path, monkeypatch, order):
        values = np.asarray(np.random.default_rng(43).standard_normal((7, 10)), order=order)
        values[0, 0] = -0.0
        monkeypatch.setattr(hio, "_WRITE_BYTES", 8 * 7 * 3)  # chunks of 3, 3, 3 and 1 columns
        path = tmp_path / "c.hpd"
        write_matrix(path, values)
        assert path.read_bytes()[-values.nbytes:] == values.tobytes(order="F")


class TestBinaryErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hpd"
        path.write_bytes(b"NOPE" + bytes(30))
        with pytest.raises(MatrixFormatError, match="magic"):
            read_matrix(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.hpd"
        write_matrix(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(MatrixFormatError, match="version"):
            read_matrix(path)

    def test_bad_weight_flag(self, tmp_path):
        path = tmp_path / "f.hpd"
        write_matrix(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[22] = 7  # the weight flag is the last byte of the 23-byte header
        path.write_bytes(bytes(raw))
        with pytest.raises(MatrixFormatError, match="weight flag 7"):
            read_matrix(path)

    @pytest.mark.parametrize("values, weights", [(np.ones(3), None), (np.ones((3, 2)), np.ones(2))],
                             ids=["one-dimensional", "weights-of-other-length"])
    def test_write_rejects_bad_shapes(self, tmp_path, values, weights):
        with pytest.raises(ValueError, match="2-d|weights shape"):
            write_matrix(tmp_path / "w.hpd", values, weights)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.hpd"
        write_matrix(path, np.ones((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "th.hpd"
        path.write_bytes(b"HP")
        with pytest.raises(MatrixFormatError):
            read_matrix_header(path)


class TestStreaming:
    def test_iter_columns_matches_full_read(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((8, 11))
        path = tmp_path / "s.hpd"
        write_matrix(path, values, weights=rng.uniform(1, 2, 8))
        for batch in (1, 3, 11, 20):
            got = np.hstack(list(iter_columns(path, batch=batch)))
            assert np.array_equal(got, values)

    def test_iter_columns_batch_shapes(self, tmp_path):
        path = tmp_path / "b.hpd"
        write_matrix(path, np.arange(12.0).reshape(3, 4))
        chunks = list(iter_columns(path, batch=3))
        assert [c.shape[1] for c in chunks] == [3, 1]

    def test_rejects_bad_batch(self, tmp_path):
        path = tmp_path / "z.hpd"
        write_matrix(path, np.ones((2, 2)))
        with pytest.raises(ValueError):
            list(iter_columns(path, batch=0))


class TestLoadSnapshots:
    def test_csv_equals_binary(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((5, 9))
        binary = tmp_path / "a.hpd"
        csv = tmp_path / "a.csv"
        write_matrix(binary, values)
        np.savetxt(csv, values, delimiter=",")
        a = load_snapshots(binary)
        b = load_snapshots(csv)
        assert np.allclose(a.values, b.values, rtol=0, atol=1e-15)
        assert a.space.weights is None

    def test_weighted_binary_builds_weighted_space(self, tmp_path):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.5, 3.0, 4)
        path = tmp_path / "w.hpd"
        write_matrix(path, rng.standard_normal((4, 6)), weights=w)
        block = load_snapshots(path)
        assert np.array_equal(block.space.weights, w)


def _mapped_from_file(a) -> bool:
    """Whether the array's memory belongs to an mmap rather than the heap."""
    while a is not None:
        if isinstance(a, mmap.mmap):
            return True
        a = getattr(a, "base", None)
    return False


class TestMappedLoad:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_values_are_a_read_only_map_of_the_file(self, tmp_path, weighted):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((7, 5))
        values[2, 3] = -0.0
        w = rng.uniform(0.5, 2.0, 7) if weighted else None
        path = tmp_path / "m.hpd"
        write_matrix(path, values, weights=w)
        block = load_snapshots(path)
        back, back_w = read_matrix(path)
        assert not block.values.flags.writeable
        assert _mapped_from_file(block.values)
        assert not _mapped_from_file(back)
        assert block.values.tobytes(order="F") == back.tobytes(order="F") == values.tobytes(order="F")
        if weighted:
            assert np.array_equal(block.space.weights, back_w)
        else:
            assert block.space.weights is None and back_w is None

    @pytest.mark.parametrize("trim, extra", [(8, b""), (0, bytes(8))])
    def test_payload_of_the_wrong_size(self, tmp_path, trim, extra):
        path = tmp_path / "p.hpd"
        write_matrix(path, np.ones((4, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - trim] + extra)
        with pytest.raises(MatrixFormatError, match="payload holds"):
            load_snapshots(path)

    def test_truncated_weight_vector(self, tmp_path):
        path = tmp_path / "w.hpd"
        write_matrix(path, np.zeros((5, 0)), weights=np.ones(5))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(MatrixFormatError, match="weight vector"):
            load_snapshots(path)

    def test_zero_columns(self, tmp_path):
        path = tmp_path / "z.hpd"
        write_matrix(path, np.zeros((6, 0)))
        block = load_snapshots(path)
        assert block.values.shape == (6, 0)
        assert block.count == 0


class TestFloatText:
    @settings(max_examples=40)
    @given(values=st.lists(finite, max_size=20))
    def test_round_trip_is_exact(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("f") / "v.txt"
        write_floats(path, np.array(values))
        back = read_floats(path)
        assert back.tobytes() == np.array(values, dtype=np.float64).tobytes()

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\nnot-a-float\n")
        with pytest.raises(ValueError, match=":2"):
            read_floats(path)
