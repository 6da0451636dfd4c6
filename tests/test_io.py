import os
import stat
import struct

import numpy as np
import pytest

from divbs.errors import LoadError
from divbs.featfile import (
    HEADER,
    MAGIC,
    read_features,
    read_features_binary,
    read_features_csv,
    read_scores,
    write_features,
    write_features_binary,
    write_features_csv,
)
from divbs.linalg import FeatureMatrix


def random_matrix(rng, n, d, labelled):
    labels = rng.integers(0, 4, size=n).astype(np.int32) if labelled else None
    return FeatureMatrix(rng.standard_normal((n, d)), labels)


class TestBinaryFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        fm = FeatureMatrix(np.array([[1.0, 2.0], [3.5, -0.25], [1e-300, 1e300]]))
        path = str(tmp_path / "m.bin")
        write_features_binary(fm, path)
        back = read_features_binary(path)
        assert back.values.tobytes() == fm.values.tobytes()
        assert back.row_labels is None

    def test_roundtrip_with_labels(self, tmp_path):
        rng = np.random.default_rng(50)
        fm = random_matrix(rng, 7, 3, labelled=True)
        path = str(tmp_path / "m.bin")
        write_features_binary(fm, path)
        back = read_features_binary(path)
        assert back.values.tobytes() == fm.values.tobytes()
        np.testing.assert_array_equal(back.row_labels, fm.row_labels)

    def test_labelled_file_bytes(self, tmp_path):
        fm = random_matrix(np.random.default_rng(51), 5, 3, labelled=True)
        path = tmp_path / "m.bin"
        write_features_binary(fm, str(path))
        head = HEADER.pack(MAGIC, 5, 3, 1)
        assert path.read_bytes() == head + fm.values.tobytes() + fm.row_labels.tobytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 17)
        with pytest.raises(LoadError, match="offset 0"):
            read_features_binary(str(path))

    @pytest.mark.parametrize(
        "data, message",
        [
            (MAGIC + b"\x00" * 5, "truncated header at offset 13"),
            (HEADER.pack(MAGIC, 1, 1, 2) + b"\x00" * 8, "invalid has_labels byte at offset 24"),
            (HEADER.pack(MAGIC, 0, 3, 0), "invalid shape 0x3 in header"),
        ],
        ids=["truncated-header", "has-labels-2", "zero-rows"],
    )
    def test_bad_header(self, tmp_path, data, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        with pytest.raises(LoadError, match=message):
            read_features_binary(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.bin"
        header = struct.pack("<8sQQB", MAGIC, 3, 2, 0)
        path.write_bytes(header + b"\x00" * 8)  # 40 payload bytes missing
        with pytest.raises(LoadError, match="length"):
            read_features_binary(str(path))

    def test_non_finite_payload_offset(self, tmp_path):
        path = tmp_path / "nan.bin"
        header = struct.pack("<8sQQB", MAGIC, 1, 2, 0)
        payload = np.array([[1.0, np.nan]]).tobytes()
        path.write_bytes(header + payload)
        with pytest.raises(LoadError, match="offset 33"):
            read_features_binary(str(path))

    def test_toy_scale_file_size(self, tmp_path):
        rng = np.random.default_rng(51)
        fm = FeatureMatrix(rng.standard_normal((1470, 404)))
        path = tmp_path / "big.bin"
        write_features_binary(fm, str(path))
        assert path.stat().st_size == 25 + 8 * 1470 * 404
        assert path.stat().st_size == 4_751_065


class TestCsvFormat:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(52)
        fm = random_matrix(rng, 9, 4, labelled=False)
        path = str(tmp_path / "m.csv")
        write_features_csv(fm, path)
        back = read_features_csv(path)
        np.testing.assert_array_equal(back.values, fm.values)

    def test_file_text(self, tmp_path):
        """Shortest round-tripping repr for every value, signed zero and
        subnormals included, and labels at both ends of int32."""
        values = np.array([[-0.0, 5e-324, 1e16], [1e300, 0.1, 2.0]])
        fm = FeatureMatrix(values, np.array([-2147483648, 2147483647]))
        path = tmp_path / "m.csv"
        write_features_csv(fm, str(path))
        assert path.read_text() == (
            "f0,f1,f2,label\n-0.0,5e-324,1e+16,-2147483648\n1e+300,0.1,2.0,2147483647\n"
        )

    def test_label_column_detected(self, tmp_path):
        rng = np.random.default_rng(53)
        fm = random_matrix(rng, 5, 2, labelled=True)
        path = str(tmp_path / "m.csv")
        write_features_csv(fm, path)
        back = read_features_csv(path)
        np.testing.assert_array_equal(back.row_labels, fm.row_labels)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\nx,3.0\n")
        with pytest.raises(LoadError, match="line 3"):
            read_features_csv(str(path))

    def test_label_outside_int32_names_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("f0,label\n1.0,2147483647\n\n2.0,3000000000\n")
        with pytest.raises(LoadError, match="line 4$"):
            read_features_csv(str(path))

    def test_non_finite_names_line(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("f0\n1.0\ninf\n")
        with pytest.raises(LoadError, match="line 3"):
            read_features_csv(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file at line 1$"),
            ("label\n1\n", "no feature columns at line 1$"),
            ("f0,f1\n1.0,2.0\n3.0\n", "expected 2 columns at line 3$"),
            ("f0,label\n1.0,x\n", "bad label at line 2$"),
            ("f0,f1\n\n", "no data rows$"),
            ("f0,f1\n1.0,2.0\n\n" + "1" * 131_073 + ",2.0\n", "field limit.* at line 4$"),
        ],
        ids=["empty", "label-only", "short-row", "bad-label", "header-only", "oversized-field"],
    )
    def test_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(LoadError, match=message):
            read_features_csv(str(path))

    def test_non_finite_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("f0,f1\n\n1.0,2.0\n\n\n3.0,4.0\n5.0,nan\n")
        with pytest.raises(LoadError, match="line 7$"):
            read_features_csv(str(path))

    def test_whole_float_labels_read_as_int32(self, tmp_path):
        """Labels are read as floats, as every value is; FeatureMatrix keeps
        those that the int32 cast leaves unchanged."""
        path = tmp_path / "m.csv"
        path.write_text("f0,label\n1.0,2.0\n2.0,1e3\n")
        labels = read_features_csv(str(path)).row_labels
        assert labels.dtype == np.int32 and labels.tolist() == [2, 1000]

    @pytest.mark.parametrize("label", ["2.5", "nan", "inf", "-2147483649"])
    def test_label_refused_by_feature_matrix_names_line(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,label\n\n1.0,1\n\n2.0,{label}\n")
        with pytest.raises(LoadError, match="whole numbers.*int32.* at line 5$"):
            read_features_csv(str(path))


    def test_quoted_newline_names_physical_line(self, tmp_path):
        """A quoted field may hold a newline: the record after it starts on
        line 4, not on the third record's line 3."""
        path = tmp_path / "quoted.csv"
        path.write_text('f0,f1\n"1.0\n",2.0\nx,3\n')
        with pytest.raises(LoadError, match="bad number at line 4: "):
            read_features_csv(str(path))

    @pytest.mark.parametrize(
        "text, values, labels",
        [
            ("f0,f1\n0.1,-2.5e-300\n\n1e300,-0.0\n", [[0.1, -2.5e-300], [1e300, -0.0]], None),
            ("f0,label\n5e-324,7\n-3.25,-2147483648\n", [[5e-324], [-3.25]], [7, -2147483648]),
            ("f0,f1\r\n1.5,2\r\n\r\n-7,0.3\r\n", [[1.5, 2.0], [-7.0, 0.3]], None),
        ],
        ids=["unlabelled", "labelled", "crlf"],
    )
    def test_parsed_values_and_labels(self, tmp_path, text, values, labels):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        fm = read_features_csv(str(path))
        assert [[v.hex() for v in row] for row in fm.values.tolist()] == [
            [float(v).hex() for v in row] for row in values
        ]
        assert (None if fm.row_labels is None else fm.row_labels.tolist()) == labels


class TestScoresFormat:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_bytes(b"\n0.1\r\n\n  -2e-310 \n\n1e300\n\n")
        scores = read_scores(str(path))
        assert scores.dtype == np.float64
        assert [v.hex() for v in scores.tolist()] == [v.hex() for v in (0.1, -2e-310, 1e300)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_bad_value_line_counts_blank_lines(self, tmp_path, newline):
        path = tmp_path / "scores.txt"
        path.write_bytes(newline.join(["1.0", "", "2.0", "", "x", ""]).encode("utf-8"))
        with pytest.raises(LoadError, match="bad score value at line 5: "):
            read_scores(str(path))


class TestSniffing:
    def test_read_features_dispatch(self, tmp_path):
        rng = np.random.default_rng(54)
        fm = random_matrix(rng, 4, 3, labelled=False)
        bin_path = str(tmp_path / "m.bin")
        csv_path = str(tmp_path / "m.csv")
        write_features_binary(fm, bin_path)
        write_features_csv(fm, csv_path)
        np.testing.assert_array_equal(read_features(bin_path).values, fm.values)
        np.testing.assert_array_equal(read_features(csv_path).values, fm.values)

    def test_not_utf8_without_magic_names_byte_offset(self, tmp_path):
        """A binary file with the wrong magic goes to the CSV reader; the
        first byte that is not UTF-8 is the 0xf0 in the payload's 1.0."""
        path = tmp_path / "m.bin"
        path.write_bytes(HEADER.pack(b"DIVBSFM0", 1, 1, 0) + np.float64(1.0).tobytes())
        with pytest.raises(LoadError, match="not UTF-8 text at byte offset 31$"):
            read_features(str(path))


class TestWriteFeatures:
    FM = FeatureMatrix(np.array([[1.0, -2.5], [0.5, 3.0]]))

    @pytest.mark.parametrize(
        "name, fmt, binary",
        [
            ("m.csv", None, False),
            ("m.CSV", None, False),
            ("m.bin", None, True),
            ("m", None, True),
            ("m.csv", "binary", True),
            ("m.bin", "csv", False),
        ],
    )
    def test_format_from_suffix_or_fmt(self, tmp_path, name, fmt, binary):
        path = tmp_path / name
        write_features(self.FM, str(path), fmt)
        assert path.read_bytes().startswith(MAGIC) == binary
        if not binary:
            assert path.read_text() == "f0,f1\n1.0,-2.5\n0.5,3.0\n"
        np.testing.assert_array_equal(read_features(str(path)).values, self.FM.values)

    def test_unknown_format_refused(self, tmp_path):
        path = tmp_path / "m.parquet"
        with pytest.raises(ValueError, match="unknown format 'parquet'"):
            write_features(self.FM, str(path), "parquet")
        assert not path.exists()


class TestFileMode:
    """A written file gets the mode that open(path, "w") gives a new file,
    0o666 less the umask, and keeps it when it is written over."""

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    @pytest.mark.parametrize("name", ["m.bin", "m.csv"])
    def test_mode_follows_umask(self, tmp_path, set_umask, name, mask, mode):
        set_umask(mask)
        path = tmp_path / name
        write_features(TestWriteFeatures.FM, str(path))
        assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize("name", ["m.bin", "m.csv"])
    def test_umask_is_not_set_to_be_read(self, tmp_path, set_umask, monkeypatch, name):
        """Setting the umask to read it would give 0o600 to a file that
        another thread of the process creates meanwhile."""
        set_umask(0o022)

        def refuse(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        monkeypatch.setattr(os, "umask", refuse)
        path = tmp_path / name
        write_features(TestWriteFeatures.FM, str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert os.listdir(tmp_path) == [name]

    def test_overwrite_keeps_plain_open_mode(self, tmp_path, set_umask):
        set_umask(0o022)
        path = tmp_path / "m.bin"
        path.write_bytes(b"old")
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        write_features(TestWriteFeatures.FM, str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert os.listdir(tmp_path) == ["m.bin"]
