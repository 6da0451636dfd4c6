"""Feature matrix file formats.

Binary layout: 8-byte magic "DIVBSFM1", n_rows and dim as unsigned 64-bit
little-endian, a has_labels byte, then the row-major float64 payload and,
when labelled, n_rows int32 labels, all little-endian.  The binary format
round-trips bit-exactly; CSV uses shortest-exact decimal rendering and
round-trips value-exactly.

CSV layout: a header line, then one line per row; a last header field named
"label" marks a label column.  The CSV reader handles only the format
(columns, numbers, line numbers): it reads every value, labels included,
as the nearest float64 and leaves each value rule to FeatureMatrix, which
refuses non-finite values and labels that the int32 cast would change.  A
refusal names the physical line that the refused record ends on (a quoted
field may span lines); for a value rule, that of the first row that
FeatureMatrix refuses on its own.

Every text input (a features CSV, a scores file, a selection file) is read
by read_text: its bytes are read once and decoded once as UTF-8, and a byte
that is not UTF-8 is refused with its byte offset.
"""
from __future__ import annotations

import csv
import io
import os
import struct

import numpy as np

from .errors import ContractViolationError, LoadError
from .linalg import FeatureMatrix

MAGIC = b"DIVBSFM1"
HEADER = struct.Struct("<8sQQB")  # 25 bytes


def atomic_write_bytes(path: str, *payloads):
    """Write the payloads (bytes-like, contiguous) one after another to a
    new temporary file .tmp-<random hex><basename> in path's directory, then
    rename it over path.  The temporary file is created with mode 0o666,
    which the kernel reduces by the umask, so path gets the mode that
    open(path, "w") gives a new file; the umask is never set to be read."""
    d, base = os.path.split(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}{base}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    # outside the try: a name that already exists is not this call's to unlink
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            for payload in payloads:
                f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def write_features_binary(matrix: FeatureMatrix, path: str):
    has_labels = matrix.row_labels is not None
    # the arrays go to the file as they are, without an intermediate bytes copy
    parts = [
        HEADER.pack(MAGIC, matrix.n_rows, matrix.dim, 1 if has_labels else 0),
        np.ascontiguousarray(matrix.values, dtype="<f8"),
    ]
    if has_labels:
        parts.append(np.ascontiguousarray(matrix.row_labels, dtype="<i4"))
    atomic_write_bytes(path, *parts)


def read_features_binary(path: str) -> FeatureMatrix:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(HEADER.size)
        if len(head) < HEADER.size:
            raise LoadError(f"{path}: truncated header at offset {len(head)}")
        magic, n_rows, dim, has_labels = HEADER.unpack(head)
        if magic != MAGIC:
            raise LoadError(f"{path}: bad magic at offset 0")
        if has_labels not in (0, 1):
            raise LoadError(f"{path}: invalid has_labels byte at offset 24")
        expected = HEADER.size + 8 * n_rows * dim + 4 * n_rows * has_labels
        if size != expected:
            raise LoadError(
                f"{path}: file length {size} does not match expected {expected} bytes"
            )
        if n_rows < 1 or dim < 1:
            raise LoadError(f"{path}: invalid shape {n_rows}x{dim} in header")
        values = np.fromfile(f, dtype="<f8", count=n_rows * dim).reshape(n_rows, dim)
        labels = np.fromfile(f, dtype="<i4", count=n_rows) if has_labels else None
    try:
        return FeatureMatrix(values, labels)
    except ContractViolationError:
        # the header checks above leave a non-finite value as the only thing
        # FeatureMatrix can reject; locate the first one only now
        bad = np.flatnonzero(~np.isfinite(values.ravel()))
        off = HEADER.size + 8 * int(bad[0])
        raise LoadError(f"{path}: non-finite value at byte offset {off}") from None


def write_features_csv(matrix: FeatureMatrix, path: str):
    header = [f"f{j}" for j in range(matrix.dim)]
    rows = [",".join(map(repr, row)) for row in matrix.values.tolist()]
    if matrix.row_labels is not None:
        header.append("label")
        rows = [f"{row},{label}" for row, label in zip(rows, matrix.row_labels.tolist())]
    atomic_write_text(path, "\n".join([",".join(header), *rows]) + "\n")


def read_text(path: str) -> str:
    """The file's bytes, read once and decoded once as UTF-8; a byte that is
    not UTF-8 raises LoadError naming its offset."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None


def read_scores(path: str) -> np.ndarray:
    """One float per line; blank lines are skipped and count as lines."""
    vals = []
    for lineno, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        if not line.strip():
            continue
        try:
            vals.append(float(line))
        except ValueError as exc:
            raise LoadError(f"{path}: bad score value at line {lineno}: {exc}") from None
    return np.array(vals)


def read_features_csv(path: str) -> FeatureMatrix:
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise LoadError(f"{path}: empty file at line 1")
        has_labels = bool(header) and header[-1].strip().lower() == "label"
        n_cols = len(header)
        dim = n_cols - 1 if has_labels else n_cols
        if dim < 1:
            raise LoadError(f"{path}: no feature columns at line 1")
        rows = []
        labels = []
        linenos = []
        for row in reader:
            if not row:
                continue
            # the physical line the record ends on
            lineno = reader.line_num
            if len(row) != n_cols:
                raise LoadError(f"{path}: expected {n_cols} columns at line {lineno}")
            try:
                rows.append([float(c) for c in row[:dim]])
            except ValueError as exc:
                raise LoadError(f"{path}: bad number at line {lineno}: {exc}") from None
            linenos.append(lineno)
            if has_labels:
                # read as every value is; FeatureMatrix decides what a label may be
                try:
                    labels.append(float(row[-1]))
                except ValueError:
                    raise LoadError(f"{path}: bad label at line {lineno}") from None
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise LoadError(f"{path}: {exc} at line {reader.line_num}") from None
    if not rows:
        raise LoadError(f"{path}: no data rows")
    values = np.array(rows)
    try:
        return FeatureMatrix(values, np.array(labels) if has_labels else None)
    except ContractViolationError:
        # every rule FeatureMatrix applies to a parsed file holds row by row:
        # the first row it refuses on its own names the line
        for i, lineno in enumerate(linenos):
            try:
                FeatureMatrix(values[i : i + 1], labels[i : i + 1] if has_labels else None)
            except ContractViolationError as exc:
                raise LoadError(f"{path}: {exc} at line {lineno}") from None
        raise


def read_features(path: str) -> FeatureMatrix:
    """Load a feature file, sniffing binary vs CSV by the magic bytes."""
    with open(path, "rb") as f:
        head = f.read(len(MAGIC))
    if head == MAGIC:
        return read_features_binary(path)
    return read_features_csv(path)


def write_features(matrix: FeatureMatrix, path: str, fmt: str | None = None):
    """Write a feature file; fmt defaults to csv for .csv paths, else binary."""
    if fmt is None:
        fmt = "csv" if path.lower().endswith(".csv") else "binary"
    if fmt == "csv":
        write_features_csv(matrix, path)
    elif fmt == "binary":
        write_features_binary(matrix, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
