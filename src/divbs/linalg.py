"""The feature matrix, the dependence tolerance, the integer rule and the
incremental orthonormal basis.

check_real is the one rule for the kind of a value array: FeatureMatrix's
features and select_top_score's scores that are not bool, integer or float
(complex, text, object) are refused, not cast.  FeatureMatrix is the one
place that rejects feature values, non-finite ones included.
check_eps is the one rule for a dependence tolerance, and check_int the one
rule for every integer argument with a lower bound (a selection budget and
seed, a basis dim, a kNN k, the toy's cluster counts, data seed and epochs,
the CLI's synthetic sizes and seed).
Everything here is double precision and deterministic: identical inputs
produce bitwise-identical outputs on the same platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

DEFAULT_EPS = 1e-10


def check_eps(eps):
    """Reject a dependence tolerance outside [0, 1), NaN included.  No row can
    clear an eps of 1 or more: a residual is never longer than its row, so
    ||r|| <= ||x|| <= eps * max(1, ||x||).  The bound also keeps the squared
    floors that the selectors compare against finite."""
    if not 0.0 <= eps < 1.0:
        raise ContractViolationError(f"eps must be in [0, 1), got {eps!r}")


def check_int(name, value, least):
    """Return value as a Python int, or refuse it: a bool and anything that
    is not an int or a numpy integer (a float, even 3.0, included), and an
    integer below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractViolationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ContractViolationError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_real(name, values):
    """Return values as an array, or refuse them when their dtype is not
    bool, integer or float: complex values would lose their imaginary parts
    in a float cast, text would be parsed and objects converted one by one."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ContractViolationError(
            f"{name} must be bool, integer or float, got dtype {values.dtype}"
        )
    return values


@dataclass
class FeatureMatrix:
    """N x D matrix of per-sample selection features, optionally labelled.

    values is row-major float64, one feature vector per row, cast from bool,
    integer or float values; values of any other dtype (complex, text,
    object) are refused instead of being cast.  row_labels,
    when present, assigns an integer group/class id to each row; it is
    stored as C-contiguous int32.  Integer and float labels are kept only if
    the int32 cast leaves every one of them unchanged, so a fractional,
    non-finite or out-of-range label is refused instead of being cut.  Labels
    of any other dtype (bool, text, object) are refused.
    """

    values: np.ndarray
    row_labels: np.ndarray | None = None

    def __post_init__(self):
        values = check_real("feature values", self.values)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ContractViolationError(
                f"feature values must be 2-D, got shape {self.values.shape}"
            )
        n, d = self.values.shape
        if n < 1 or d < 1:
            raise ContractViolationError(f"feature matrix must be at least 1x1, got {n}x{d}")
        if not np.isfinite(self.values).all():
            raise ContractViolationError("feature values contain NaN or Inf")
        if self.row_labels is not None:
            labels = np.asarray(self.row_labels)
            cast = None
            if labels.dtype.kind in "iuf":
                with np.errstate(invalid="ignore"):  # NaN, Inf, beyond int32
                    cast = labels.astype(np.int32, order="C", copy=False)
            if cast is None or not (cast == labels).all():
                raise ContractViolationError(
                    f"row_labels must be whole numbers that fit in int32, got dtype {labels.dtype}"
                )
            self.row_labels = cast
            if self.row_labels.shape != (n,):
                raise ContractViolationError(
                    f"row_labels length {self.row_labels.shape} does not match {n} rows"
                )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


class OrthonormalBasis:
    """Ordered set of pairwise-orthonormal unit vectors, grown incrementally.

    eps controls when a residual counts as zero: a candidate is considered
    linearly dependent when its residual norm is <= eps * max(1, ||v||);
    an eps outside [0, 1) is refused (check_eps).
    """

    def __init__(self, dim: int, eps: float = DEFAULT_EPS):
        self.dim = check_int("basis dim", dim, 1)
        check_eps(eps)
        self.eps = float(eps)
        self._size = 0
        self._store = np.empty((min(16, self.dim), self.dim), dtype=np.float64)

    def __len__(self) -> int:
        return self._size

    @property
    def vectors(self) -> np.ndarray:
        """Basis vectors as a read-only (size, dim) view."""
        view = self._store[: self._size]
        view.flags.writeable = False
        return view

    def residual(self, v) -> np.ndarray:
        """Component of v orthogonal to the current span.

        v is one vector or a stack of row vectors.  Projection is subtracted
        in two sweeps; the second sweep scrubs roundoff left by heavy
        cancellation when v is nearly in the span.
        """
        r = np.array(v, dtype=np.float64)
        if r.ndim not in (1, 2):
            raise ContractViolationError(f"expected a vector or rows, got shape {r.shape}")
        if r.shape[-1] != self.dim:
            raise ContractViolationError(
                f"vector length {r.shape[-1]} does not match basis dim {self.dim}"
            )
        if self._size:
            E = self._store[: self._size]
            rt = r.T  # a view: one vector, or the columns of a row stack
            rt -= E.T @ (E @ rt)
            rt -= E.T @ (E @ rt)
        return r

    def _append(self, e: np.ndarray):
        if self._size == self._store.shape[0]:
            grown = np.empty(
                (min(self.dim, max(2 * self._size, 1)), self.dim), dtype=np.float64
            )
            grown[: self._size] = self._store[: self._size]
            self._store = grown
        self._store[self._size] = e
        self._size += 1

    def extend(self, v) -> np.ndarray | None:
        """Append the normalized residual of v and return it, or return None
        when v is dependent: its residual norm is <= eps * max(1, ||v||), or
        the basis already spans every dimension."""
        if self._size >= self.dim:
            return None
        vv = np.asarray(v, dtype=np.float64)
        if vv.ndim != 1:
            raise ContractViolationError(f"expected a 1-D vector, got shape {vv.shape}")
        r = self.residual(vv)
        # sqrt(r . r) is how np.linalg.norm computes a real 1-D norm, bit for bit
        norm = math.sqrt(float(r.dot(r)))
        if norm <= self.eps * max(1.0, math.sqrt(float(vv.dot(vv)))):
            return None
        r /= norm
        self._append(r)
        return r
