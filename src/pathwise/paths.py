"""Sampled paths on dyadic time grids.

Every path handled by this package lives on the uniform grid
``t_k = k * T / 2**n_max`` for ``k = 0, ..., 2**n_max``.  Coarser partition
levels are index subsets of that grid, which keeps every partition sum an
exact rearrangement of grid values.  Brownian motion (H = 1/2) has
independent steps, so its N = 2**n_max normals are drawn straight into
the path, the only array it holds (N + 1 floats); its bytes changed when
H = 1/2 stopped going through the embedding below, its law did not.
Fractional Brownian motion with any other H is sampled by circulant
embedding of the fractional Gaussian noise covariance (Davies & Harte
1987; Wood & Chan 1994): the 2N-point circulant whose first row is
gamma(0), ..., gamma(N), gamma(N - 1), ..., gamma(1).  That row is real
and symmetric, so its spectrum is real and half of it, N + 1 points,
determines the rest.  At every n_max it is the blocked half-length
transform below, of the autocovariance read as a real half-spectrum, and
its last eigenvalue an alternating sum, computed once per (H, N) in one
(N + 1)-point complex buffer that is then shrunk to the N + 1 roots.
The noise is the first N points of the real inverse transform of a
path's (N + 1)-point complex half-spectrum: below n_max = 17 numpy's
irfft computes all 2N of them, with scratch of its own (numpy < 2 also
pads the half-spectrum to a 2N-point complex array first); from
n_max = 17 on the blocked half-length transform computes only the N it
keeps, in place in the half-spectrum's buffer and blocks of at most 8,192
entries.  The running sum of the noise is taken in that buffer (or in
irfft's output), one float to the right, which is then shrunk to the
N + 1 samples and becomes the path without a copy.  So the working set
is that buffer (2N + 2 floats) and the cached roots (N + 1).  The bytes
of paths with n_max >= 17 changed when that route came in, and the last
bits of every fBM path with H != 1/2 when the spectrum took it; their
law did not, and generation is still a pure function of (spec, seed).
The embedding is nonnegative definite for every H in (0, 1) (Dietrich &
Newsam 1997; Craigmile 2003); should rounding ever make it indefinite,
generation fails with a GenerationError.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._util import Table, write_csv
from .errors import GenerationError, IngestionError, ParameterError

__all__ = [
    "SampledPath",
    "PathSpec",
    "generate",
    "range_anchors",
    "running_extrema",
    "write_path_csv",
]

PATH_KINDS = ("fbm", "bm", "linear", "triangle", "constant", "csv")


@dataclass(frozen=True)
class SampledPath:
    """A continuous path sampled on the dyadic grid of ``[0, T]``.

    Parameters
    ----------
    T : float
        Time horizon, strictly positive.
    n_max : int
        Resolution exponent; the grid has ``2**n_max + 1`` points.
    values : np.ndarray
        Path samples, one per grid point, all finite.
    metadata : dict
        Free-form provenance (generator kind, seed, Hurst index, resampling
        notes).  Not used by numerical routines except where documented.
    """

    T: float
    n_max: int
    values: np.ndarray
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        self._keep(np.array(self.values, dtype=float))

    @classmethod
    def _taking(cls, values: np.ndarray, **fields) -> "SampledPath":
        """A path whose samples are ``values`` itself, not a copy: for a
        new float array that nothing else refers to, as :func:`generate`
        makes."""
        path = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(path, name, value)
        path._keep(values)
        return path

    def _keep(self, vals: np.ndarray) -> None:
        """Check the fields and keep ``vals``, the path's own array, as its
        read-only samples."""
        if self.T <= 0:
            raise ParameterError(f"T must be positive, got {self.T}")
        if self.n_max < 1:
            raise ParameterError(f"n_max must be >= 1, got {self.n_max}")
        expected = 2**self.n_max + 1
        if vals.ndim != 1 or vals.size != expected:
            raise ParameterError(
                f"values must have 2**n_max + 1 = {expected} entries, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise GenerationError("path contains non-finite samples")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_samples(self) -> int:
        return self.values.size

    @property
    def dt(self) -> float:
        return self.T / 2**self.n_max

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_samples)


@dataclass(frozen=True)
class PathSpec:
    """Recipe for constructing a :class:`SampledPath`.

    ``kind`` selects the generator: ``fbm`` (needs ``hurst``), ``bm``
    (Brownian motion, equivalent to ``fbm`` with ``hurst=0.5``), ``linear``
    (``slope``), ``triangle`` (``peak_time``, ``peak_value``), ``constant``
    (``value``) and ``csv`` (``file``).  ``seed`` feeds a counter-based
    Philox stream, so generation is a deterministic function of
    ``(spec, seed)`` and is safe to replicate across workers.
    """

    kind: str
    T: float = 1.0
    n_max: int = 10
    seed: int = 0
    hurst: Optional[float] = None
    slope: float = 1.0
    peak_time: float = 0.5
    peak_value: float = 1.0
    value: float = 0.0
    file: Optional[str] = None

    def __post_init__(self):
        if self.kind not in PATH_KINDS:
            raise ParameterError(f"unknown path kind {self.kind!r}; expected one of {PATH_KINDS}")
        if self.kind == "fbm":
            if self.hurst is None or not (0.0 < self.hurst < 1.0):
                raise ParameterError(f"fbm requires hurst in (0, 1), got {self.hurst}")
        if self.kind == "csv" and not self.file:
            raise ParameterError("csv path kind requires a file")
        if self.n_max < 1:
            raise ParameterError(f"n_max must be >= 1, got {self.n_max}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a Philox key in [0, 2**64), got {self.seed}")

    def effective_hurst(self) -> Optional[float]:
        if self.kind == "fbm":
            return self.hurst
        if self.kind == "bm":
            return 0.5
        return None

    def warn_if_hurst_mismatch(self, p: int) -> None:
        """Warn when a variation order p is used with an fBM whose Hurst
        index is not 1/p; the p-th variation limit then degenerates."""
        h = self.effective_hurst()
        if h is not None and not math.isclose(h, 1.0 / p, rel_tol=1e-12):
            warnings.warn(
                f"path has Hurst index {h} but order p={p}; finite nontrivial "
                f"p-th variation requires H = 1/p = {1.0 / p}",
                stacklevel=2,
            )


def _rng_for(seed: int) -> np.random.Generator:
    # Philox is counter-based: streams derived from the key replay
    # identically regardless of how work is split across workers.
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# fBM noise for n_max >= _BLOCKED_N_MAX comes from _irfft_head, in place
# in its (N + 1)-point complex buffer; numpy's irfft, 2-3x faster below
# it, holds a 2N-point output and scratch.  The spectrum takes _irfft_head
# at every size.  Every block of generation (lags of the autocovariance,
# the transform's packing, columns, rows and transposed tiles) holds at
# most _FFT_BLOCK entries
_BLOCKED_N_MAX = 17
_FFT_BLOCK = 1 << 13

# lags from _SERIES_FROM on take the binomial series, truncated after
# _SERIES_TERMS terms: the rest is below 64**-10 < 1e-18 of the sum
_SERIES_FROM = 8
_SERIES_TERMS = 10


def _fgn_autocov(H: float, out: np.ndarray) -> np.ndarray:
    """Autocovariance gamma(0), ..., gamma(out.size - 1) of unit-step
    fractional Gaussian noise, gamma(k) = ((k+1)**2H - 2 k**2H +
    |k-1|**2H) / 2, written into ``out`` (a float array or view, strided
    or not) and returned, to a few ulps relative for every H in (0, 1),
    except at lags 2 to 7 near H = 1/2 (below).

    The second difference cancels: its terms are about k**2H, its value
    about H (2H - 1) k**(2H - 2).  So gamma(1) is taken as
    expm1((2H - 1) log 2), and gamma(k) for 2 <= k < _SERIES_FROM as
    k**2H (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))) / 2, which
    cancels at most about k / |2H - 1| ulps: a relative error of 1.4e-12
    at H = 0.5005, yet below 2e-16 in absolute terms, against
    gamma(0) = 1.  From _SERIES_FROM on it is the series k**2H sum_j
    C(2H, 2j) k**(-2j), whose terms all have the sign of the first, so
    nothing cancels.  The series runs over ``_FFT_BLOCK`` lags at a time,
    in two contiguous arrays of that many floats, so its bytes do not
    depend on the blocking or on out's strides.
    """
    a = 2.0 * H
    n_lags = out.size
    out[:1] = 1.0
    out[1:2] = math.expm1((a - 1.0) * math.log(2.0))
    small = np.arange(2.0, min(n_lags, _SERIES_FROM))
    out[2 : small.size + 2] = 0.5 * small**a * (
        np.expm1(a * np.log1p(1.0 / small)) + np.expm1(a * np.log1p(-1.0 / small))
    )
    coeffs = [a * (a - 1.0) / 2.0]  # C(a, 2j) for j = 1, 2, ...
    for j in range(1, _SERIES_TERMS):
        coeffs.append(coeffs[-1] * (a - 2 * j) * (a - 2 * j - 1) / ((2 * j + 1) * (2 * j + 2)))
    for s in range(_SERIES_FROM, n_lags, _FFT_BLOCK):
        y = np.arange(s, min(s + _FFT_BLOCK, n_lags), dtype=float)
        np.power(y, -2.0, out=y)
        g = np.full(y.size, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            g *= y
            g += c
        g *= y
        g *= np.power(y, -H, out=y)  # y**-H = k**2H
        out[s : s + y.size] = g
    return out


def _circulant_eigs(H: float, N: int) -> np.ndarray:
    """The eigenvalues 0..N of the 2N-point circulant embedding of the fGn
    covariance; eigenvalue 2N - k equals eigenvalue k.

    Eigenvalue k is ``gamma_0 + (-1)**k gamma_N + 2 sum_j gamma_j
    cos(pi j k / N)`` over j = 1..N-1.  Read as a real half-spectrum, the
    autocovariance gives eigenvalues 0..N-1 as ``2N irfft(gamma, 2N)[:N]``
    and eigenvalue N (N is even) as the alternating sum ``gamma_0 +
    gamma_N + 2 sum_j (-1)**j gamma_j``.  The autocovariance is written
    into the real part of one (N + 1)-point complex buffer, which
    :func:`_irfft_head` transforms in place; the buffer is then shrunk to
    the N + 1 eigenvalues, an array that owns it, and no 2N-point row or
    transform is held.  Where numpy refuses to shrink it (see
    :func:`_fbm_values`), the eigenvalues are copied out instead.
    """
    eigs = np.empty(2 * N + 2)
    z = eigs.view(complex)
    z.imag = 0.0
    gamma = _fgn_autocov(H, z.real)
    last = gamma[0] + gamma[N] + 2.0 * (np.sum(gamma[2:N:2]) - np.sum(gamma[1:N:2]))
    del gamma
    head = _irfft_head(z)
    head *= 2 * N
    del head, z
    eigs[N] = last
    try:
        eigs.resize(N + 1)
    except ValueError:
        eigs = eigs[: N + 1].copy()
    return eigs


# acceptance generates on two (H, N), a run on one; each is 32 MiB at n_max 22
@lru_cache(maxsize=2)
def _circulant_sqrt_eigs(H: float, N: int) -> np.ndarray:
    """Square roots of :func:`_circulant_eigs`, in its buffer (read-only,
    shared by every path with this (H, N)).

    Raises GenerationError if the embedding is not nonnegative definite.
    """
    root = _circulant_eigs(H, N)
    tol = 1e-12 * max(root.max(), 1.0)
    if root.min() < -tol:
        raise GenerationError(
            f"fbm with hurst={H} on {N} steps: the circulant embedding is not nonnegative "
            f"definite (smallest eigenvalue {root.min():.3g})"
        )
    np.clip(root, 0.0, None, out=root)
    np.sqrt(root, out=root)
    root.flags.writeable = False
    return root


def _fgn_davies_harte(H: float, N: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-step fractional Gaussian noise of length N: the first N floats
    of the returned array, which owns its buffer of at least N + 1 floats.

    The half-spectrum of 2N-point Hermitian noise is drawn into one
    (N + 1)-point complex buffer: real normals at 0 and N, and complex
    normals of unit variance, (real, imaginary) pairs in stream order,
    between them.  Scaled by the root of the spectrum, the first N points
    of its real inverse transform are the noise: from numpy's ``irfft``
    below ``N = 2**_BLOCKED_N_MAX``, the head of its 2N-point output, and
    from there on from :func:`_irfft_head`, in the half-spectrum's buffer.
    """
    root = _circulant_sqrt_eigs(H, N)
    buf = np.empty(2 * N + 2)
    z = buf.view(complex)
    z[0] = rng.standard_normal()
    z[N] = rng.standard_normal()
    normals = buf[2 : 2 * N]
    rng.standard_normal(out=normals)
    normals *= 1 / np.sqrt(2.0)
    z *= root
    if N < 1 << _BLOCKED_N_MAX:
        buf = np.fft.irfft(z, n=2 * N)
    else:
        _irfft_head(z)
    del z
    buf[:N] *= np.sqrt(2 * N)
    return buf


@lru_cache(maxsize=8)
def _unit_root_tables(N: int) -> Tuple[int, np.ndarray, np.ndarray]:
    """``(s, hi, lo)`` with ``w**j = hi[j >> s] * lo[j % 2**s]`` for
    ``w = exp(i pi / N)`` and ``0 <= j < 2N``: about sqrt(2N) entries
    each, from ``math.cos`` and ``math.sin``, whose values do not depend
    on numpy's CPU dispatch."""
    s = (N.bit_length() + 1) // 2

    def roots(js):
        return np.array([complex(math.cos(math.pi * j / N), math.sin(math.pi * j / N)) for j in js])

    return s, roots(range(0, 2 * N, 1 << s)), roots(range(1 << s))


def _unit_roots(j: np.ndarray, N: int) -> np.ndarray:
    """``exp(i pi j / N)`` for integers ``0 <= j < 2N``."""
    s, hi, lo = _unit_root_tables(N)
    out = hi[j >> s]
    _multiply(out, lo[j & ((1 << s) - 1)])
    return out


def _multiply(a: np.ndarray, b: np.ndarray) -> None:
    """``a *= b`` for complex arrays in separate real multiplies and adds:
    numpy's complex loop fuses them where the CPU has FMA, so its bytes
    depend on the CPU."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    re = ar * br
    t = ai * bi
    re -= t
    np.multiply(ar, bi, out=t)
    np.multiply(ai, br, out=ai)
    ai += t
    ar[...] = re


def _irfft_head(z: np.ndarray) -> np.ndarray:
    """``np.fft.irfft(z, n=2 * N)[:N]`` for a half-spectrum ``z`` of
    N + 1 points, N = 2**n with n >= 1, computed in place in blocks of at
    most ``_FFT_BLOCK`` entries: the result is the first N floats of
    ``z``'s buffer, returned as a view, and the rest of z is overwritten.

    The 2N outputs x pair up as ``y_m = x_2m + i x_2m+1``, the inverse
    transform of length N of ``C_k = E_k + i w**k D_k`` with
    ``E_k = z_k + conj(z_N-k)``, ``D_k = z_k - conj(z_N-k)`` and
    ``w = exp(i pi / N)``; ``C_N-k = conj(E_k - i w**k D_k)``, so each
    pair (k, N - k) is packed in place together.  Only ``y_m`` for
    m < N/2 is kept.  With ``N = n1 n2``, n1 the power of two nearest
    sqrt(N) from below but at least 2, ``k = k1 + n1 k2`` and
    ``m = m2 + n2 m1``, that is Bailey's four-step transform ("FFTs in
    external or hierarchical memory", 1990) on the (n2, n1) view of C:
    inverse transforms of length n2 down its columns, each entry then
    turned by ``w**(2 k1 m2)``, and inverse transforms of length n1 along
    its rows, in place.  Entry (m2, m1) of the view is then y_m, so its
    first n1/2 columns, transposed, are the result: each n1 x n1 square of
    the view (one, or two stacked where n2 = 2 n1) is transposed that far
    in place (:func:`_transpose_head`), and two squares' first n1/2 rows
    are then interleaved, from the last down, so that no row is
    overwritten before it is moved.  Every complex product goes through
    :func:`_multiply`, so the bytes do not depend on numpy's CPU dispatch.
    """
    N = z.size - 1
    n1 = max(2, 1 << (N.bit_length() - 1) // 2)
    n2 = N // n1
    half = N // 2
    z.imag[[0, N]] = 0.0  # as irfft reads z_0 and z_N
    for a in range(0, half + 1, _FFT_BLOCK):
        b = min(a + _FFT_BLOCK, half + 1)
        lo, hi = z[a:b], z[N - b + 1 : N - a + 1][::-1]
        e = lo + hi.conj()
        d = lo - hi.conj()
        _multiply(d, _unit_roots(np.arange(a + half, b + half), N))  # i w**k = w**(k + N/2)
        np.add(e, d, out=lo)
        np.subtract(e, d, out=e)
        np.conjugate(e, out=hi)
    grid = z[:N].reshape(n2, n1)
    m2 = np.arange(n2)[:, None]
    cols = max(1, _FFT_BLOCK // n2)
    for c in range(0, n1, cols):
        block = np.fft.ifft(grid[:, c : c + cols], axis=0, norm="forward")
        _multiply(block, _unit_roots(2 * m2 * np.arange(c, min(c + cols, n1)), N))
        grid[:, c : c + cols] = block
    rows = max(1, _FFT_BLOCK // n1)
    for r in range(0, n2, rows):
        grid[r : r + rows] = np.fft.ifft(grid[r : r + rows], axis=1, norm="forward")
    for s in range(0, n2 - n1 + 1, n1):  # none where n2 = 1 < n1 = 2
        _transpose_head(grid[s : s + n1])
    if n2 > n1:
        for m in range(n1 // 2 - 1, -1, -1):
            grid[2 * m + 1] = grid[n1 + m]
            grid[2 * m] = grid[m]
    out = z.view(float)[:N]
    out *= 0.5 / N
    return out


def _transpose_head(sq: np.ndarray) -> None:
    """Write the first h = n/2 columns of an n x n array, transposed, into
    its first h rows, in place, by tiles of at most ``_FFT_BLOCK``
    entries: the top left h x h quadrant is transposed by swapping tiles
    across its diagonal, and the top right one is overwritten by the
    bottom left one, transposed."""
    h = sq.shape[0] // 2
    b = min(h, 1 << (_FFT_BLOCK.bit_length() - 1) // 2)
    for i in range(0, h, b):
        tile = sq[i : i + b, i : i + b]
        tile[...] = tile.T.copy()
        for j in range(i + b, h, b):
            upper, lower = sq[i : i + b, j : j + b], sq[j : j + b, i : i + b]
            kept = upper.copy()
            upper[...] = lower.T
            lower[...] = kept.T
        for j in range(h, 2 * h, b):
            sq[i : i + b, j : j + b] = sq[j : j + b, i : i + b].T


def _fbm_values(H: float, T: float, n_max: int, seed: int) -> Tuple[np.ndarray, bool]:
    """The N + 1 samples of an fBM path, and whether they had to be copied
    out of the buffer they were made in.

    numpy refuses to shrink a buffer while anything else refers to it,
    which keeps a view from outliving it.  A profiler does: each C call is
    reported with its bound method (``buf.resize``, which refers to
    ``buf``), and Python 3.11 keeps that alive for the whole call.  So does
    a trace function written in Python on Python < 3.13, which copies each
    frame's locals.  The samples are then copied out, with the same bytes.
    """
    N = 2**n_max
    rng = _rng_for(seed)
    if H == 0.5:
        # the fGn covariance is the identity (gamma(k) = 0 for k >= 1):
        # the normals are the noise, drawn straight into the path
        buf = np.empty(N + 1)
        rng.standard_normal(out=buf[:N])
    else:
        buf = _fgn_davies_harte(H, N, rng)
    # the path is the running sum of the scaled steps, moved one float to
    # the right (a same-direction 1-D copy, which numpy makes without a
    # temporary); cumsum copies its first step, so -0.0 is kept
    buf[:N] *= (T / N) ** H
    np.cumsum(buf[:N], out=buf[:N])
    buf[1 : N + 1] = buf[:N]
    buf[0] = 0.0
    try:
        buf.resize(N + 1)
    except ValueError:
        return buf[: N + 1].copy(), True
    return buf, False


def _read_csv_path(file: str, T: float, n_max: int) -> Tuple[np.ndarray, dict]:
    try:
        with open(file, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["t", "value"]:
                got = "no header" if header is None else f"got {','.join(header)!r}"
                raise IngestionError(f"{file}: expected header 't,value', {got}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise IngestionError(f"{file}:{lineno}: ragged row {row!r}")
                try:
                    t, v = float(row[0]), float(row[1])
                except ValueError as exc:
                    raise IngestionError(f"{file}:{lineno}: {exc}") from exc
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise IngestionError(f"{file}:{lineno}: non-finite sample {row!r}")
                rows.append((t, v))
    except OSError as exc:
        raise IngestionError(f"cannot read {file}: {exc}") from exc
    if len(rows) < 2:
        raise IngestionError(f"{file}: need at least two samples")
    t = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    if np.any(np.diff(t) <= 0):
        raise IngestionError(f"{file}: times must be strictly increasing")
    if t[0] != 0.0:
        raise IngestionError(f"{file}: first time must be 0, got {t[0]}")
    if not math.isclose(t[-1], T, rel_tol=1e-9, abs_tol=1e-12):
        raise IngestionError(f"{file}: last time must equal T={T}, got {t[-1]}")
    grid = np.linspace(0.0, T, 2**n_max + 1)
    resampled = np.interp(grid, t, v)
    meta = {
        "kind": "csv",
        "file": file,
        "source_points": len(rows),
        "resampled_to": 2**n_max + 1,
        "resampling": "linear interpolation onto the dyadic grid",
    }
    return resampled, meta


def generate(spec: PathSpec) -> SampledPath:
    """Construct the path described by ``spec``.

    Deterministic in ``(spec, seed)``.  fBM is scaled so that
    ``Var(S(t)) = t**(2H)``.  At H = 1/2 (``bm``, or ``fbm`` with
    ``hurst=0.5``) the N = 2**n_max steps are i.i.d. N(0, T / N) normals
    drawn directly into the returned path of N + 1 samples, and nothing
    else is held.  Any other H uses circulant embedding of the fractional
    Gaussian noise covariance: once per (H, N), the autocovariance is
    written into an (N + 1)-point complex buffer, transformed there and
    the buffer shrunk to the N + 1 roots of the spectrum, cached for the
    last two (H, N) (:func:`_circulant_sqrt_eigs`); then each path's
    (N + 1)-point complex half-spectrum is drawn into one more such
    buffer.  Below n_max = 17 numpy's irfft turns that into 2N-point real
    noise, with scratch of its own (numpy < 2 adds a 2N-point complex copy
    of the half-spectrum, zero-padded); from n_max = 17 on a blocked
    transform writes the N noise values the path keeps in place, and holds
    blocks of at most 8,192 entries besides.  The path is the running sum
    of the noise, taken in the array that holds it (irfft's output or the
    half-spectrum's buffer), which is then shrunk to the N + 1 samples;
    under a profiler or a Python-level tracer numpy may refuse that, and
    the samples are copied out (``metadata["copied_buffer"]`` says so).
    So from n_max = 17 on a path is made in 2N + 2 floats beside the
    roots, three times its own bytes.  Every kind's array becomes the
    :class:`SampledPath` without a copy.  The bytes of these fBM paths
    differ in their last digits from those of releases that embedded with
    0 in place of gamma(N) and transformed with the complex FFT, from
    those of releases that took the spectrum from rfft, and at
    n_max >= 17 from those that took irfft there; their law is the same.

    Raises
    ------
    IngestionError
        For missing or malformed CSV input.
    GenerationError
        If synthesis produces non-finite samples, or if the circulant
        embedding of an fBM is not nonnegative definite.
    """
    n = 2**spec.n_max
    if spec.kind in ("linear", "triangle"):
        times = np.linspace(0.0, spec.T, n + 1)
    meta = {"kind": spec.kind, "seed": spec.seed, "T": spec.T, "n_max": spec.n_max}

    if spec.kind == "constant":
        vals = np.full(n + 1, float(spec.value))
        meta["value"] = spec.value
    elif spec.kind == "linear":
        vals = spec.slope * times
        meta["slope"] = spec.slope
    elif spec.kind == "triangle":
        if not (0.0 < spec.peak_time < spec.T):
            raise ParameterError(f"triangle peak_time must lie in (0, T), got {spec.peak_time}")
        up = times <= spec.peak_time
        vals = np.where(
            up,
            spec.peak_value * times / spec.peak_time,
            spec.peak_value * (spec.T - times) / (spec.T - spec.peak_time),
        )
        meta.update(peak_time=spec.peak_time, peak_value=spec.peak_value)
    elif spec.kind in ("fbm", "bm"):
        hurst = spec.hurst if spec.kind == "fbm" else 0.5
        vals, meta["copied_buffer"] = _fbm_values(hurst, spec.T, spec.n_max, spec.seed)
        meta["hurst"] = hurst
    elif spec.kind == "csv":
        vals, csv_meta = _read_csv_path(spec.file, spec.T, spec.n_max)
        meta.update(csv_meta)
    else:  # pragma: no cover - guarded by PathSpec validation
        raise ParameterError(f"unknown kind {spec.kind!r}")

    return SampledPath._taking(vals, T=spec.T, n_max=spec.n_max, metadata=meta)


def running_extrema(path: SampledPath) -> Tuple[np.ndarray, np.ndarray]:
    """Running minimum and maximum ``(m_t, M_t)`` along the grid.

    ``m`` is non-increasing, ``M`` non-decreasing, and
    ``m[j] <= values[j] <= M[j]`` for every index j.
    """
    m = np.minimum.accumulate(path.values)
    M = np.maximum.accumulate(path.values)
    return m, M


def range_anchors(path: SampledPath, fracs: Sequence[float], fallback_offsets=(-0.25,)) -> List[float]:
    """Levels at the given fractions of the path's range; a constant path,
    which has no range, gets its value plus the fallback offsets instead."""
    m, M = float(path.values.min()), float(path.values.max())
    if M <= m:
        return [m + off for off in fallback_offsets]
    return [m + fr * (M - m) for fr in fracs]


def write_path_csv(path: SampledPath, file) -> None:
    """Write ``t,value`` rows to a file name or an open text handle; floats
    use shortest round-trip formatting."""
    write_csv(file, ("t", "value"), Table(columns=(path.times, path.values)))
