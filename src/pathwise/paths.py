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
1987).  Its working set is one 2N-point complex buffer per transform
(the spectrum, once per (H, N), and the noise of each path) plus the
cached 2N-point root of the spectrum.  Where the embedding has a
negative eigenvalue (H near 1), a Cholesky factorization of the N x N
covariance takes over; that route needs O(N**2) memory, so it is refused
with a GenerationError above n_max = 10 (``_CHOLESKY_MAX_N_MAX``).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import GenerationError, IngestionError, ParameterError

__all__ = [
    "SampledPath",
    "PathSpec",
    "generate",
    "running_extrema",
    "write_path_csv",
]

PATH_KINDS = ("fbm", "bm", "linear", "triangle", "constant", "csv")

# numpy >= 2.0 transforms into a given output, here the input itself;
# older numpy allocates the output array
_FFT_IN_PLACE = np.lib.NumpyVersion(np.__version__) >= "2.0.0"

# the Cholesky route builds dense N x N arrays: its traced peak is 16 MiB
# at n_max = 10, where one such array is 8 MiB; at n_max = 16 it is 32 GiB
_CHOLESKY_MAX_N_MAX = 10


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
        if self.T <= 0:
            raise ParameterError(f"T must be positive, got {self.T}")
        if self.n_max < 1:
            raise ParameterError(f"n_max must be >= 1, got {self.n_max}")
        vals = np.asarray(self.values, dtype=float)
        expected = 2**self.n_max + 1
        if vals.ndim != 1 or vals.size != expected:
            raise ParameterError(
                f"values must have 2**n_max + 1 = {expected} entries, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise GenerationError("path contains non-finite samples")
        vals = vals.copy()
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

    def grid_index(self, t: float) -> int:
        """Snap a time to the nearest grid index."""
        k = int(round(t / self.dt))
        return min(max(k, 0), self.n_samples - 1)

    def initial_value(self) -> float:
        return float(self.values[0])


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


def _fgn_autocov(H: float, n_lags: int) -> np.ndarray:
    k = np.arange(n_lags, dtype=float)
    return 0.5 * ((k + 1.0) ** (2 * H) - 2.0 * k ** (2 * H) + np.abs(k - 1.0) ** (2 * H))


@lru_cache(maxsize=8)
def _circulant_sqrt_eigs(H: float, N: int) -> Optional[np.ndarray]:
    """Square roots of the eigenvalues of the 2N-point circulant embedding
    of the fGn covariance (read-only, shared by every path with this
    (H, N)), or None when the embedding is not nonnegative definite.

    The first row of the circulant is written into the real part of one
    zeroed complex buffer, which is transformed in place where numpy
    allows it.
    """
    gamma = _fgn_autocov(H, N)
    row = np.zeros(2 * N, dtype=complex)
    row.real[:N] = gamma
    row.real[N + 1:] = gamma[:0:-1]
    del gamma
    eigs = (np.fft.fft(row, out=row) if _FFT_IN_PLACE else np.fft.fft(row)).real
    del row
    tol = 1e-12 * max(eigs.max(), 1.0)
    if eigs.min() < -tol:
        return None
    root = np.clip(eigs, 0.0, None)
    del eigs
    np.sqrt(root, out=root)
    root.flags.writeable = False
    return root


def _fgn_davies_harte(H: float, N: int, rng: np.random.Generator) -> Optional[np.ndarray]:
    """Unit-step fractional Gaussian noise of length N, or None when the
    circulant embedding is not nonnegative definite.

    The result is a strided view of the inverse transform's real part.
    Every step writes into the one complex buffer ``z``: the normals are
    drawn straight into its (real, imaginary) pairs, and the transform
    runs in place.
    """
    root = _circulant_sqrt_eigs(H, N)
    if root is None:
        return None
    M = 2 * N
    z = np.empty(M, dtype=complex)
    z[0] = rng.standard_normal()
    z[N] = rng.standard_normal()
    rng.standard_normal(out=z[1:N].view(float))
    np.divide(z[1:N], np.sqrt(2.0), out=z[1:N])
    np.conjugate(z[1:N][::-1], out=z[N + 1:])
    z *= root
    fgn = (np.fft.ifft(z, out=z) if _FFT_IN_PLACE else np.fft.ifft(z)).real[:N]
    fgn *= np.sqrt(M)
    return fgn


def _fgn_cholesky(H: float, N: int, rng: np.random.Generator) -> np.ndarray:
    """O(N^2) fallback; exact for any admissible covariance."""
    gamma = _fgn_autocov(H, N)
    cov = gamma[np.abs(np.subtract.outer(np.arange(N), np.arange(N)))]
    chol = np.linalg.cholesky(cov)
    return chol @ rng.standard_normal(N)


def _fbm_values(H: float, T: float, n_max: int, seed: int) -> np.ndarray:
    N = 2**n_max
    rng = _rng_for(seed)
    if H == 0.5:
        # the fGn covariance is the identity (gamma(k) = 0 for k >= 1):
        # the normals are the noise, drawn straight into the path
        out = np.empty(N + 1)
        out[0] = 0.0
        rng.standard_normal(out=out[1:])
        np.multiply(out[1:], (T / N) ** H, out=out[1:])
        np.cumsum(out[1:], out=out[1:])
        return out
    fgn = _fgn_davies_harte(H, N, rng)
    if fgn is None:
        if n_max > _CHOLESKY_MAX_N_MAX:
            raise GenerationError(
                f"fbm with hurst={H} at n_max={n_max}: the circulant embedding is not "
                f"nonnegative definite, and the O(N^2) Cholesky route is limited to "
                f"n_max <= {_CHOLESKY_MAX_N_MAX}"
            )
        fgn = _fgn_cholesky(H, N, _rng_for(seed))
    out = np.empty(N + 1)
    out[0] = 0.0
    np.multiply(fgn, (T / N) ** H, out=out[1:])
    del fgn
    np.cumsum(out[1:], out=out[1:])
    return out


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
                    rows.append((float(row[0]), float(row[1])))
                except ValueError as exc:
                    raise IngestionError(f"{file}:{lineno}: {exc}") from exc
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
    drawn directly into the returned path of N + 1 samples, nothing else
    is held, and the bytes differ from those the circulant embedding gave
    before H = 1/2 skipped it.  Any other H uses circulant embedding of
    the fractional Gaussian noise covariance; besides the path it holds
    one 2N-point complex buffer per transform and the cached 2N-point root
    of the spectrum.  Where the embedding is not nonnegative definite, a
    Cholesky factorization of the N x N covariance takes over, up to
    n_max = 10.

    Raises
    ------
    IngestionError
        For missing or malformed CSV input.
    GenerationError
        If synthesis produces non-finite samples, or if an fBM needs the
        Cholesky route above n_max = 10.
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
        vals = _fbm_values(hurst, spec.T, spec.n_max, spec.seed)
        meta["hurst"] = hurst
    elif spec.kind == "csv":
        vals, csv_meta = _read_csv_path(spec.file, spec.T, spec.n_max)
        meta.update(csv_meta)
    else:  # pragma: no cover - guarded by PathSpec validation
        raise ParameterError(f"unknown kind {spec.kind!r}")

    if not np.all(np.isfinite(vals)):
        raise GenerationError(f"{spec.kind} generation produced non-finite samples")
    return SampledPath(T=spec.T, n_max=spec.n_max, values=vals, metadata=meta)


def running_extrema(path: SampledPath) -> Tuple[np.ndarray, np.ndarray]:
    """Running minimum and maximum ``(m_t, M_t)`` along the grid.

    ``m`` is non-increasing, ``M`` non-decreasing, and
    ``m[j] <= values[j] <= M[j]`` for every index j.
    """
    m = np.minimum.accumulate(path.values)
    M = np.maximum.accumulate(path.values)
    return m, M


def write_path_csv(path: SampledPath, file) -> None:
    """Write ``t,value`` rows; floats use shortest round-trip formatting."""
    own = isinstance(file, str)
    fh = open(file, "w", newline="") if own else file
    try:
        fh.write("t,value\n")
        for t, v in zip(path.times, path.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")
    finally:
        if own:
            fh.close()
