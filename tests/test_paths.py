import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from pathwise import (
    GenerationError,
    IngestionError,
    ParameterError,
    PathSpec,
    SampledPath,
    generate,
    range_anchors,
    running_extrema,
    write_path_csv,
)
from pathwise import cli, paths
from pathwise._util import snap_checkpoints
from pathwise.paths import (
    _circulant_sqrt_eigs,
    _fbm_values,
    _fgn_autocov,
    _fgn_davies_harte,
    _irfft_head,
    _rng_for,
)
from tests.conftest import traced_peak


def traced_held(fn, *args):
    """``fn(*args)`` and the memory, in bytes, that tracemalloc traced
    as still held once it returned."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held


def test_constant_path_is_flat():
    path = generate(PathSpec(kind="constant", value=2.0, n_max=3))
    assert path.values.shape == (9,)
    assert np.all(path.values == 2.0)


def test_linear_path_is_the_identity_grid():
    path = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=2))
    np.testing.assert_array_equal(path.values, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_triangle_peaks_where_asked():
    path = generate(PathSpec(kind="triangle", peak_time=0.5, peak_value=1.0, n_max=4))
    assert path.values[8] == 1.0
    assert path.values[0] == 0.0 and path.values[-1] == 0.0


def test_generation_is_bit_reproducible():
    spec = PathSpec(kind="fbm", hurst=0.3, seed=42, n_max=8)
    a = generate(spec)
    b = generate(spec)
    np.testing.assert_array_equal(a.values, b.values)


def test_different_seeds_differ():
    a = generate(PathSpec(kind="fbm", hurst=0.5, seed=1, n_max=6))
    b = generate(PathSpec(kind="fbm", hurst=0.5, seed=2, n_max=6))
    assert not np.array_equal(a.values, b.values)


def test_bm_is_fbm_half():
    a = generate(PathSpec(kind="bm", seed=9, n_max=6))
    b = generate(PathSpec(kind="fbm", hurst=0.5, seed=9, n_max=6))
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.slow
def test_fbm_monte_carlo_covariance_oracle():
    # oracle: standard fGn has unit variance, zero lag covariance for
    # H = 1/2, and Var(B(1)) = 1; checked within 3 standard errors over
    # 10^4 seeds, mean zero within 4 standard errors
    n_max, reps = 5, 10_000
    n = 2**n_max
    paths = np.empty((reps, n + 1))
    for s in range(reps):
        paths[s] = generate(PathSpec(kind="fbm", hurst=0.5, seed=s, n_max=n_max)).values
    inc = np.diff(paths, axis=1) * np.sqrt(n)  # unit-variance steps

    var_b1 = paths[:, -1] ** 2
    se = var_b1.std(ddof=1) / np.sqrt(reps)
    assert abs(var_b1.mean() - 1.0) <= 3 * se

    for lag in (1, 2, 3):
        prod = (inc[:, :-lag] * inc[:, lag:]).mean(axis=1)
        se = prod.std(ddof=1) / np.sqrt(reps)
        assert abs(prod.mean()) <= 3 * se, f"lag {lag} covariance {prod.mean()} vs se {se}"

    means = paths.mean(axis=0)
    ses = paths.std(axis=0, ddof=1) / np.sqrt(reps)
    nz = ses > 0
    assert np.all(np.abs(means[nz]) <= 4 * ses[nz])


def test_range_anchors_are_fractions_of_the_range(triangle_path, constant_path):
    m, M = float(triangle_path.values.min()), float(triangle_path.values.max())
    assert range_anchors(triangle_path, [0.0, 0.37, 1.0]) == [m, m + 0.37 * (M - m), M]
    # a constant path has no range: its value plus the fallback offsets
    assert range_anchors(constant_path, [0.37]) == [2.0 - 0.25]
    assert range_anchors(constant_path, [0.1, 0.9], (-0.5, 0.5)) == [1.5, 2.5]


def test_running_extrema_constant(constant_path):
    m, M = running_extrema(constant_path)
    assert np.all(m == 2.0) and np.all(M == 2.0)


def test_running_extrema_linear(linear_path):
    m, M = running_extrema(linear_path)
    assert np.all(m == 0.0)
    np.testing.assert_allclose(M, linear_path.values)


def test_running_extrema_triangle_saturates(triangle_path):
    _, M = running_extrema(triangle_path)
    half = int(snap_checkpoints(triangle_path, [0.5])[1][0])
    assert np.all(M[half:] == 1.0)
    # oracle: direct scan
    expect = np.array([triangle_path.values[: j + 1].max() for j in range(triangle_path.n_samples)])
    np.testing.assert_array_equal(M, expect)


def test_running_extrema_sandwich(bm_path):
    m, M = running_extrema(bm_path)
    assert np.all(m <= bm_path.values) and np.all(bm_path.values <= M)
    assert np.all(np.diff(m) <= 0.0)
    assert np.all(np.diff(M) >= 0.0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_the_philox_key_range_is_refused(seed):
    with pytest.raises(ParameterError, match=r"\[0, 2\*\*64\)"):
        PathSpec(kind="bm", seed=seed)


def test_the_largest_philox_key_is_a_seed():
    path = generate(PathSpec(kind="bm", n_max=3, seed=2**64 - 1))
    assert path.metadata["seed"] == 2**64 - 1 and np.all(np.isfinite(path.values))


def test_path_validation_errors():
    with pytest.raises(ParameterError):
        PathSpec(kind="fbm", hurst=1.5)
    with pytest.raises(ParameterError):
        PathSpec(kind="nope")
    with pytest.raises(ParameterError):
        PathSpec(kind="csv")
    with pytest.raises(GenerationError):
        from pathwise import SampledPath

        SampledPath(T=1.0, n_max=1, values=np.array([0.0, np.inf, 1.0]))


def test_hurst_mismatch_warns():
    spec = PathSpec(kind="fbm", hurst=0.5, n_max=4)
    with pytest.warns(UserWarning):
        spec.warn_if_hurst_mismatch(4)


def test_csv_roundtrip(tmp_path, bm_path):
    file = tmp_path / "path.csv"
    write_path_csv(bm_path, str(file))
    back = generate(PathSpec(kind="csv", file=str(file), T=1.0, n_max=bm_path.n_max))
    np.testing.assert_allclose(back.values, bm_path.values, rtol=0, atol=1e-15)
    assert back.metadata["resampled_to"] == bm_path.n_samples


def test_csv_resamples_to_dyadic_grid(tmp_path):
    file = tmp_path / "coarse.csv"
    file.write_text("t,value\n0.0,0.0\n0.3,3.0\n1.0,3.0\n")
    path = generate(PathSpec(kind="csv", file=str(file), T=1.0, n_max=3))
    assert path.n_samples == 9
    # linear interpolation between the source samples
    np.testing.assert_allclose(path.values[1], 0.125 / 0.3 * 3.0)
    assert path.metadata["source_points"] == 3


@pytest.mark.parametrize(
    "body",
    [
        "time,value\n0,0\n1,1\n",  # wrong header
        "t,value\n0,0\n0.5\n1,1\n",  # ragged
        "t,value\n0,0\n0.5,abc\n1,1\n",  # non-numeric
        "t,value\n0.1,0\n1,1\n",  # first t != 0
        "t,value\n0,0\n0.5,1\n0.4,2\n1,0\n",  # not increasing
        "t,value\n0,0\n0.9,1\n",  # last t != T
    ],
)
def test_csv_rejects_malformed_input(tmp_path, body):
    file = tmp_path / "bad.csv"
    file.write_text(body)
    with pytest.raises(IngestionError):
        generate(PathSpec(kind="csv", file=str(file), T=1.0, n_max=3))


@pytest.mark.parametrize("row, line", [("nan,0.5", 3), ("0.5,inf", 3), ("1,-inf", 4)])
def test_csv_non_finite_cells_name_their_line(tmp_path, row, line):
    # float() reads nan and inf; refused at their line, not later as
    # non-finite generated samples
    file = tmp_path / "nonfinite.csv"
    rows = ["t,value", "0,0", "0.5,1", "1,1"]
    rows[line - 1] = row
    file.write_text("\n".join(rows) + "\n")
    with pytest.raises(IngestionError, match=re.escape(f"{file}:{line}: non-finite")):
        generate(PathSpec(kind="csv", file=str(file), T=1.0, n_max=3))


def test_csv_missing_file_is_ingestion_error(tmp_path):
    with pytest.raises(IngestionError):
        generate(PathSpec(kind="csv", file=str(tmp_path / "absent.csv"), T=1.0, n_max=3))


@pytest.mark.parametrize("header", ["t,value,extra", "t,value,"])
def test_csv_header_must_be_exactly_t_value(tmp_path, header):
    file = tmp_path / "extra.csv"
    file.write_text(f"{header}\n0,0\n1,1\n")
    with pytest.raises(IngestionError, match=re.escape(repr(header))):
        generate(PathSpec(kind="csv", file=str(file), T=1.0, n_max=3))


def _autocov(H, n_lags):
    """The first n_lags lags of the fGn autocovariance, in their own array."""
    return _fgn_autocov(H, np.empty(n_lags))


def _fgn_autocov_expression_form(H, n_lags):
    """The autocovariance with the series over every lag at once, one
    array per expression."""
    a = 2.0 * H
    gamma = np.empty(n_lags)
    gamma[0] = 1.0
    gamma[1] = math.expm1((a - 1.0) * math.log(2.0))
    small = np.arange(2.0, min(n_lags, 8))
    gamma[2 : small.size + 2] = 0.5 * small**a * (
        np.expm1(a * np.log1p(1.0 / small)) + np.expm1(a * np.log1p(-1.0 / small))
    )
    coeffs = [a * (a - 1.0) / 2.0]
    for j in range(1, 10):
        coeffs.append(coeffs[-1] * (a - 2 * j) * (a - 2 * j - 1) / ((2 * j + 1) * (2 * j + 2)))
    y = np.arange(8, n_lags, dtype=float) ** -2.0
    g = np.full(y.size, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        g = g * y + c
    gamma[8:] = g * y * y**-H
    return gamma


def _half_spectrum_normals(N, rng):
    """The N + 1 normals of the half-spectrum, the inner ones drawn into
    their own array."""
    z = np.empty(N + 1, dtype=complex)
    z[0] = rng.standard_normal()
    z[N] = rng.standard_normal()
    v = rng.standard_normal((N - 1, 2))
    z[1:N] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
    return z


def _fgn_expression_form(root, N, rng):
    """Davies-Harte noise on a given half-spectrum root through the real
    inverse transform, one temporary per expression."""
    return np.sqrt(2 * N) * np.fft.irfft(root * _half_spectrum_normals(N, rng), n=2 * N)[:N]


def _times(a, b):
    """Complex product in separate real multiplies and adds."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _unit_roots_expression_form(j, N):
    """exp(i pi j / N) as the product of two table entries, the tables of
    about sqrt(2N) roots each from math.cos and math.sin."""
    s = (N.bit_length() + 1) // 2

    def roots(js):
        return np.array([complex(math.cos(math.pi * k / N), math.sin(math.pi * k / N)) for k in js])

    return _times(roots(range(0, 2 * N, 2**s))[j >> s], roots(range(2**s))[j % 2**s])


def _irfft_head_expression_form(z):
    """irfft(z, n=2N)[:N] as the half-length transform of the packed
    spectrum C, whole: the length-n2 transforms of all columns at once, the
    twiddles, then those of all rows."""
    N = z.size - 1
    half, n1 = N // 2, max(2, 2 ** ((N.bit_length() - 1) // 2))
    n2 = N // n1
    z = np.concatenate([[z[0].real], z[1:N], [z[N].real]])
    e = z[: half + 1] + np.conj(z[N - half :][::-1])
    d = _times(z[: half + 1] - np.conj(z[N - half :][::-1]), _unit_roots_expression_form(np.arange(half, N + 1), N))
    C = np.empty(N, dtype=complex)
    C[: half + 1] = e + d
    C[half:] = np.conj(e - d)[half:0:-1]
    A = np.fft.ifft(C.reshape(n2, n1), axis=0, norm="forward")
    A = _times(A, _unit_roots_expression_form(2 * np.arange(n2)[:, None] * np.arange(n1), N))
    Y = np.fft.ifft(A, axis=1, norm="forward")[:, : n1 // 2]
    return np.ascontiguousarray(Y.T).reshape(-1).view(float) * (0.5 / N)


def _circulant_sqrt_eigs_blocked_expression_form(H, N):
    """Root of the spectrum at every N: eigenvalues 0..N-1 as 2N
    times the expression form of the blocked transform of the
    autocovariance, read as a real half-spectrum, and eigenvalue N as the
    alternating sum of the autocovariance."""
    gamma = _fgn_autocov_expression_form(H, N + 1)
    head = 2 * N * _irfft_head_expression_form(gamma.astype(complex))
    last = gamma[0] + gamma[N] + 2.0 * (np.sum(gamma[2:N:2]) - np.sum(gamma[1:N:2]))
    return np.sqrt(np.clip(np.concatenate([head, [last]]), 0.0, None))


def _fgn_blocked_expression_form(root, N, rng):
    """Davies-Harte noise on a given half-spectrum root through the blocked
    half-length transform, one temporary per expression."""
    return np.sqrt(2 * N) * _irfft_head_expression_form(root * _half_spectrum_normals(N, rng))


def _fgn_complex_form(root, N, rng):
    """The same noise through the 2N-point complex transform of the whole
    Hermitian vector, scaled by the whole spectrum root."""
    half = _half_spectrum_normals(N, rng)
    z = np.concatenate([half, np.conj(half[1:N][::-1])])
    full_root = np.concatenate([root, root[-2:0:-1]])
    return np.sqrt(2 * N) * np.fft.ifft(full_root * z).real[:N]


def test_cached_spectrum_generations_are_byte_identical_to_uncached():
    H, n_max = 0.3, 10
    N = 2**n_max
    _circulant_sqrt_eigs.cache_clear()
    for seed in (4, 5):  # the second generation reuses the cached spectrum
        path = generate(PathSpec(kind="fbm", hurst=H, n_max=n_max, seed=seed))
        noise = _fgn_expression_form(_circulant_sqrt_eigs_blocked_expression_form(H, N), N, _rng_for(seed))
        want = np.concatenate([[0.0], np.cumsum(noise * (1.0 / N) ** H)])
        assert path.values.tobytes() == want.tobytes()
    assert _circulant_sqrt_eigs.cache_info().hits == 1
    root = _circulant_sqrt_eigs(H, N)
    assert root.shape == (N + 1,) and not root.flags.writeable


def test_spectrum_cache_keeps_the_last_two_spectra():
    # acceptance generates on two (H, N), a run on one; a third is not
    # kept beside them
    _circulant_sqrt_eigs.cache_clear()
    for H, n_max in ((0.25, 4), (0.3, 4), (0.25, 5)):
        _circulant_sqrt_eigs(H, 2**n_max)
    assert _circulant_sqrt_eigs.cache_info().currsize == 2


def test_acceptance_computes_each_of_its_two_spectra_once(monkeypatch):
    from pathwise import acceptance

    monkeypatch.setenv("PATHWISE_WORKERS", "1")
    _circulant_sqrt_eigs.cache_clear()
    acceptance.run_all()
    info = _circulant_sqrt_eigs.cache_info()
    assert info.misses == 2 and info.currsize == 2, info


def _brownian_direct_increments(T, n_max, seed):
    """Brownian path from N independent N(0, T / N) steps, one array per
    expression."""
    N = 2**n_max
    steps = _rng_for(seed).standard_normal(N) * (T / N) ** 0.5
    return np.concatenate([[0.0], np.cumsum(steps)])


@pytest.mark.parametrize("n_max", [1, 2, 3, 10, 14, 16, 17, 18, 19, 20])
@pytest.mark.parametrize("H", [0.1, 0.25, 0.5, 0.75])
def test_in_place_generator_is_byte_identical_to_expression_form(H, n_max):
    # the generator computes the spectrum, the noise and the path in the
    # buffer of one (N + 1)-point complex half-spectrum each; on a cold
    # spectrum cache, the expression form of the blocked transform is the
    # oracle of the spectrum, and of the noise from n_max = 17 on (one
    # square of the four-step view at even n_max, two at odd), where the
    # expression-by-expression irfft route is below.  H = 1/2 paths draw
    # their steps directly, so there the direct-increment form is the
    # oracle of the path, and the embedding is still checked on its own.
    # Three seeds up to n_max = 18, one above
    N = 2**n_max
    blocked = n_max >= 17
    root = _circulant_sqrt_eigs_blocked_expression_form(H, N)
    _circulant_sqrt_eigs.cache_clear()
    assert _circulant_sqrt_eigs(H, N).tobytes() == root.tobytes()
    oracle = _fgn_blocked_expression_form if blocked else _fgn_expression_form
    for seed in (0, 1, 29) if n_max <= 18 else (1,):
        want = oracle(root, N, _rng_for(seed))
        assert _fgn_davies_harte(H, N, _rng_for(seed))[:N].tobytes() == want.tobytes()
        if H == 0.5:
            want_path = _brownian_direct_increments(2.0, n_max, seed)
        else:
            want_path = np.concatenate([[0.0], np.cumsum(want * (2.0 / N) ** H)])
        assert _fbm_values(H, 2.0, n_max, seed).tobytes() == want_path.tobytes()


@pytest.mark.parametrize("n_lags", [2, 3, 9, 8 + 2**13, 9 + 2**13, 2**18 + 1])
@pytest.mark.parametrize("H", [0.1, 0.25, 0.75])
def test_blocked_autocov_is_byte_identical_to_expression_form(H, n_lags):
    # the series runs a block of lags at a time, into a contiguous array or
    # the strided real part of a complex buffer: the bytes are those of one
    # pass over every lag, on either side of a block's end
    want = _fgn_autocov_expression_form(H, n_lags)
    assert _autocov(H, n_lags).tobytes() == want.tobytes()
    z = np.full(n_lags, 1.0 + 1.0j)
    assert _fgn_autocov(H, z.real).tobytes() == want.tobytes()
    assert np.all(z.imag == 1.0)


def test_sampled_path_copies_a_callers_array():
    values = np.linspace(0.0, 1.0, 5)
    path = SampledPath(T=1.0, n_max=2, values=values)
    values[1] = 9.0
    assert path.values[1] == 0.25 and not np.shares_memory(path.values, values)
    assert not path.values.flags.writeable
    listed = SampledPath(T=1.0, n_max=1, values=[0, 1, 2])
    assert listed.values.dtype == float and listed.values.tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "spec",
    [PathSpec(kind="fbm", hurst=0.25, n_max=17, seed=1), PathSpec(kind="fbm", hurst=0.75, n_max=12, seed=1),
     PathSpec(kind="bm", n_max=12, seed=1), PathSpec(kind="triangle", n_max=5)],
    ids=["blocked", "irfft", "bm", "triangle"],
)
def test_generated_path_owns_only_its_samples(spec):
    # generate's array becomes the path's own, not a copy: the fBM noise
    # buffers of 2N + 2 (blocked) or 2N (irfft) floats are shrunk to the
    # N + 1 samples, which own their memory and are all the path holds
    generate(spec)  # the spectrum, the unit roots and numpy's first Philox stream
    path, held = traced_held(generate, spec)
    values = path.values
    assert values.base is None and values.flags.owndata and not values.flags.writeable
    assert values.nbytes == 8 * (2**spec.n_max + 1)
    assert held <= values.nbytes + 2**12, held - values.nbytes


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="tracers see frame locals through a proxy (PEP 667)")
def test_fbm_generation_under_a_python_tracer_is_a_generation_error():
    # a trace function written in Python copies each frame's locals, one
    # more reference to the buffer being shrunk, which numpy refuses: in
    # the spectrum on a cold cache, in the path on a warm one.  Brownian
    # paths are drawn at their own size and shrink nothing
    def trace(frame, event, arg):
        return trace

    spec = PathSpec(kind="fbm", hurst=0.25, n_max=6, seed=1)
    before = sys.gettrace()
    for warm in (False, True):
        _circulant_sqrt_eigs.cache_clear()
        if warm:
            _circulant_sqrt_eigs(0.25, 64)
        sys.settrace(trace)
        try:
            with pytest.raises(GenerationError, match="trace function"):
                generate(spec)
            bm = generate(PathSpec(kind="bm", n_max=6, seed=1))
        finally:
            sys.settrace(before)
        assert bm.values.size == 65
    assert generate(spec).values.size == 65


@pytest.mark.parametrize("n_max", [17, 18, 20])
@pytest.mark.parametrize("H", [0.1, 0.25, 0.75])
def test_blocked_noise_matches_irfft_at_the_threshold_and_above(H, n_max):
    # the route switches at n_max = 17: the blocked transform's noise is
    # the irfft noise up to rounding (at most 5.5e-16 of max |x| measured)
    N = 2**n_max
    root = _circulant_sqrt_eigs(H, N)
    got = _fgn_davies_harte(H, N, _rng_for(3))[:N]
    want = _fgn_expression_form(root, N, _rng_for(3))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n_max", [1, 2, 3, 10, 14, 17, 18, 20])
@pytest.mark.parametrize("H", [0.1, 0.25, 0.75])
def test_blocked_spectrum_matches_rfft_at_the_threshold_and_above(H, n_max):
    # at every size the spectrum is the blocked transform of the
    # autocovariance and an alternating sum: the real FFT's eigenvalues up
    # to rounding (at most 8.8e-16 of the largest measured; the real FFT
    # itself is 6.6e-16 from the complex one)
    N = 2**n_max
    gamma = _autocov(H, N + 1)
    want = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    got = paths._circulant_eigs(H, N)
    assert got.shape == (N + 1,)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 9, 10])
def test_blocked_transform_is_irfft_for_any_half_spectrum(n_max):
    # complex z_0 and z_N included, whose imaginary parts irfft ignores;
    # the input buffer is overwritten
    N = 2**n_max
    z = np.random.default_rng(n_max).standard_normal(2 * N + 2).view(complex)
    want = np.fft.irfft(z, n=2 * N)[:N]
    got = _irfft_head(z.copy())
    assert got.shape == (N,)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


_BLOCKED_DIGEST = """
import hashlib, sys
import numpy as np
from pathwise.paths import _irfft_head
z = np.random.default_rng(17).standard_normal(2**18 + 2).view(complex)
print(hashlib.sha256(_irfft_head(z).tobytes()).hexdigest())
"""


def test_blocked_noise_bytes_do_not_depend_on_cpu_dispatch():
    # numpy's complex multiply fuses its products where the CPU has FMA;
    # the blocked transform multiplies in real arithmetic, so its bytes
    # hold with numpy's AVX-512 and AVX2 loops switched off
    from tests.test_golden import _dispatch_settings

    src = os.path.dirname(os.path.dirname(paths.__file__))
    digests = set()
    for name, env in _dispatch_settings().items():
        if "NPY_DISABLE_CPU_FEATURES" in env or not digests:
            out = subprocess.run([sys.executable, "-c", _BLOCKED_DIGEST], capture_output=True, text=True,
                                 check=True, env={**os.environ, "PYTHONPATH": src, **env})
            digests.add(out.stdout.strip())
    assert len(digests) == 1, digests


@pytest.mark.parametrize("n_max", [1, 2, 10, 14])
@pytest.mark.parametrize("H", [0.1, 0.75, 0.95])
def test_real_transform_matches_the_complex_transform(H, n_max):
    # the half-spectrum and its real inverse transform against the whole
    # Hermitian vector and the 2N-point complex transform, on one spectrum
    N = 2**n_max
    root = _circulant_sqrt_eigs(H, N)
    for seed in (0, 7):
        got = _fgn_davies_harte(H, N, _rng_for(seed))[:N]
        want = _fgn_complex_form(root, N, _rng_for(seed))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n_max", [1, 2, 10, 14, 18])
@pytest.mark.parametrize("H", [0.01, 0.1, 0.25, 0.75, 0.9, 0.95, 0.99, 0.999])
def test_circulant_embedding_is_positive_definite(H, n_max):
    # with gamma(N) in the middle of the first row, every eigenvalue is
    # positive, also near H = 1, where a 0 there made the embedding
    # indefinite (H = 0.9 at n_max = 10)
    root = _circulant_sqrt_eigs.__wrapped__(H, 2**n_max)  # uncached
    assert root.min() > 0.0


def _fgn_autocov_decimal(H, k):
    """gamma(k) = ((k+1)**2H - 2 k**2H + |k-1|**2H) / 2 in 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        a = 2 * Decimal(H)
        k = Decimal(k)
        lower = abs(k - 1) ** a if k != 1 else Decimal(0)
        return float(((k + 1) ** a - 2 * k**a + lower) / 2)


@pytest.mark.parametrize("H", [0.01, 0.1, 0.25, 0.45, 0.4999, 0.5005, 0.55, 0.75, 0.9, 0.99, 0.999])
def test_fgn_autocov_matches_a_decimal_reference(H):
    # the direct second difference loses up to 6e-5 relative near H = 1;
    # small lags and the series lags are both checked.  Lags 2 to 7 cancel
    # about k / |2H - 1| ulps, thousands near H = 1/2, where gamma(k) is
    # itself about |2H - 1| / (2k), so the absolute error stays near an
    # ulp of gamma(0) = 1
    lags = list(range(12)) + [63, 1000, 2**14 + 1, 2**18]
    gamma = _autocov(H, 2**18 + 1)
    eps = np.finfo(float).eps
    for k in lags:
        want = _fgn_autocov_decimal(H, k)
        rtol = max(1e-12, 4 * k * eps / abs(2 * H - 1)) if 2 <= k <= 7 else 1e-12
        assert abs(gamma[k] - want) <= rtol * abs(want), f"lag {k}: {gamma[k]!r} vs {want!r}"


@pytest.mark.parametrize("kind, hurst", [("bm", None), ("fbm", 0.5)])
def test_brownian_paths_skip_the_circulant_embedding(monkeypatch, kind, hurst):
    # the fGn covariance at H = 1/2 is the identity: no spectrum, no transform
    def refuse(*args, **kwargs):
        raise AssertionError("circulant embedding used")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    monkeypatch.setattr(paths, "_circulant_sqrt_eigs", refuse)
    path = generate(PathSpec(kind=kind, hurst=hurst, n_max=12, seed=3))
    assert path.values.tobytes() == _brownian_direct_increments(1.0, 12, 3).tobytes()
    with pytest.raises(AssertionError, match="circulant embedding used"):
        generate(PathSpec(kind="fbm", hurst=0.25, n_max=12, seed=3))


def test_brownian_generate_peak_memory_at_n_max_16():
    # the path of N + 1 floats (0.5 MiB), which SampledPath takes without
    # a copy: 0.56 MiB traced, against 1.0 MiB with SampledPath's read-only
    # copy and 2.6 MiB for H = 1/4 through a cold circulant embedding.  A
    # small path first takes the one-time imports behind numpy's first
    # Philox stream (0.7 MiB) out of the reading
    generate(PathSpec(kind="bm", n_max=2))
    _, peak = traced_peak(generate, PathSpec(kind="bm", n_max=16, seed=1))
    assert peak < 0.75 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_generate_peak_memory_at_n_max_16():
    # traced peak for one 2**16-step path.  Warm spectrum cache: 8.2 MiB
    # when every expression made its own temporary, 2.5 MiB in one 2N-point
    # complex buffer, 2.0 MiB now (the (N + 1)-point half-spectrum and the
    # 2N-point real transform).  Cold cache: 6.8 MiB when the spectrum was
    # transformed from a real row by the complex FFT, 4.3 MiB in place, 2.6
    # MiB by the real FFT of the 2N-point row, 2.9 MiB by the blocked
    # transform into a separate array and blocks of 64 columns, 2.6 MiB now
    # in place in the (N + 1)-point complex buffer, shrunk to the spectrum,
    # and blocks of 8,192 entries.  numpy < 2 zero-pads the half-spectrum
    # to a 2N-point complex array before its inverse real transform, 2 MiB
    # more here (4.0 warm, 4.5 cold when numpy 2's irfft is wrapped to pad
    # the same way).  A small path first takes the one-time imports behind
    # numpy's first Philox stream (0.8 MiB) out of the cold reading
    extra = 2.0 if np.lib.NumpyVersion(np.__version__) < "2.0.0" else 0.0
    generate(PathSpec(kind="bm", n_max=2))
    for warm, bound in ((False, (3 + extra) * 2**20), (True, (3 + extra) * 2**20)):
        _circulant_sqrt_eigs.cache_clear()
        if warm:
            _circulant_sqrt_eigs(0.25, 2**16)
        _, peak = traced_peak(generate, PathSpec(kind="fbm", hurst=0.25, n_max=16, seed=1))
        assert peak < bound, f"warm={warm}: traced peak {peak / 2**20:.2f} MiB"


_GENERATE_RSS = """
import resource, sys
import numpy as np
from pathwise import PathSpec, generate, paths
generate(PathSpec(kind="fbm", hurst=0.25, n_max=4))
root = np.load(sys.argv[1])
paths._circulant_sqrt_eigs = lambda H, N: root
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
path = generate(PathSpec(kind="fbm", hurst=0.25, n_max=20, seed=1))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / path.values.nbytes)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_generate_rss_rise_at_n_max_20(tmp_path):
    # a fresh process on a warm spectrum (the cached roots loaded from a
    # file): tracemalloc cannot see pocketfft's scratch, ru_maxrss can.
    # irfft's 2N-point output and scratch rose it by 8.0x the path bytes;
    # the blocked transform, in the half-spectrum's buffer, by 3.4x with
    # the noise written to a separate array and the path copied, and by
    # 2.05x now that the noise, then the path, stay in that buffer, shrunk
    # to the N + 1 samples the path takes.  A process's ru_maxrss starts at
    # the peak of the one that started it, so a small launcher starts the
    # measured process, not pytest
    np.save(tmp_path / "root.npy", _circulant_sqrt_eigs.__wrapped__(0.25, 2**20))
    src = os.path.dirname(os.path.dirname(paths.__file__))
    launch = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    out = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", _GENERATE_RSS, str(tmp_path / "root.npy")],
                         capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    rise = float(out.stdout)
    assert rise <= 2.4, f"ru_maxrss rose by {rise:.2f}x the path bytes"


_COLD_SPECTRUM_RSS = """
import resource
from pathwise import PathSpec, generate
generate(PathSpec(kind="fbm", hurst=0.25, n_max=4))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
path = generate(PathSpec(kind="fbm", hurst=0.25, n_max=20, seed=1))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / path.values.nbytes)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_cold_spectrum_generate_rss_rise_at_n_max_20():
    # a fresh process, cold spectrum cache: the real FFT of the 2N-point
    # first row and its scratch rose ru_maxrss by 8.0x the path bytes; the
    # blocked transform of the autocovariance, in an (N + 1)-point complex
    # buffer, by 4.3x, and by 3.06x now that the autocovariance is written
    # into that buffer, which is shrunk to the spectrum's roots (1x), and
    # the noise and the path share one more such buffer (2x).  Started by
    # the same small launcher as the warm test
    src = os.path.dirname(os.path.dirname(paths.__file__))
    launch = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    out = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", _COLD_SPECTRUM_RSS],
                         capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    rise = float(out.stdout)
    assert rise <= 3.5, f"ru_maxrss rose by {rise:.2f}x the path bytes"


@pytest.mark.parametrize("n_max", [2, 10, 16])
def test_indefinite_embedding_is_a_generation_error(monkeypatch, n_max):
    # a first row 1, 1, 0, ..., 0, 1 has eigenvalue 1 + 2 cos(pi) = -1 at
    # every size: the generator must refuse it, small n_max included
    def not_a_covariance(H, out):
        out[:] = 0.0
        out[:2] = 1.0
        return out

    monkeypatch.setattr(paths, "_fgn_autocov", not_a_covariance)
    _circulant_sqrt_eigs.cache_clear()
    try:
        with pytest.raises(GenerationError, match="not nonnegative definite"):
            generate(PathSpec(kind="fbm", hurst=0.3, n_max=n_max, seed=0))
    finally:
        _circulant_sqrt_eigs.cache_clear()


def test_high_hurst_generates_at_n_max_16(tmp_path):
    # H = 0.95 at n_max = 16 once needed an O(N^2) route and was refused
    out = tmp_path / "x.csv"
    assert cli.main(["generate", "--hurst", "0.95", "--n-max", "16", "--out", str(out)]) == 0
    back = generate(PathSpec(kind="csv", file=str(out), n_max=16))
    assert back.n_samples == 2**16 + 1
