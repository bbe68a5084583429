"""The vectorized assembly and clearance kernels against explicit-loop oracles.

``operators._diag_triplets`` and ``operators._mixed_triplets`` emit the COO
triplets of the divergence-form edges and of the mixed-metric terms;
``geometry._clearance`` scans chart-distant node pairs for the smallest layer
clearance. Each is checked here against a plain-Python loop that spells out
the same triplet slots and the same pair scan one entry at a time.
"""
import numpy as np

from thinlayer.geometry import _clearance
from thinlayer.operators import _diag_triplets, _mixed_triplets


def _diag_triplets_oracle(gi, gj, coff, di, dj, theta=None):
    n = gi.size
    rows = np.empty(4 * n, np.int64)
    cols = np.empty(4 * n, np.int64)
    vals = np.empty(4 * n, np.float64 if theta is None else np.complex128)
    for t in range(n):
        b = 4 * t
        off = -coff[t] if theta is None else -coff[t] * np.exp(-1j * theta[t])
        rows[b], cols[b], vals[b] = gi[t], gj[t], off
        rows[b + 1], cols[b + 1], vals[b + 1] = gj[t], gi[t], np.conj(off)
        rows[b + 2], cols[b + 2], vals[b + 2] = gi[t], gi[t], di[t]
        rows[b + 3], cols[b + 3], vals[b + 3] = gj[t], gj[t], dj[t]
    return rows, cols, vals


def _mixed_triplets_oracle(gp0, gm0, gp1, gm1, base, isw, t0p=None, t0m=None,
                           t1p=None, t1m=None):
    n = base.size
    cplx = t0p is not None
    rows = np.zeros(8 * n, np.int64)
    cols = np.zeros(8 * n, np.int64)
    vals = np.zeros(8 * n, np.complex128 if cplx else np.float64)
    for t in range(n):
        pairs_a = (gp0[t], gp0[t], gm0[t], gm0[t])
        pairs_b = (gp1[t], gm1[t], gp1[t], gm1[t])
        signs = (1.0, -1.0, -1.0, 1.0)
        if cplx:
            ph_a = (t0p[t], t0p[t], t0m[t], t0m[t])
            ph_b = (t1p[t], t1m[t], t1p[t], t1m[t])
        for q in range(4):
            a, b = pairs_a[q], pairs_b[q]
            s = 8 * t + 2 * q
            if a >= 0 and b >= 0:
                v = signs[q] * base[t] * isw[a] * isw[b]
                if cplx:
                    v = v * np.exp(1j * (ph_a[q] - ph_b[q]))
                rows[s], cols[s], vals[s] = a, b, v
                rows[s + 1], cols[s + 1], vals[s + 1] = b, a, np.conj(v)
    return rows, cols, vals


def _clearance_oracle(schart, period, plo, phi, cutoff):
    n, naxes = schart.shape
    best, bi, bj = np.inf, -1, -1
    for i in range(n):
        for j in range(i + 1, n):
            dist2 = 0.0
            for k in range(naxes):
                dk = abs(schart[i, k] - schart[j, k])
                if period[k] > 0.0 and dk > 0.5 * period[k]:
                    dk = period[k] - dk
                dist2 += dk * dk
            if dist2 <= cutoff * cutoff:
                continue
            m = min(
                float(np.sum((pa[i] - pb[j]) ** 2))
                for pa in (plo, phi)
                for pb in (plo, phi)
            )
            if m < best:
                best, bi, bj = m, i, j
    return (np.sqrt(best) if bi >= 0 else np.inf), bi, bj


def _assert_triplets_match(got_cplx, got_real, ref_cplx, ref_real):
    for a, b in zip(got_cplx, ref_cplx):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
    for a, b in zip(got_real, ref_real):
        np.testing.assert_array_equal(a, b)


def test_diag_triplets_backends_agree():
    rng = np.random.default_rng(0)
    n = 1000
    gi = rng.integers(0, 500, n)
    gj = rng.integers(0, 500, n)
    coff = rng.uniform(0.1, 2.0, n)
    di = rng.uniform(0.1, 2.0, n)
    dj = rng.uniform(0.1, 2.0, n)
    theta = rng.uniform(-1.0, 1.0, n)
    _assert_triplets_match(
        _diag_triplets(gi, gj, coff, di, dj, theta),
        _diag_triplets(gi, gj, coff, di, dj, None),
        _diag_triplets_oracle(gi, gj, coff, di, dj, theta),
        _diag_triplets_oracle(gi, gj, coff, di, dj),
    )


def test_mixed_triplets_backends_agree():
    rng = np.random.default_rng(1)
    n = 600
    gp0 = rng.integers(-1, 400, n)
    gm0 = rng.integers(-1, 400, n)
    gp1 = rng.integers(-1, 400, n)
    gm1 = rng.integers(-1, 400, n)
    base = rng.uniform(-1, 1, n)
    isw = rng.uniform(0.5, 2.0, 400)
    th = [rng.uniform(-1, 1, n) for _ in range(4)]
    args = (gp0, gm0, gp1, gm1, base, isw)
    _assert_triplets_match(
        _mixed_triplets(*args, *th),
        _mixed_triplets(*args, None, None, None, None),
        _mixed_triplets_oracle(*args, *th),
        _mixed_triplets_oracle(*args),
    )


def test_min_clearance_backends_agree():
    rng = np.random.default_rng(2)
    n = 300
    schart = np.stack([np.linspace(0, 10, n)], -1)
    plo = rng.normal(size=(n, 2))
    phi = plo + 0.1 * rng.normal(size=(n, 2))
    args = (schart, np.zeros(1), plo, phi, 1.0)
    got = _clearance(*args)
    ref = _clearance_oracle(*args)
    assert got[1:] == ref[1:]
    assert abs(got[0] - ref[0]) < 1e-13
