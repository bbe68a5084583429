"""The vectorized assembly and clearance kernels against explicit-loop oracles.

``operators._diag_triplets`` emits the COO triplets of the divergence-form
edges; ``operators._surface_operator`` adds the mixed-metric terms of a 2-D
chart from the same neighbour windows as the edges; ``geometry._clearance``
finds the smallest layer clearance over chart-distant node pairs, from the
point pairs that the cell list ``geometry._close_pairs`` finds within a
radius. Each is checked here against a plain-Python loop that spells out the
same triplet slots, the same mixed-term matrix and the same pair scan one
entry at a time, and the cell list against every pair measured by brute force.
"""
import numpy as np
import pytest

from thinlayer import (
    GeometryFamily,
    build_patch,
    constant_field,
    effective_field,
    gauge_fix,
    layer_geometry,
    pullback,
)
from thinlayer import geometry
from thinlayer.geometry import _chart_arclengths, _clearance, _close_pairs
from thinlayer.operators import _diag_triplets, _surface_operator


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


def _mixed_terms_oracle(patch, inv, alpha, m):
    # per node c and sign pair (s0, s1) with both neighbours a = c + s0 e0,
    # b = c + s1 e1 present: s0 s1 sqrt|g| G^01 / (4 h0 h1) |g|_a^-1/4
    # |g|_b^-1/4 exp(i (theta_a - theta_b)) at (a, b) and its conjugate at
    # (b, a), theta the midpoint phase of the hop from c
    ax0, ax1 = patch.axes
    n0, n1 = patch.grid_shape
    w = patch.sqrt_g**-0.5
    M = np.zeros((n0 * n1 * m,) * 2, np.complex128)

    def neighbour(i, s, ax):
        j = i + s
        if ax.periodic:
            return j % ax.n
        return j if 0 <= j < ax.n else None

    for i in range(n0):
        for j in range(n1):
            for s0 in (1, -1):
                for s1 in (1, -1):
                    ia, jb = neighbour(i, s0, ax0), neighbour(j, s1, ax1)
                    if ia is None or jb is None:
                        continue
                    for t in range(m):
                        base = patch.sqrt_g[i, j] * inv[i, j, t, 0, 1] / (4 * ax0.h * ax1.h)
                        v = s0 * s1 * base * w[ia, j] * w[i, jb]
                        if alpha is not None:
                            ta = s0 * ax0.h * (alpha[i, j, t, 0] + alpha[ia, j, t, 0]) / 2
                            tb = s1 * ax1.h * (alpha[i, j, t, 1] + alpha[i, jb, t, 1]) / 2
                            v = v * np.exp(1j * (ta - tb))
                        a = (ia * n1 + j) * m + t
                        b = (i * n1 + jb) * m + t
                        M[a, b] += v
                        M[b, a] += np.conj(v)
    return M


def _sheared_torus():
    # torus(theta = a + b, phi = b): g_01 = r^2 = 0.25 on both periodic axes
    n0, n1 = 10, 12
    A, B = np.meshgrid(2 * np.pi * np.arange(n0) / n0, 2 * np.pi * np.arange(n1) / n1,
                       indexing="ij")
    w = 2.0 + 0.5 * np.cos(A + B)
    x = np.stack([w * np.cos(B), w * np.sin(B), 0.5 * np.sin(A + B)], -1)
    return GeometryFamily("user-sampled", {"h1": 2 * np.pi / n0, "h2": 2 * np.pi / n1},
                          samples=x, closures=("periodic", "periodic"))


def _sheared_cylinder():
    n0, n1, L = 10, 9, 1.3
    T, Z = np.meshgrid(2 * np.pi * np.arange(n0) / n0, L / (n1 + 1) * np.arange(1, n1 + 1),
                       indexing="ij")
    x = np.stack([np.cos(T + 0.8 * Z), np.sin(T + 0.8 * Z), Z], -1)
    return GeometryFamily("user-sampled", {"h1": 2 * np.pi / n0, "h2": L / (n1 + 1)},
                          samples=x, closures=("periodic", "dirichlet"))


_MIXED_CHARTS = {
    "periodic-periodic": (_sheared_torus, None),
    "periodic-dirichlet": (_sheared_cylinder, None),
    "dirichlet-dirichlet": (
        lambda: GeometryFamily(
            "bumped-plane", {"lx": 2.0, "ly": 2.0, "amplitude": 0.3, "width": 0.5}
        ),
        (12, 14),
    ),
}


def _clearance_oracle(schart, period, plo, phi, cutoff):
    n, naxes = schart.shape
    s, lo, hi, period = schart.tolist(), plo.tolist(), phi.tolist(), period.tolist()
    best, bi, bj = np.inf, -1, -1
    for i in range(n):
        for j in range(i + 1, n):
            dist2 = 0.0
            for k in range(naxes):
                dk = abs(s[i][k] - s[j][k])
                if period[k] > 0.0 and dk > 0.5 * period[k]:
                    dk = period[k] - dk
                dist2 += dk * dk
            if dist2 <= cutoff * cutoff:
                continue
            m = min(
                sum((a - b) * (a - b) for a, b in zip(pa, pb))
                for pa in (lo[i], hi[i])
                for pb in (lo[j], hi[j])
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


@pytest.mark.parametrize("chart", sorted(_MIXED_CHARTS))
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("field", [False, True])
def test_mixed_terms_match_loop_oracle(chart, m, field):
    make_family, grid = _MIXED_CHARTS[chart]
    patch = build_patch(make_family(), grid)
    B = constant_field(3, [0.4, -0.3, 0.8]) if field else None
    if m == 1:
        inv = patch.metric_inv[..., None, :, :]
        alpha = None if B is None else effective_field(B, patch).alpha[..., None, :]
    else:
        layer = layer_geometry(patch, 0.25 * patch.rho_m, m)
        inv = layer.metric_inv
        alpha = None if B is None else gauge_fix(pullback(B, layer)).a_surf
    assert np.max(np.abs(inv[..., 0, 1])) > 0.01
    diag_only = np.array(inv)
    diag_only[..., 0, 1] = diag_only[..., 1, 0] = 0.0
    full = _surface_operator(patch, inv, alpha, m)
    mixed = full - _surface_operator(patch, diag_only, alpha, m)
    ref = _mixed_terms_oracle(patch, inv, alpha, m)
    # the difference keeps the rounding of the shared edge entries
    assert np.max(np.abs(mixed.toarray() - ref)) <= 1e-14 * np.max(np.abs(full.data))


def test_min_clearance_backends_agree():
    rng = np.random.default_rng(2)
    n = 300
    schart = np.stack([np.linspace(0, 10, n)], -1)
    plo = rng.normal(size=(n, 2))
    phi = plo + 0.1 * rng.normal(size=(n, 2))
    args = (schart, np.zeros(1), plo, phi, 1.0)
    assert _clearance(*args, 0.05) == _clearance_oracle(*args)


def _layer_case(family, grid, eps):
    # the arguments check_embedding hands to _clearance, every node sampled
    patch = build_patch(family, grid)
    schart, periods = _chart_arclengths(patch)
    x = patch.x.reshape(-1, patch.ambient_dim)
    n = patch.normal.reshape(-1, patch.ambient_dim)
    return (schart, periods, x - eps * n, x + eps * n, 3.0 * eps), 0.5 * eps


def _lattice_ties():
    # integer lattice points in a shuffled order: many pairs share the
    # smallest clearance 0.5, the search radius equals it exactly, and the
    # 1458 layer points span three query blocks
    rng = np.random.default_rng(5)
    pts = np.stack(np.meshgrid(*(np.arange(9.0),) * 3, indexing="ij"), -1).reshape(-1, 3)
    pts = pts[rng.permutation(len(pts))]
    schart = np.arange(len(pts), dtype=float)[:, None]
    return (schart, np.zeros(1), pts, pts + [0.0, 0.0, 0.5], 2.5), 0.5


def _no_distant_pair():
    schart = np.linspace(0.0, 1.0, 40)[:, None]
    plo = np.stack([schart[:, 0], np.zeros(40)], -1)
    return (schart, np.zeros(1), plo, plo + [0.0, 0.4], 1.2), 0.2


def _far_clearance():
    # chart-distant points lie at least the cutoff 1 apart in space, so the
    # radius 0.05 doubles five times
    rng = np.random.default_rng(6)
    s = np.sort(rng.uniform(0.0, 4.0, 120))
    plo = np.stack([s, rng.uniform(0.0, 0.5, 120)], -1)
    return (s[:, None], np.zeros(1), plo, plo + [0.0, 0.1], 1.0), 0.05


_CLEARANCE_CASES = {
    # both chart axes periodic: seam neighbours are chart-close only through
    # the period fold
    "torus-periodic-periodic": lambda: _layer_case(
        GeometryFamily("torus", {"major": 1.0, "minor": 0.6}), (12, 16), 0.3
    ),
    "lattice-ties": _lattice_ties,
    "no-distant-pair": _no_distant_pair,
    "radius-doubles": _far_clearance,
    # pole-clustered rings: the nodes around a pole are chart-distant along
    # the averaged azimuthal arclength yet close in space
    "pole-clustered-sphere": lambda: _layer_case(
        GeometryFamily("full-sphere", {"radius": 1.0}), (10, 20), 0.2
    ),
}


@pytest.mark.parametrize("case", sorted(_CLEARANCE_CASES))
def test_clearance_cases_match_loop_oracle(case):
    args, radius = _CLEARANCE_CASES[case]()
    got = _clearance(*args, radius)
    assert got == _clearance_oracle(*args)
    if case == "no-distant-pair":
        assert got == (np.inf, -1, -1)
    if case == "radius-doubles":
        assert got[0] > 8 * radius


def _all_pairs_within(pts, r):
    # every pair a < b whose squared distance, summed over the axes in order
    # as the cell list sums it, is at most r*r
    dd = pts[:, None, :] - pts[None, :, :]
    a, b = np.nonzero(np.triu(np.sum(dd * dd, axis=-1) <= r * r, 1))
    return sorted(zip(a.tolist(), b.tolist()))


def _boundary_pair():
    # two points exactly the search radius r(1 + 1e-9) of _clearance apart,
    # one at the cloud's corner, plus a third just beyond that radius
    rng = np.random.default_rng(11)
    r = 0.3 * (1.0 + 1e-9)
    beyond = np.nextafter(r, np.inf)
    pts = np.concatenate([[[0.0, 0.0, 0.0], [r, 0.0, 0.0], [0.0, beyond, 0.0]],
                          rng.uniform(2.0, 3.0, (40, 3))])
    return pts, r


def _lattice(spacing):
    # a grid at the search radius: every axis neighbour lies exactly r away,
    # on a cell boundary
    pts = np.stack(np.meshgrid(*(np.arange(6.0),) * 3, indexing="ij"), -1).reshape(-1, 3)
    return pts * spacing, spacing


_CLOUDS = {
    "random-2d": lambda: (np.random.default_rng(1).normal(size=(400, 2)), 0.15),
    "random-3d": lambda: (np.random.default_rng(2).normal(size=(500, 3)), 0.4),
    "duplicates": lambda: (np.repeat(np.random.default_rng(3).normal(size=(60, 3)), 3, axis=0),
                           0.2),
    "boundary-pair": _boundary_pair,
    "lattice": lambda: _lattice(0.7),
    "single-point": lambda: (np.array([[0.5, -1.0, 2.0]]), 0.3),
    "radius-wider-than-cloud": lambda: (np.random.default_rng(4).uniform(size=(120, 3)), 10.0),
}


@pytest.mark.parametrize("block", [7, geometry.PAIR_BLOCK])
@pytest.mark.parametrize("cloud", sorted(_CLOUDS))
def test_close_pairs_match_brute_force(cloud, block, monkeypatch):
    pts, r = _CLOUDS[cloud]()
    monkeypatch.setattr(geometry, "PAIR_BLOCK", block)
    blocks = list(_close_pairs(pts, r))
    assert all(a.size <= max(block, len(pts)) for a, _ in blocks)
    found = [tuple(sorted(p)) for a, b in blocks for p in zip(a.tolist(), b.tolist())]
    assert sorted(found) == _all_pairs_within(pts, r)  # each pair once, none missed
    if cloud == "boundary-pair":
        assert (0, 1) in found and (0, 2) not in found
    if cloud == "single-point":
        assert found == []
    if cloud == "radius-wider-than-cloud":
        assert len(found) == len(pts) * (len(pts) - 1) // 2
