"""Separable-integral engine: 1-D sums, class-indexed products, batched tables.

Every reference below is built from the kernel's 1-D factors one node,
one lag or one entry at a time, so it shares no batching, chunking or
indexing with the engine.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from degenheat import capacity
from degenheat.bem import BoundaryMesh, _time_rule
from degenheat.geometry import BoxDomain
from degenheat.kernel import heat_kernel_1d, u_tilde, u_tilde_dy, weighted_normal_limit_vec
from degenheat.params import KernelParams
from degenheat.quadrature import flat_lattice, legendre_rule
from degenheat.separable import axis_classes, dense, dense_chunks, table

PARAMS = KernelParams(n=2, a=0.3)


def _factor(params, axis, normal, x, y, d):
    """One node's factor at one lag, from the kernel's 1-D functions."""
    if d <= 0.0:
        return 0.0
    if axis < params.n - 1:
        value = float(heat_kernel_1d(x, y, d))
        return value * (x - y) / (2.0 * d) if normal else value
    if not normal:
        return float(u_tilde(params, x, y, d))
    if y == 0.0:
        return float(weighted_normal_limit_vec(params, x, d))
    return float(u_tilde_dy(params, x, y, d))


def _node_sum(params, axis, normal, x, nodes, weights, lags):
    return [
        math.fsum(w * _factor(params, axis, normal, x, y, d) for y, w in zip(nodes, weights))
        for d in lags
    ]


# (axis, normal, nodes): the heat kernel and its normal derivative on the free
# axis, u_tilde and u_tilde_dy on the weighted axis, and at a node on y = 0 the
# weighted normal limit
KINDS = {
    "heat": (0, False, [0.1, 0.35, 0.8]),
    "heat-normal": (0, True, [0.1, 0.35, 0.8]),
    "u_tilde": (1, False, [0.2, 0.45, 1.1]),
    "u_tilde_dy": (1, True, [0.2, 0.45, 1.1]),
    "normal-limit": (1, True, [0.0]),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("a", [-0.5, 0.3])
def test_table_equals_direct_node_sums(kind, a):
    # keys of one to three nodes, lags shared by all keys, then lags set per key:
    # a zero or negative lag (snapped, or acausal) gives 0
    params = KernelParams(n=2, a=a)
    axis, normal, nodes = KINDS[kind]
    rng = np.random.default_rng(11)
    x = np.array([0.3, 0.6, 1.4])
    counts = [len(nodes), 1, len(nodes)]
    key_nodes = [nodes, nodes[:1], nodes[::-1]]
    key_weights = [rng.uniform(0.1, 1.0, c) for c in counts]
    args = (x, np.concatenate(key_nodes), np.concatenate(key_weights), counts)
    shared = np.array([0.05, 0.3, 0.9])
    per_key = np.array([[0.05, 0.0, 0.3], [0.9, -0.2, 0.01], [1e-3, 0.5, 2.0]])
    for lags in (shared, per_key):
        got = table(params, axis, normal, *args, lags)
        for r in range(len(x)):
            key_lags = lags if lags.ndim == 1 else lags[r]
            want = _node_sum(params, axis, normal, x[r], key_nodes[r], key_weights[r], key_lags)
            assert got[r] == pytest.approx(want, rel=1e-13, abs=0.0)
    assert np.all(table(params, axis, normal, *args, per_key)[per_key <= 0.0] == 0.0)


def test_snapped_lags_give_zero():
    # a collar row a few ulps above an atom's slice: capacity snaps the lag to 0,
    # where the raw kernel at that lag would be huge
    h = 0.1
    pair = [np.array([v]) for v in (0.5, h * h * 1e-12, 0.5, 0.0)]
    far = (*pair, h, h * h, 1e-9 * h * h)
    zero, nodes = np.zeros(1), legendre_rule(3)[0]
    for axis in (0, 1):
        (t,) = capacity._class_tables(PARAMS, axis, [far], zero)
        assert t.shape == (1, 1) and t[0, 0] == 0.0
        # the cell's time nodes: the lowest lies well before the row's time, the
        # middle one at the atom's time is snapped, and the top one is acausal
        (means,) = capacity._class_tables(PARAMS, axis, [far], nodes)
        assert means[0, 0] > 0.0 and np.all(means[0, 1:] == 0.0)


def _mesh():
    box = BoxDomain(lo=(0.0, 0.0), hi=(1.0, 1.0), t0=0.0, t1=1.0)
    return BoundaryMesh(box, PARAMS, d_space=2, n_steps=3)


def test_dense_gather_equals_per_entry_build_on_a_mesh():
    # every (observation cell, source cell) entry of a mesh with a face on y = 0,
    # each from its own one-key tables, against the class-indexed gather
    mesh = _mesh()
    parts = [mesh._delta_rule(0.0, 0.5 * mesh.ht), mesh._delta_rule(0.5 * mesh.ht, 1.5 * mesh.ht)]
    d_nodes, d_wts = _time_rule(parts)
    obs, tables, _ = mesh._tables(mesh.centers, d_nodes, [])
    got = dense(tables, obs, mesh.cell_rule.T, d_wts)
    m = mesh.n_cells
    assert got.shape == (m, m, 2)
    for p in range(m):
        for c in range(m):
            prod = np.ones(len(d_nodes))
            for i in range(mesh.box.n):
                nodes, weights = mesh.axis_rules[i][mesh.cell_rule[c, i]]
                normal = mesh.normal_axis[c] == i
                x = mesh.centers[p, i : i + 1]
                prod *= table(PARAMS, i, normal, x, nodes, weights, len(nodes), d_nodes)[0]
            assert got[p, c] == pytest.approx(prod @ d_wts, rel=1e-13, abs=1e-300)


def test_dense_gather_equals_per_entry_build_on_a_lattice():
    # point sources: a small flat lattice's atoms seen from their collar rows, one
    # cell above in time; each entry is Gamma at the atom, the product of its factors
    sp, ts, h_space, h_time = flat_lattice([0.0, 0.5], [0.5, 1.0], 4)
    rows_sp, rows_t = sp, ts + h_time
    row_times, row_ti = np.unique(rows_t, return_inverse=True)
    atom_times, atom_ti = np.unique(ts, return_inverse=True)
    obs, src, tables = [], [], []
    for k in range(2):
        rc, rx, rt = axis_classes(rows_sp[:, k], row_ti, row_times)
        ac, ax, at = axis_classes(sp[:, k], atom_ti, atom_times)
        lags = (rt[:, None] - at).reshape(-1, 1)
        x, y = np.repeat(rx, len(ax)), np.tile(ax, len(rx))
        sums = table(PARAMS, k, False, x, y, np.ones(len(y)), 1, lags)
        tables.append(sums.reshape(len(rx), len(ax), 1))
        obs.append(rc)
        src.append(ac)
    chunks = list(dense_chunks(tables, obs, src))
    assert [(lo, hi) for lo, hi, _ in chunks] == [(0, len(ts))]
    got = chunks[0][2][..., 0]
    for r in range(len(ts)):
        for c in range(len(ts)):
            want = 1.0
            for k in range(2):
                want *= _factor(PARAMS, k, False, rows_sp[r, k], sp[c, k], rows_t[r] - ts[c])
            assert got[r, c] == pytest.approx(want, rel=1e-13)


def test_batch_of_sets_equals_per_set_calls():
    # the key groups of three sets (different cell sides, so different snaps and
    # node offsets) from one table call per axis, against a call per set; the
    # profile's term count is set per call, which moves last bits only
    nodes = legendre_rule(3)[0]
    rng = np.random.default_rng(5)
    groups = []
    for h in (0.05, 0.1, 0.2):
        m = 30
        x, y = rng.uniform(0.2, 1.2, m), rng.uniform(0.2, 1.2, m)
        t, s = rng.uniform(0.0, 0.5, m), rng.uniform(0.0, 0.5, m)
        groups.append((x, t, y, s, h, h * h, 1e-9 * h * h))
    for axis in (0, 1):
        for offsets in (np.zeros(1), nodes):
            batch = capacity._class_tables(PARAMS, axis, groups, offsets)
            for group, got in zip(groups, batch):
                (alone,) = capacity._class_tables(PARAMS, axis, [group], offsets)
                assert got.shape == alone.shape == (30, len(offsets))
                assert np.allclose(got, alone, rtol=1e-14, atol=0.0)
