"""Sum factorization: integrals of the separable kernel over tensor-product rules.

Gamma(X, t; Y, tau) is a product of 1-D factors at the lag d = t - tau:
the heat kernel (4 pi d)^{-1/2} e^{-(x-y)^2/4d} on each free axis and
u_tilde on the weighted axis.  The double layer differentiates one
factor along its face's normal: the heat kernel times (x - y)/(2d),
u_tilde_dy, or at a node on y = 0 the weighted normal limit.  So an
integral of Gamma, or of its normal derivative, over a tensor product
of 1-D rules is at each time node a product of 1-D sums sum_i w_i
f(x, y_i, d), one per axis (sum factorization; Orszag, J. Comput.
Phys. 37, 1980).  BEM blocks, point evaluation, the initial lift and
the capacity entries take three steps, the heat-ball sampler two:

- table: per axis, the 1-D sums over keys, a key being an observation
  coordinate and a 1-D rule, at lags shared by all keys (BEM's time
  nodes) or set per key (capacity's class lags, the lift's
  t - t0, the sampler's lags below its pole);
- the product over axes of each entry's table rows;
- its contraction with a (lags x outputs) weight matrix.

A dense operator (BEM's blocks and the standard cells of a point
evaluation) is indexed by observation class x source class: axis k's table holds every pair of its observation
classes (a coordinate, or a coordinate and a time) and source classes
(a 1-D rule, or a point and a time), and an entry gathers the row of
its pair on each axis (dense_chunks), so no key is formed per entry;
capacity's far entries gather their class pairs the same way, from
the flat tables of a group of sets.
Sparse entries (BEM's refined near cells) take a table row per key.
Products go in chunks of at most quadrature.CHUNK_POINTS points, and so
do the kernel calls of a table.  axis_sums is one kernel call: capacity
hands it the keys of an axis of whole sets, as many as fit in
CHUNK_POINTS points or one set alone, so that no entry depends on where
a set would be split (the profile sets its series length per call, and
capacity's presolve compares entries exactly).
"""
from __future__ import annotations

import numpy as np

from .kernel import heat_kernel_1d, u_tilde, u_tilde_dy, weighted_normal_limit_vec
from .params import KernelParams
from .quadrature import CHUNK_POINTS, chunks


def axis_classes(coord: np.ndarray, t_index: np.ndarray, times: np.ndarray):
    """Distinct (coordinate, time) pairs of points on one axis.

    times holds the distinct times and t_index each point's index into
    them.  Returns each point's class and the classes' coordinates and
    times.
    """
    values, index = np.unique(coord, return_inverse=True)
    keys, cls = np.unique(index * len(times) + t_index, return_inverse=True)
    return cls, values[keys // len(times)], times[keys % len(times)]


def axis_sums(params: KernelParams, axis, normal, x, nodes, weights, counts, lags) -> np.ndarray:
    """Sum of w factor(x, node, d) over each key's 1-D rule of one axis, at each of its lags.

    x holds one observation coordinate per key; nodes and weights are
    the keys' rules back to back, counts[r] nodes for key r (or one
    count for all); lags is (L,), shared by every key, or (keys, L).
    The factor is the heat kernel on a free axis and u_tilde on the
    weighted one; on a face's normal axis (normal) it is the normal
    derivative: the heat kernel times (x - y)/(2d), u_tilde_dy, or the
    weighted normal limit at a node on y = 0.  One kernel call; returns
    (keys, L).
    """
    x, lags = np.asarray(x, dtype=float), np.asarray(lags, dtype=float)
    counts = np.broadcast_to(counts, x.shape)
    # keys of one node each need no repeats, and each is its own sum
    one = len(nodes) == len(x)
    xs, y = (x if one else np.repeat(x, counts))[:, None], nodes[:, None]
    d = lags if lags.ndim == 1 or one else np.repeat(lags, counts, axis=0)
    if axis < params.n - 1:
        vals = heat_kernel_1d(xs, y, d)
        if normal:
            vals *= (xs - y) * np.divide(0.5, d, out=np.zeros_like(d), where=d > 0.0)
    elif not normal:
        vals = u_tilde(params, xs, y, d)
    else:
        d = np.broadcast_to(d, (len(nodes), d.shape[-1]))
        plane = nodes == 0.0
        vals = np.empty(d.shape)
        vals[~plane] = u_tilde_dy(params, xs[~plane], y[~plane], d[~plane])
        if plane.any():
            vals[plane] = weighted_normal_limit_vec(params, xs[plane], d[plane])
    vals *= weights[:, None]
    return vals if one else np.add.reduceat(vals, np.cumsum(counts) - counts, axis=0)


def table(params: KernelParams, axis: int, normal: bool, x, nodes, weights, counts, lags):
    """axis_sums in kernel calls of at most CHUNK_POINTS nodes times lags, (keys, L)."""
    x, lags = np.asarray(x, dtype=float), np.asarray(lags, dtype=float)
    counts = np.broadcast_to(counts, x.shape)
    ends, out = np.cumsum(counts), np.empty((len(x), lags.shape[-1]))
    for k0, k1 in chunks(counts * lags.shape[-1], CHUNK_POINTS):
        d = lags if lags.ndim == 1 else lags[k0:k1]
        rule = slice(ends[k0] - counts[k0], ends[k1 - 1])
        args = (x[k0:k1], nodes[rule], weights[rule], counts[k0:k1], d)
        out[k0:k1] = axis_sums(params, axis, normal, *args)
    return out


def dense_chunks(tables, obs, src):
    """Yield (lo, hi, product) over the rows of a dense operator.

    tables[k] is axis k's (observation classes, source classes, L)
    table, and obs[k] and src[k] the rows' and columns' classes on axis
    k; product[r, c] = prod_k tables[k][obs[k][lo + r], src[k][c]].  All
    chunks share one buffer, so a chunk is overwritten by the next.
    """
    rows, cols, width = len(obs[0]), len(src[0]), tables[0].shape[-1]
    step = max(1, CHUNK_POINTS // (cols * width))
    buf = np.empty((min(step, rows), cols, width))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        prod = buf[: hi - lo]
        for k, tab in enumerate(tables):
            # gather the chunk's rows of the small table, then their columns; the
            # indices are in range, and with mode "raise" take would buffer out
            part = tab[obs[k][lo:hi]]
            if k == 0:
                part.take(src[k], axis=1, out=prod, mode="clip")
            else:
                prod *= part.take(src[k], axis=1)
        yield lo, hi, prod


def dense(tables, obs, src, weights: np.ndarray) -> np.ndarray:
    """The (rows, columns, outputs) dense operator: dense_chunks contracted with weights."""
    out = np.empty((len(obs[0]), len(src[0]), weights.shape[1]))
    for lo, hi, prod in dense_chunks(tables, obs, src):
        out[lo:hi] = prod @ weights
    return out
