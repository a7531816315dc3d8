"""Taped ops that only the tests need, built on `diffcore.tape_node`,
plain-array reference forwards, and the parameter copy and dominance
counts the acceptance criteria read.

The package tapes each network as one fused node (`model.logits_of`,
`model.emp_forward`). The tests hold those nodes to the unfused chain
below, matmul -> add -> relu as separate nodes, and reduce graphs to a
scalar with `tsum`/`tmean` for the finite-difference oracle. The `plain_*`
forwards allocate every temporary fresh; the model's forwards, which write
into reused scratch arrays, are held to their bits.
"""

import numpy as np

from vicinalda import diffcore as dc
from vicinalda.diffcore import Tensor
from vicinalda.model import FORWARD_BLOCK_ROWS, RATIO_GRID, ModelParams, forward_np
from vicinalda.vicinal import mix_np


def select_relu(a):
    """ReLU as a select: nan maps to 0.0 and -0.0 to +0.0. `relu_np` must
    reproduce it bit for bit."""
    return np.where(a > 0.0, a, 0.0)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return dc.tape_node(select_relu(a.data), (a,), lambda g: (g * mask,))


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    return dc.tape_node(
        np.asarray(a.data.sum()), (a,), lambda g: (np.full_like(a.data, float(g)),)
    )


def tmean(a: Tensor) -> Tensor:
    """Mean of all entries, as a scalar tensor."""
    n = a.data.size
    return dc.tape_node(
        np.asarray(a.data.mean()), (a,), lambda g: (np.full_like(a.data, float(g) / n),)
    )


def unfused_features(p, x):
    """The encoder as the matmul -> add -> relu chain of separate nodes."""
    h = relu(dc.matmul(x, p.enc_w1) + p.enc_b1)
    return dc.matmul(h, p.enc_w2) + p.enc_b2


def unfused_logits_of(p, x):
    return dc.matmul(unfused_features(p, x), p.cls_w) + p.cls_b


def unfused_emp_forward(p, zs, zt):
    pair = Tensor(np.concatenate([zs.data, zt.data], axis=1))
    h = relu(dc.matmul(pair, p.emp_w1) + p.emp_b1)
    return dc.matmul(h, p.emp_w2) + p.emp_b2


# Plain-array forwards with every temporary fresh and nothing written in
# place but the bias add. The model's forwards, which write into scratch
# arrays and rectify in place, must give these bits.


def plain_affine(x, w, b):
    a = x @ w
    a += b
    return a


def plain_row_blocks(m):
    """forward_np's row blocks: FORWARD_BLOCK_ROWS rows each, a would-be
    one-row tail joined to the block before it."""
    start = 0
    while start < m:
        stop = start + FORWARD_BLOCK_ROWS
        stop = m if stop >= m - 1 else stop
        yield slice(start, stop)
        start = stop


def plain_blocked(fn, x):
    return np.concatenate([fn(x[rows]) for rows in plain_row_blocks(x.shape[0])])


def plain_encode_rows(p, x):
    h = select_relu(plain_affine(x, p.enc_w1.data, p.enc_b1.data))
    return plain_affine(h, p.enc_w2.data, p.enc_b2.data)


def plain_encode(p, x):
    return plain_blocked(lambda xb: plain_encode_rows(p, xb), x)


def plain_forward(p, x):
    return plain_blocked(
        lambda xb: plain_affine(plain_encode_rows(p, xb), p.cls_w.data, p.cls_b.data), x)


def plain_emp_forward(p, zs, zt):
    pair = np.concatenate([zs, zt], axis=1)
    h = select_relu(plain_affine(pair, p.emp_w1.data, p.emp_b1.data))
    return plain_affine(h, p.emp_w2.data, p.emp_b2.data)


def plain_grid_logits(p, xs, xt):
    return plain_forward(p, mix_np(xs, xt, RATIO_GRID[:, None, None]).reshape(-1, xs.shape[1]))


def plain_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def plain_entropy_rows(z):
    p = plain_softmax(z)
    return -(p * np.log(np.maximum(p, dc.LOG_EPS))).sum(axis=1)


def copy_params(p: ModelParams) -> ModelParams:
    """Deep copy of all parameter tensors (fresh, untracked buffers)."""
    tensors = {name: Tensor(t.data.copy(), requires_grad=True) for name, t in p.named_params()}
    return ModelParams(**tensors, **p.dims(), seed=p.seed)


def dominance_fractions(p, pairs, ys) -> tuple[float, float]:
    """Fraction of kept pairs whose view top-1 equals the source label,
    for the source-dominant and target-dominant views respectively."""
    if pairs.n_kept == 0:
        return 0.0, 0.0
    src_label = ys.data[pairs.kept_indices].argmax(axis=1)
    top_sd = forward_np(p, pairs.x_sd.data).argmax(axis=1)
    top_td = forward_np(p, pairs.x_td.data).argmax(axis=1)
    return float(np.mean(top_sd == src_label)), float(np.mean(top_td == src_label))
