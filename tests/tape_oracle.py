"""Taped ops that only the tests need, built on `diffcore.tape_node`.

The package tapes each network as one fused node (`model.logits_of`,
`model.emp_forward`). The tests hold those nodes to the unfused chain
below, matmul -> add -> relu as separate nodes, and reduce graphs to a
scalar with `tsum`/`tmean` for the finite-difference oracle.
"""

import numpy as np

from vicinalda import diffcore as dc
from vicinalda.diffcore import Tensor


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
