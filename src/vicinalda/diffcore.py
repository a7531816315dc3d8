"""Reverse-mode automatic differentiation core.

A deliberately small tape engine: float64 numpy storage, eager ops that
record a vector-Jacobian product per node, topological-order backward,
and SGD with momentum. The taped ops are the ones the adaptation step
records: add, mul, neg, row gathering and cross entropy, plus matmul for
the benchmark tracer. Each model network is one `tape_node` (see
`model.logits_of`), held by the tests to an unfused matmul chain built on
`tape_node`. Softmax and entropy run on plain arrays, without a tape.

Tracked tensors are never mutated in place; the only writers of raw
buffers are the optimizer (parameters, velocities) and backward (the
grad of leaf tensors). The optimizer bumps a parameter's version on every
write, and backward refuses a graph built before such a write: its VJPs
would mix the old activations with the new weights.
"""

from __future__ import annotations

import numpy as np

LOG_EPS = 1e-12  # floor inside losses so log(0) never produces -inf


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's dimension contract."""


class ContractError(ValueError):
    """An op precondition (other than pure shape agreement) was violated."""


class Tensor:
    """Dense float64 array with optional gradient tracking.

    `data` is row-major float64. Nodes produced by ops carry `_parents`
    and `_vjp`, the vector-Jacobian product mapping the output gradient to
    one gradient array per parent (None for a parent that needs none).
    Tensors without a `_vjp` are leaves: parameters and other tracked
    inputs. backward() writes `grad` on leaves only, allocating it lazily
    and accumulating additively until cleared; op outputs keep grad None.
    `_version` counts the optimizer steps that wrote `data`; a node keeps
    its parents' versions as of its forward in `_parent_versions`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_version",
                 "_parent_versions")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._version = 0
        self._parent_versions: tuple[int, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all semantics live in the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, neg(other))

    def __rsub__(self, other):
        return add(other, neg(self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


def tape_node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Op output holding `data`; if a parent is tracked, it records `parents`,
    their versions, and `vjp` (output gradient -> one gradient or None per
    parent)."""
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._parent_versions = tuple(p._version for p in parents)
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return tape_node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return tape_node(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return tape_node(-a.data, (a,), lambda g: (-g,))


# kept for bench/tracer.py, which times it by name; no step path calls it
def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return tape_node(out, (a, b), vjp)


def affine_np(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
    """x @ w + b on plain arrays, the bias added in place, written into
    `out` when given (a C-contiguous [m x n] array the caller owns) and into
    a fresh array otherwise. Every affine layer, taped or not, computes
    this, so both forwards agree bit for bit: an in-place add rounds
    exactly like a fresh one, and BLAS runs the same product whether numpy
    or the caller allocated its output."""
    a = np.matmul(x, w, out=out)
    a += b
    return a


def relu_np(a: np.ndarray) -> np.ndarray:
    """ReLU in place on a plain array the caller owns; returns `a`.

    Bit for bit `np.where(a > 0.0, a, 0.0)`, without the select, which
    costs several times more. `np.fmax` returns the non-nan operand, so nan
    maps to 0.0 as in the select. For -0.0 some of its loops return -0.0,
    which the in-place `+= 0.0` turns into +0.0 (-0.0 + 0.0 is +0.0; every
    other value is unchanged). `np.maximum` alone would propagate nan and
    could keep -0.0.
    """
    np.fmax(a, 0.0, out=a)
    a += 0.0
    return a


def take_rows(a, idx) -> Tensor:
    """Gather rows by integer index; backward scatters additively."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return tape_node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# softmax, cross entropy and entropy


def softmax_np(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a float64 array, stabilized by max subtraction;
    no tape. `z` is left as it is: the exp and the divide run in place on
    the fresh `z - max`, with the bits of fresh ones."""
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """float64 one-hot rows of 1-D integer labels: the label rows
    `cross_entropy` takes."""
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def _check_label_rows(t: np.ndarray) -> None:
    # each comparison is written so that nan fails it; the .all() methods,
    # not np.all, which adds a Python-level dispatch of several
    # microseconds to every loss
    if not (t >= -1e-12).all():
        raise ContractError("label rows must be nonnegative, without nan")
    sums = t.sum(axis=1)
    if not (np.abs(sums - 1.0) <= 1e-6).all():
        raise ContractError("label rows must sum to 1 within 1e-6")


def cross_entropy(logits, target) -> Tensor:
    """Batch-mean cross entropy against one-hot or soft label rows.

    Computes mean_i of -sum_k target_ik * log(max(p_ik, eps)) with
    p = softmax(logits). The target is treated as a constant: no gradient
    flows into it even if it is a tracked tensor.
    """
    a = _as_tensor(logits)
    t = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=np.float64)
    if a.data.shape != t.shape:
        raise ShapeError(f"logits {a.shape} and target {t.shape} shapes disagree")
    _check_label_rows(t)
    m = a.data.shape[0]
    p = softmax_np(a.data)
    clipped = np.maximum(p, LOG_EPS)
    value = -(t * np.log(clipped)).sum() / m

    def vjp(g):
        # exact derivative of the clipped expression: entries at the floor
        # contribute nothing through the log
        dldp = np.where(p > LOG_EPS, -t / clipped, 0.0) / m
        dot = (dldp * p).sum(axis=1, keepdims=True)
        return (float(g) * p * (dldp - dot),)

    return tape_node(np.asarray(value), (a,), vjp)


def entropy_rows_np(logits: np.ndarray) -> np.ndarray:
    """Per-row prediction entropy, no tape. Shares the loss stabilization."""
    p = softmax_np(np.asarray(logits, dtype=np.float64))
    # log(max(p, eps)) * p in place has the bits of p * log(...): a product
    # of two doubles rounds the same in either order
    plogp = np.maximum(p, LOG_EPS)
    np.log(plogp, out=plogp)
    plogp *= p
    return -plogp.sum(axis=1)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every tracked leaf.

    Only leaves (tensors without a VJP, i.e. parameters and tracked
    inputs) receive .grad; op outputs keep grad None. Repeated calls
    without zeroing accumulate additively. Propagation uses a per-call
    table so earlier accumulated grads never feed back into the current
    pass; a node's incoming gradient leaves the table once its VJP has
    run, and a None parent gradient (one its VJP did not compute) is
    skipped. A graph whose parameters an optimizer step has written since
    it was built raises ContractError before any gradient is written.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to any tracked tensor")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, version in zip(node._parents, node._parent_versions):
            if parent._version != version:
                raise ContractError(
                    f"backward through a stale graph: parent {parent!r} was written "
                    "by an optimizer step after the loss was built"
                )
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad = node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg


# ---------------------------------------------------------------------------
# finite-difference oracle (tests and the selftest)

FD_STEP = 1e-5  # central-difference step
FD_RTOL = 1e-4  # allowed |analytic - numeric| relative to |numeric|, per tensor


def backward_grads(fn, params: list[Tensor]) -> list[np.ndarray]:
    """Copies of d fn() / d param from one backward, starting from cleared
    grads. fn takes no arguments and returns a scalar tensor."""
    for p in params:
        p.zero_grad()
    backward(fn())
    return [p.grad.copy() for p in params]


def finite_difference_grads(fn, params: list[Tensor]) -> list[np.ndarray]:
    """Central differences of fn() over every entry of every param, moving
    one entry at a time by FD_STEP and restoring it."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat, gflat = p.data.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = fn().item()
            flat[i] = orig - FD_STEP
            f_minus = fn().item()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def grad_mismatches(analytic: list[np.ndarray], numeric: list[np.ndarray]) -> list[str]:
    """One line per tensor whose analytic gradient misses the numeric one:
    relative error not below FD_RTOL, or, where |numeric| < 1e-8, absolute
    error not below 1e-8. A nan anywhere is a miss. Empty when all agree."""
    misses = []
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        norm, err = np.linalg.norm(n), np.linalg.norm(a - n)
        if not (err < 1e-8 if norm < 1e-8 else err / norm < FD_RTOL):
            misses.append(f"param {i}: |analytic - numeric| = {err:.3e}, |numeric| = {norm:.3e}")
    return misses


# ---------------------------------------------------------------------------
# optimizer


class SGD:
    """SGD with classical momentum over a fixed parameter list.

    step() applies v <- momentum*v + grad; p <- p - lr*v, then clears the
    grads of its own parameters and bumps their versions, so a graph built
    before the step can no longer be backpropagated. Parameters and
    velocity buffers are the only arrays this class mutates.
    """

    def __init__(self, params: list[Tensor], lr: float, momentum: float = 0.0):
        if not lr >= 0.0:  # written so that nan fails it
            raise ContractError(f"learning rate must be >= 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ContractError(f"momentum must be in [0, 1), got {momentum}")
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocities = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self.velocities):
            if p.grad is None:
                raise ContractError("sgd step with a missing gradient")
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v
            p.grad = None
            p._version += 1
