"""Model: encoder, classifier, and the ratio-learner head.

Two disjoint parameter groups: theta (encoder + classifier) and phi (the
ratio learner that scores the 11-point mixing-ratio grid per source/target
pair). An optimizer step on one group never touches the other.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .diffcore import ContractError, ShapeError, Tensor, affine_np, one_hot, relu_np, tape_node

CHECKPOINT_MAGIC = b"VDACKPT1"
CHECKPOINT_VERSION = 1

RATIO_GRID_SIZE = 11
# The fixed mixing-ratio grid 0.0, 0.1, ..., 1.0, built as k/10 so every
# entry equals the decimal literal exactly (k*0.1 drifts in the last bit at
# k=3 and k=7). Read-only: every module shares this one array.
RATIO_GRID = np.arange(RATIO_GRID_SIZE) / 10.0
RATIO_GRID.setflags(write=False)


@dataclass
class ModelParams:
    """Named parameter tensors plus the dimensions they were built for."""

    enc_w1: Tensor
    enc_b1: Tensor
    enc_w2: Tensor
    enc_b2: Tensor
    cls_w: Tensor
    cls_b: Tensor
    emp_w1: Tensor
    emp_b1: Tensor
    emp_w2: Tensor
    emp_b2: Tensor
    d: int
    n_classes: int
    feat_dim: int
    hidden: int
    hidden_g: int
    seed: int

    def theta_params(self) -> list[Tensor]:
        """Encoder + classifier parameters."""
        return [self.enc_w1, self.enc_b1, self.enc_w2, self.enc_b2, self.cls_w, self.cls_b]

    def phi_params(self) -> list[Tensor]:
        """Ratio-learner parameters."""
        return [self.emp_w1, self.emp_b1, self.emp_w2, self.emp_b2]

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [(n, getattr(self, n)) for n in PARAM_NAMES]

    def dims(self) -> dict[str, int]:
        return {n: getattr(self, n) for n in DIM_NAMES}


PARAM_NAMES = (
    "enc_w1", "enc_b1", "enc_w2", "enc_b2",
    "cls_w", "cls_b",
    "emp_w1", "emp_b1", "emp_w2", "emp_b2",
)
DIM_NAMES = ("d", "n_classes", "feat_dim", "hidden", "hidden_g")


def _param_shapes(d, n_classes, feat_dim, hidden, hidden_g) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in PARAM_NAMES order; weights are
    [fan_in x fan_out], biases 1-D. Every dimension must be >= 1."""
    for name, v in zip(DIM_NAMES, (d, n_classes, feat_dim, hidden, hidden_g)):
        if v < 1:
            raise ContractError(f"{name} must be >= 1, got {v}")
    shapes = (
        (d, hidden), (hidden,), (hidden, feat_dim), (feat_dim,),
        (feat_dim, n_classes), (n_classes,),
        (2 * feat_dim, hidden_g), (hidden_g,), (hidden_g, RATIO_GRID_SIZE), (RATIO_GRID_SIZE,),
    )
    return list(zip(PARAM_NAMES, shapes))


def _params_from(dims: dict[str, int], seed: int, arrays) -> ModelParams:
    """ModelParams holding `arrays`, in PARAM_NAMES order, as trainable leaves."""
    tensors = {n: Tensor(a, requires_grad=True) for n, a in zip(PARAM_NAMES, arrays)}
    return ModelParams(**tensors, **dims, seed=seed)


def _uniform_fan_in(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, (fan_in, fan_out))


def init_model(
    d: int,
    n_classes: int,
    feat_dim: int = 32,
    hidden: int = 64,
    hidden_g: int = 64,
    seed: int = 0,
) -> ModelParams:
    """Fan-in-scaled uniform weights, zero biases, deterministic under seed."""
    dims = dict(d=d, n_classes=n_classes, feat_dim=feat_dim, hidden=hidden, hidden_g=hidden_g)
    rng = np.random.default_rng(seed)
    # weights drawn in PARAM_NAMES order
    arrays = [_uniform_fan_in(rng, *shape) if len(shape) == 2 else np.zeros(shape)
              for _, shape in _param_shapes(**dims)]
    return _params_from(dims, seed, arrays)


# Scratch arrays: the forwards and VJPs below write their temporaries into
# arrays from a per-thread free list, so the wide step reuses its memory
# instead of page-faulting on fresh arrays. This module alone decides when
# an array goes back: a tape-free forward gives its temporaries back before
# it returns, a VJP its own right away, and a network node its activations
# once the node is released. Nothing handed to a caller is a scratch array.

# Arrays under glibc's default mmap threshold (128 KiB) come from the heap
# without page faults, so below it the forwards let numpy allocate: the free
# list's bookkeeping would cost more than it saves at the 64-row shapes.
_SCRATCH_MIN_BYTES = 128 * 1024
# Arrays over 4 MiB bypass the list too, so one large batch does not pin its
# temporaries for the life of the thread (a 20,000-row tape at hidden 256
# makes 41 MB ones). Each benchmark workload's largest temporary is 1 MiB
# (512 rows at hidden 256), so their steady state stays on the list.
_SCRATCH_MAX_BYTES = 4 * 1024 * 1024


class _FreeLists(threading.local):
    """Per thread: (dtype, width) -> arrays a forward may write into."""

    def __init__(self):
        self.free: dict[tuple[type, int], list[np.ndarray]] = {}


_scratch = _FreeLists()
_ITEMSIZE = {np.float64: 8, np.bool_: 1}


def _take_scratch(shape: tuple[int, ...], dtype: type = np.float64) -> np.ndarray | None:
    """The `out=` argument for a numpy call that makes a temporary of
    `shape`: None outside _SCRATCH_MIN_BYTES to _SCRATCH_MAX_BYTES, so
    numpy allocates a fresh array, and otherwise an uninitialized
    C-contiguous array from this thread's free list, which keeps arrays by
    dtype and last dimension and lends the leading rows of one with room.
    A popped array that is too small is dropped, so each list holds no more
    arrays than were ever taken at once, none over _SCRATCH_MAX_BYTES."""
    width, rows = shape[-1], math.prod(shape[:-1])
    if not _SCRATCH_MIN_BYTES <= rows * width * _ITEMSIZE[dtype] <= _SCRATCH_MAX_BYTES:
        return None
    free = _scratch.free.get((dtype, width))
    if free:
        a = free.pop()
        if a.shape[0] >= rows:
            return a[:rows].reshape(shape)
    return np.empty((rows, width), dtype).reshape(shape)


def _give_scratch(*arrays: np.ndarray) -> None:
    """Hand arrays made with _take_scratch's `out=` back to this thread's
    free list; the fresh ones numpy made outside the size gates are let go.
    The caller must not touch them afterwards; each may be given once."""
    free = _scratch.free
    for a in arrays:
        owner = a if a.base is None else a.base
        if _SCRATCH_MIN_BYTES <= owner.nbytes <= _SCRATCH_MAX_BYTES:
            free.setdefault((owner.dtype.type, owner.shape[1]), []).append(owner)


def _constant(x: Tensor) -> np.ndarray:
    # the network nodes compute no input gradient; a tracked input would lose its own
    if x.requires_grad:
        raise ContractError("model forwards take constant inputs, got a tracked tensor")
    return x.data


def _scratch_affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b into a scratch array."""
    return affine_np(x, w, b, _take_scratch((x.shape[0], w.shape[1])))


def _hidden_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU(x @ w + b) and its `pre-activation > 0` mask, both scratch; the
    mask is taken before the ReLU runs in place."""
    h = _scratch_affine(x, w, b)
    mask = np.greater(h, 0.0, out=_take_scratch(h.shape, np.bool_))
    return relu_np(h), mask


def _hidden_vjp(g: np.ndarray, w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(g @ w.T) * mask into a scratch array: the multiply runs in place."""
    gh = np.matmul(g, w.T, out=_take_scratch((g.shape[0], w.shape[0])))
    gh *= mask
    return gh


def logits_of(p: ModelParams, x: Tensor) -> Tensor:
    """Class logits of constant inputs, as one tape node whose parents are
    the theta parameters. The forward runs the steps of `forward_np`; the
    VJP runs the three layer VJPs from last to first. The activations are
    scratch arrays that go back to the free list when the node is released,
    not when the VJP runs, so a graph can be backpropagated more than once:
    only the node holds the VJP, and a finalizer on the VJP gives them back."""
    x = _constant(x)
    _check_inputs(p, x)
    w1, b1, w2, b2, wc, bc = (t.data for t in p.theta_params())
    h, mask = _hidden_layer(x, w1, b1)
    z = affine_np(h, w2, b2, _take_scratch((x.shape[0], p.feat_dim)))

    def vjp(g):
        gz = np.matmul(g, wc.T, out=_take_scratch((g.shape[0], p.feat_dim)))
        gh = _hidden_vjp(gz, w2, mask)
        grads = x.T @ gh, gh.sum(axis=0), h.T @ gz, gz.sum(axis=0), z.T @ g, g.sum(axis=0)
        _give_scratch(gz, gh)
        return grads

    weakref.finalize(vjp, _give_scratch, h, mask, z)
    return tape_node(affine_np(z, wc, bc), tuple(p.theta_params()), vjp)


def _pair_scratch(zs: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """[zs | zt] into a scratch array."""
    if zs.shape != zt.shape:
        raise ShapeError(f"feature pair shapes disagree: {zs.shape} vs {zt.shape}")
    return np.concatenate([zs, zt], axis=1, out=_take_scratch((zs.shape[0], 2 * zs.shape[1])))


def emp_forward(p: ModelParams, zs: Tensor, zt: Tensor) -> Tensor:
    """Grid logits for each pair of constant source/target features, one
    row per pair, as one tape node whose parents are the phi parameters.
    Its scratch arrays go back when the node is released, as in
    `logits_of`."""
    pair = _pair_scratch(_constant(zs), _constant(zt))
    w1, b1, w2, b2 = (t.data for t in p.phi_params())
    h, mask = _hidden_layer(pair, w1, b1)

    def vjp(g):
        gh = _hidden_vjp(g, w2, mask)
        grads = pair.T @ gh, gh.sum(axis=0), h.T @ g, g.sum(axis=0)
        _give_scratch(gh)
        return grads

    weakref.finalize(vjp, _give_scratch, pair, h, mask)
    return tape_node(affine_np(h, w2, b2), tuple(p.phi_params()), vjp)


# Rows per block of the tape-free forward. Blocks keep each BLAS call at the
# shape it has always had, so the bits stay put (see `forward_np`), and keep
# a block's temporaries cache-sized. Why 480 (OpenBLAS 0.3.31, two threads,
# 2-core x86-64): OpenBLAS splits a 256-row product poorly across its two
# threads, so 256 x 16 @ 16 x 256 takes about 75 us, far longer than 257
# rows (42 us); over the wide grid table's 5632 rows (16 -> 256 -> 64 -> 5)
# 256-row blocks took 7.9 ms and 480-row blocks 5.6 ms. Not 512: OpenBLAS
# runs a product of at most 10^6 multiply-adds single-threaded, and 512 rows
# push the default shape's 64 -> 32 layer past that (489 rows do), onto the
# threaded path. That made the default evaluate slower (406 -> 569 us over
# 2000 rows), and with two processes sharing the two cores each waited on
# the other's BLAS threads: 24 ms per 2000-row forward, trains 3-5x slower. A
# 480-row block's widest temporary, the hidden layer at hidden 256, is
# 960 KiB and fits the 2 MiB per-core L2. The temporaries are scratch
# arrays, reused across calls.
FORWARD_BLOCK_ROWS = 480


def _row_blocks(m: int):
    """Row slices of at most FORWARD_BLOCK_ROWS rows. A would-be one-row
    tail joins the block before it: numpy multiplies a single row through
    a matrix-vector kernel whose sums can differ in the last bit from the
    matrix-matrix kernel the taped forward uses for the same row."""
    start = 0
    while start < m:
        stop = start + FORWARD_BLOCK_ROWS
        if stop >= m - 1:
            stop = m
        yield slice(start, stop)
        start = stop


def _by_row_blocks(fn, width: int, x: np.ndarray) -> np.ndarray:
    """fn(block, out) over row blocks of x, each writing its rows of a
    fresh [m x width] output; one block gets out=None, so fn allocates."""
    m = x.shape[0]
    if m <= FORWARD_BLOCK_ROWS + 1:
        return fn(x, None)
    out = np.empty((m, width))
    for rows in _row_blocks(m):
        fn(x[rows], out[rows])
    return out


# The plain-array layers run the steps of the taped nodes (diffcore.affine_np,
# diffcore.relu_np), so both forwards agree bit for bit. Each writes its
# result into `out` (None: a fresh array) and gives its scratch back.
def _encode_rows(p: ModelParams, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    h = relu_np(_scratch_affine(x, p.enc_w1.data, p.enc_b1.data))
    z = affine_np(h, p.enc_w2.data, p.enc_b2.data, out)
    _give_scratch(h)
    return z


def _classify_rows(p: ModelParams, z: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    return affine_np(z, p.cls_w.data, p.cls_b.data, out)


def _logits_rows(p: ModelParams, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    z = _encode_rows(p, x, _take_scratch((x.shape[0], p.feat_dim)))
    logits = _classify_rows(p, z, out)
    _give_scratch(z)
    return logits


def _check_inputs(p: ModelParams, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != p.d:
        raise ShapeError(f"model inputs must be [m x {p.d}], got {x.shape}")


def encode_np(p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Tape-free encoder features: the hidden and feature layers of
    `forward_np`, without the classifier."""
    _check_inputs(p, x)
    return _by_row_blocks(lambda xb, out: _encode_rows(p, xb, out), p.feat_dim, x)


def classify_np(p: ModelParams, z: np.ndarray) -> np.ndarray:
    """Tape-free class logits of encoder features: the classifier half of
    `forward_np`. It runs the same row blocks, so
    `classify_np(p, encode_np(p, x))` has the bits of `forward_np(p, x)`."""
    if z.ndim != 2 or z.shape[1] != p.feat_dim:
        raise ShapeError(f"features must be [m x {p.feat_dim}], got {z.shape}")
    return _by_row_blocks(lambda zb, out: _classify_rows(p, zb, out), p.n_classes, z)


def forward_np(p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Tape-free class logits: the same values as `logits_of`, bit for bit.
    Every forward that needs no gradient goes through here.

    Row blocking keeps the bits only while BLAS sums each row of a block
    in the same order as in the whole matrix; the tests pin this at the
    default and the wide (16 -> 256 -> 64 -> 5) shapes up to 2000 rows.
    """
    _check_inputs(p, x)
    return _by_row_blocks(lambda xb, out: _logits_rows(p, xb, out), p.n_classes, x)


def grid_logits(p: ModelParams, xs: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Class logits of every source/target pair mixed at every grid ratio,
    shape [11m x n_classes], ratio-major: rows k*m to (k+1)*m - 1 hold
    ratio k. One stacked forward, with the same elementwise mix as one
    forward per ratio. A row keeps the bits of its per-ratio forward where
    BLAS sums it alike in both: always when m is the forward block, since
    each ratio is then one block, and otherwise as measured (OpenBLAS,
    x86-64) at the default shape for every m that is a multiple of 4, as
    the default batch of 64 is, and at the wide shape for every m tried,
    the wide batch of 512 included.
    """
    shape = (RATIO_GRID_SIZE, *xs.shape)
    grid = RATIO_GRID[:, None, None]
    # vicinal.mix_np's two products and their sum, into scratch arrays
    mixes = np.multiply(1.0 - grid, xs, out=_take_scratch(shape))
    part = np.multiply(grid, xt, out=_take_scratch(shape))
    mixes += part
    logits = forward_np(p, mixes.reshape(-1, xs.shape[1]))
    _give_scratch(mixes, part)
    return logits


def emp_forward_np(p: ModelParams, zs: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """Tape-free grid logits: the same values as `emp_forward`, bit for bit.

    Not row-blocked: it only sees one batch of pairs, and its narrow
    64 -> 11 output layer is where OpenBLAS switches kernels with the row
    count (past about 1500 rows a block and the whole matrix round apart).
    """
    pair = _pair_scratch(zs, zt)
    h = relu_np(_scratch_affine(pair, p.emp_w1.data, p.emp_b1.data))
    logits = affine_np(h, p.emp_w2.data, p.emp_b2.data)
    _give_scratch(pair, h)
    return logits


def one_hot_argmax(logits: np.ndarray, n_classes: int) -> np.ndarray:
    """Row-wise argmax as one-hot; ties resolve to the lowest class index."""
    return one_hot(np.argmax(logits, axis=1), n_classes)


def pseudo_labels(p: ModelParams, xt: Tensor) -> Tensor:
    """One-hot argmax predictions on target rows; constant, no gradient."""
    return Tensor(one_hot_argmax(forward_np(p, xt.data), p.n_classes))


@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Open `<path>.tmp` for writing and rename it over `path` once the
    block ends, so a write that fails part-way leaves the previous file,
    never a truncated one, and removes the temp file. Text mode writes
    UTF-8 with the newlines as given."""
    tmp = path + ".tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(p: ModelParams, path: str) -> None:
    """Single-file checkpoint: magic, JSON header, raw float64 arrays.
    Written atomically (`atomic_open`)."""
    arrays = [(name, t.data) for name, t in p.named_params()]
    header = {
        "version": CHECKPOINT_VERSION,
        "dims": p.dims(),
        "seed": p.seed,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    """Read back a save_checkpoint file. A file that is not exactly one
    whole checkpoint (other magic, cut short, trailing bytes, a header that
    does not describe the model's arrays) raises ContractError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ContractError(f"{path} is not a checkpoint file")
    offset = len(CHECKPOINT_MAGIC) + 4
    if len(raw) < offset:
        raise ContractError(f"{path}: checkpoint truncated in its header")
    (hlen,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
    if len(raw) < offset + hlen:
        raise ContractError(f"{path}: checkpoint truncated in its header")
    try:
        header = json.loads(raw[offset : offset + hlen].decode("utf-8"))
        version = header["version"]
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["arrays"]]
        n_bytes = 8 * sum(math.prod(shape) for _, shape in specs)
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ContractError(f"{path}: malformed checkpoint header ({exc!r})") from None
    if version != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {version}")
    offset += hlen
    # checked before anything the header asks for is allocated
    if len(raw) - offset != n_bytes:
        raise ContractError(
            f"{path}: checkpoint holds {len(raw) - offset} array bytes, expected {n_bytes}"
        )
    dims, seed = header.get("dims"), header.get("seed")
    if not (isinstance(dims, dict) and set(dims) == set(DIM_NAMES)
            and all(type(v) is int for v in dims.values())
            and type(seed) is int and seed >= 0):
        raise ContractError(
            f"{path}: malformed checkpoint header (dims {dims!r}, seed {seed!r}); expected "
            f"integer dims {', '.join(DIM_NAMES)} and a non-negative integer seed"
        )
    expected = _param_shapes(**dims)
    if specs != expected:
        raise ContractError(f"{path}: checkpoint arrays {specs} do not match the model {expected}")
    arrays = []
    for _, shape in expected:
        a = np.frombuffer(raw, dtype="<f8", count=math.prod(shape), offset=offset)
        arrays.append(a.reshape(shape).copy())
        offset += a.nbytes
    return _params_from(dims, seed, arrays)
