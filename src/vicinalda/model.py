"""Model: encoder, classifier, and the ratio-learner head.

Two disjoint parameter groups: theta (encoder + classifier) and phi (the
ratio learner that scores the 11-point mixing-ratio grid per source/target
pair). An optimizer step on one group never touches the other.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import struct
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


# glibc's allocator, set once for the process. Trim is the setting that
# matters: at its default glibc hands the free top of the heap back to the
# kernel once it passes 128 KiB, so every wide step (batch 512, hidden 256)
# faults its 1 MiB temporaries in afresh, about 2,600 minor faults a step;
# M_TRIM_THRESHOLD (-1) at 16 MiB keeps that memory, about 4 a step.
# Arrays over 4 MiB (M_MMAP_THRESHOLD, -3) are mmapped and go back to the
# kernel when freed, so one large batch does not keep its memory; setting
# it also fixes glibc's sliding mmap threshold, which trim alone would pin
# at 128 KiB (about 600 faults a step).
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError):
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-1, 16 * 1024 * 1024)
    _mallopt(-3, 4 * 1024 * 1024)


def _mlp(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray]:
    """The two-layer stack of both networks, taped or not: the hidden
    activations h = ReLU(x @ w1 + b1) and the output h @ w2 + b2."""
    h = relu_np(affine_np(x, w1, b1))
    return h, affine_np(h, w2, b2)


def _mlp_vjp(g: np.ndarray, x: np.ndarray, h: np.ndarray, w2: np.ndarray) -> tuple:
    """The gradients of `_mlp`'s w1, b1, w2 and b2 for output gradient g.
    The ReLU mask is `h > 0`: `relu_np` maps nan and -0.0 to +0.0, so it
    equals the `pre-activation > 0` mask everywhere."""
    gh = g @ w2.T
    gh *= h > 0.0
    return x.T @ gh, gh.sum(axis=0), h.T @ g, g.sum(axis=0)


def logits_of(p: ModelParams, x: np.ndarray) -> Tensor:
    """Class logits of constant inputs, as one tape node whose parents are
    the theta parameters. The forward runs the steps of `forward_np`; the
    VJP runs the layer VJPs from last to first. The VJP holds the
    activations until the node is released, so a graph can be
    backpropagated more than once."""
    _check_inputs(p, x)
    w1, b1, w2, b2, wc, bc = (t.data for t in p.theta_params())
    h, z = _mlp(x, w1, b1, w2, b2)

    def vjp(g):
        return *_mlp_vjp(g @ wc.T, x, h, w2), z.T @ g, g.sum(axis=0)

    return tape_node(affine_np(z, wc, bc), tuple(p.theta_params()), vjp)


def _pair(zs: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """[zs | zt]."""
    if zs.shape != zt.shape:
        raise ShapeError(f"feature pair shapes disagree: {zs.shape} vs {zt.shape}")
    return np.concatenate([zs, zt], axis=1)


def emp_forward(p: ModelParams, zs: np.ndarray, zt: np.ndarray) -> Tensor:
    """Grid logits for each pair of constant source/target features, one
    row per pair, as one tape node whose parents are the phi parameters.
    Its VJP holds the activations, as in `logits_of`."""
    pair = _pair(zs, zt)
    w1, b1, w2, b2 = (t.data for t in p.phi_params())
    h, out = _mlp(pair, w1, b1, w2, b2)
    return tape_node(out, tuple(p.phi_params()), lambda g: _mlp_vjp(g, pair, h, w2))


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
# 960 KiB and fits the 2 MiB per-core L2.
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


def _by_row_blocks(fn, x: np.ndarray) -> np.ndarray:
    """fn over the row blocks of x, the block results stacked in order."""
    m = x.shape[0]
    if m <= FORWARD_BLOCK_ROWS + 1:
        return fn(x)
    return np.concatenate([fn(x[rows]) for rows in _row_blocks(m)])


# The plain-array forwards run the steps of the taped nodes (`_mlp`, then
# the classifier's diffcore.affine_np), so both agree bit for bit.
def _encode_rows(p: ModelParams, x: np.ndarray) -> np.ndarray:
    return _mlp(x, p.enc_w1.data, p.enc_b1.data, p.enc_w2.data, p.enc_b2.data)[1]


def _classify_rows(p: ModelParams, z: np.ndarray) -> np.ndarray:
    return affine_np(z, p.cls_w.data, p.cls_b.data)


def _check_inputs(p: ModelParams, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != p.d:
        raise ShapeError(f"model inputs must be [m x {p.d}], got {x.shape}")


def encode_np(p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Tape-free encoder features: the hidden and feature layers of
    `forward_np`, without the classifier."""
    _check_inputs(p, x)
    return _by_row_blocks(lambda xb: _encode_rows(p, xb), x)


def classify_np(p: ModelParams, z: np.ndarray) -> np.ndarray:
    """Tape-free class logits of encoder features: the classifier half of
    `forward_np`. It runs the same row blocks, so
    `classify_np(p, encode_np(p, x))` has the bits of `forward_np(p, x)`."""
    if z.ndim != 2 or z.shape[1] != p.feat_dim:
        raise ShapeError(f"features must be [m x {p.feat_dim}], got {z.shape}")
    return _by_row_blocks(lambda zb: _classify_rows(p, zb), z)


def forward_np(p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Tape-free class logits: the same values as `logits_of`, bit for bit.
    Every forward that needs no gradient goes through here.

    Row blocking keeps the bits only while BLAS sums each row of a block
    in the same order as in the whole matrix; the tests pin this at the
    default and the wide (16 -> 256 -> 64 -> 5) shapes up to 2000 rows.
    """
    _check_inputs(p, x)
    return _by_row_blocks(lambda xb: _classify_rows(p, _encode_rows(p, xb)), x)


def emp_forward_np(p: ModelParams, zs: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """Tape-free grid logits: the same values as `emp_forward`, bit for bit.

    Not row-blocked: it only sees one batch of pairs, and its narrow
    64 -> 11 output layer is where OpenBLAS switches kernels with the row
    count (past about 1500 rows a block and the whole matrix round apart).
    """
    pair = _pair(zs, zt)
    return _mlp(pair, p.emp_w1.data, p.emp_b1.data, p.emp_w2.data, p.emp_b2.data)[1]


def one_hot_argmax(logits: np.ndarray, n_classes: int) -> np.ndarray:
    """Row-wise argmax as one-hot; ties resolve to the lowest class index."""
    return one_hot(np.argmax(logits, axis=1), n_classes)


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
