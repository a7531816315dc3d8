"""The model's temporaries: the forwards and VJPs that write into their
own arrays in place give the bits of the unfused oracles, never change a
result a caller holds, and give the serial bits on several threads; the
wide step stays free of page faults under the allocator thresholds that
`vicinalda.model` sets."""

import ctypes
import resource
import sys
import threading

import numpy as np
import pytest

from vicinalda import diffcore as dc
from vicinalda import model
from vicinalda.diffcore import SGD, ContractError, Tensor, backward
from vicinalda.domains import DomainBatcher
from vicinalda.model import (
    emp_forward,
    emp_forward_np,
    encode_np,
    forward_np,
    logits_of,
)
from vicinalda.trainer import TrainConfig, covi_step, derive_seeds, make_dataset, warmup
from vicinalda.vicinal import grid_logits

from tape_oracle import (
    copy_params,
    plain_emp_forward,
    plain_encode,
    plain_entropy_rows,
    plain_forward,
    plain_grid_logits,
    plain_softmax,
    tsum,
    unfused_emp_forward,
    unfused_logits_of,
)
from test_diffcore import assert_same_bits
from test_model import FORWARD_SHAPES, perturbed_model

# around the 64-row batch, the 480-row forward block and two blocks, the
# 512-row batch, and 256 rows (where OpenBLAS splits products poorly);
# larger sizes first, so that smaller ones run in heap memory that held
# earlier results
ROWS = [1025, 1024, 1000, 961, 960, 513, 512, 511, 481, 480, 479, 257, 256, 255,
        64, 63, 2, 1]


def network_grads(p, network, inputs, upstream):
    """Leaf gradients of sum(network(p, *inputs) * upstream): one backward
    whose output gradient into the network node is `upstream` exactly."""
    for _, t in p.named_params():
        t.zero_grad()
    backward(tsum(network(p, *inputs) * Tensor(upstream)))
    return {name: t.grad for name, t in p.named_params() if t.grad is not None}


def model_paths(p, rng, m):
    """{path: (result, plain or unfused reference)} at m rows."""
    x, xs, xt = (rng.normal(scale=2.0, size=(m, p.d)) for _ in range(3))
    zs, zt = (rng.normal(size=(m, p.feat_dim)) for _ in range(2))
    grid = grid_logits(p, xs, xt)
    cases = {
        "forward_np": (forward_np(p, x), plain_forward(p, x)),
        "encode_np": (encode_np(p, x), plain_encode(p, x)),
        "emp_forward_np": (emp_forward_np(p, zs, zt), plain_emp_forward(p, zs, zt)),
        "grid_logits": (grid, plain_grid_logits(p, xs, xt)),
        "softmax_np": (dc.softmax_np(grid), plain_softmax(grid)),
        "entropy_rows_np": (dc.entropy_rows_np(grid), plain_entropy_rows(grid)),
        "logits_of": (logits_of(p, x).data, unfused_logits_of(p, x).data),
        "emp_forward": (emp_forward(p, zs, zt).data, unfused_emp_forward(p, zs, zt).data),
    }
    g_theta = rng.normal(size=(m, p.n_classes))
    g_phi = rng.normal(size=(m, model.RATIO_GRID_SIZE))
    for name, network, oracle, inputs, g in (
        ("logits_of vjp", logits_of, unfused_logits_of, (x,), g_theta),
        ("emp_forward vjp", emp_forward, unfused_emp_forward, (zs, zt), g_phi),
    ):
        got, want = network_grads(p, network, inputs, g), network_grads(p, oracle, inputs, g)
        assert sorted(got) == sorted(want)
        for param in got:
            cases[f"{name} {param}"] = (got[param], want[param])
    return cases


class TestScratchOracle:
    @pytest.mark.parametrize("d,n_classes,feat_dim,hidden", FORWARD_SHAPES)
    def test_every_pooled_path_has_the_bits_of_fresh_arrays(self, d, n_classes, feat_dim, hidden):
        p = perturbed_model(d, n_classes, feat_dim, hidden)
        rng = np.random.default_rng(hidden)
        # twice over, so that the second pass runs in memory the first freed
        for m in ROWS + ROWS:
            for path, (got, want) in model_paths(p, rng, m).items():
                assert got.shape == want.shape, (path, m)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (path, m)

    def test_special_values_in_place(self):
        # nan, inf and signed zeros through the in-place relu, exp and divide
        rng = np.random.default_rng(5)
        z = rng.normal(size=(300, 5)) * 1e3
        z[::7, 1] = np.inf
        z[::11, 2] = -np.inf
        z[::13, 3] = np.nan
        z[::5, 4] = -0.0
        before = z.copy()
        with np.errstate(invalid="ignore"):
            assert_same_bits(dc.softmax_np(z), plain_softmax(z))
            assert_same_bits(dc.entropy_rows_np(z), plain_entropy_rows(z))
        assert_same_bits(z, before)


class TestNoScratchReachesACaller:
    @pytest.mark.parametrize("d,n_classes,feat_dim,hidden", FORWARD_SHAPES)
    def test_held_results_survive_later_forwards_and_backwards(
            self, d, n_classes, feat_dim, hidden):
        p = perturbed_model(d, n_classes, feat_dim, hidden)
        rng = np.random.default_rng(7)
        held = []
        for m in (512, 300, 64):
            x, xs, xt = (rng.normal(size=(m, d)) for _ in range(3))
            zs, zt = (rng.normal(size=(m, feat_dim)) for _ in range(2))
            held += [forward_np(p, x), encode_np(p, x), grid_logits(p, xs, xt),
                     emp_forward_np(p, zs, zt)]
            logits = logits_of(p, x)
            grid = emp_forward(p, zs, zt)
            held += [logits.data, grid.data]
            for _, t in p.named_params():
                t.zero_grad()
            backward(tsum(logits) + tsum(grid))
            held += [t.grad for _, t in p.named_params()]
        copies = [a.copy() for a in held]
        for m in (600, 512, 300, 64):
            x = rng.normal(size=(m, d))
            z = rng.normal(size=(m, feat_dim))
            forward_np(p, x)
            encode_np(p, x)
            grid_logits(p, x, x[::-1].copy())
            network_grads(p, logits_of, (x,), np.ones((m, n_classes)))
            network_grads(p, emp_forward, (z, z), np.ones((m, model.RATIO_GRID_SIZE)))
        for a, before in zip(held, copies):
            assert_same_bits(a, before)


def has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    return True


def wide_step_faults(warm: int, steps: int) -> float:
    """Minor page faults per adaptation step at the blobs_wide shape, over
    `steps` steps after `warm` steps that let the heap reach its size."""
    cfg = TrainConfig(dataset="blobs", blob_classes=5, blob_dim=16, n_per_domain=1024,
                      hidden=256, feat_dim=64, batch_size=512, warmup_epochs=1)
    seeds = derive_seeds(cfg.seed)
    ds = make_dataset(cfg, seeds.data)
    p = model.init_model(d=ds.input_dim, n_classes=ds.n_classes, feat_dim=cfg.feat_dim,
                         hidden=cfg.hidden, hidden_g=cfg.hidden_g, seed=seeds.model)
    warmup(p, ds, cfg, np.random.default_rng(seeds.warmup_batches))
    opt_theta = SGD(p.theta_params(), lr=cfg.lr, momentum=cfg.momentum)
    opt_phi = SGD(p.phi_params(), lr=cfg.phi_lr, momentum=cfg.momentum)
    batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
    views_rng = np.random.default_rng(seeds.views)
    for step in range(warm + steps):
        if step == warm:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        covi_step(p, batcher.next_batch(), cfg, opt_theta, opt_phi, views_rng, ds, step)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps


class TestPageFaults:
    # the blobs_wide shape, whose 1 MiB temporaries glibc's default heap
    # trim faults in afresh: about 2,600 faults a step without mallopt
    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_wide_step_faults_fewer_than_100_pages(self):
        faults = wide_step_faults(warm=5, steps=20)
        assert faults < 100, faults


class TestThreads:
    def test_threads_give_the_serial_bytes(self):
        p = perturbed_model(16, 5, 64, 256)
        rng = np.random.default_rng(9)
        inputs = [(rng.normal(size=(m, 16)), rng.normal(size=(m, 64))) for m in (512, 300, 257)]

        def run(q):
            out = []
            for _ in range(3):
                for x, z in inputs:
                    out += [forward_np(q, x), encode_np(q, x), emp_forward_np(q, z, z),
                            grid_logits(q, x, x[::-1].copy())]
                    grads = network_grads(q, logits_of, (x,), np.ones((x.shape[0], 5)))
                    out += [grads[name] for name in sorted(grads)]
            return out

        serial = run(copy_params(p))
        results = [None] * 4
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=lambda i=i: results.__setitem__(i, run(copy_params(p))))
                for i in range(4)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(w.is_alive() for w in workers)
        for got in results:
            assert got is not None and len(got) == len(serial)
            for a, b in zip(got, serial):
                assert_same_bits(a, b)


def wide_node(network, p, rng):
    """A network node at 512 rows of the wide shape."""
    if network == "logits_of":
        return logits_of(p, rng.normal(size=(512, 16)))
    return emp_forward(p, *(rng.normal(size=(512, 64)) for _ in range(2)))


class TestNodeLifetime:
    # a network node keeps its activations until it is released, so its
    # graph can be backpropagated again after other forwards reused memory
    @pytest.mark.parametrize("network", ["logits_of", "emp_forward"])
    def test_second_backward_doubles_the_gradients(self, network):
        p = perturbed_model(16, 5, 64, 256)
        rng = np.random.default_rng(3)
        node = wide_node(network, p, rng)
        loss = tsum(node * Tensor(rng.normal(size=node.shape)))
        backward(loss)
        first = {name: t.grad.copy() for name, t in p.named_params() if t.grad is not None}
        # forwards and backwards of the same shapes in between
        for _ in range(2):
            backward(tsum(wide_node(network, p, rng)))
            forward_np(p, rng.normal(size=(512, 16)))
            emp_forward_np(p, *(rng.normal(size=(512, 64)) for _ in range(2)))
        for name in first:
            getattr(p, name).zero_grad()
        backward(loss)
        backward(loss)
        for name, grad in first.items():
            assert_same_bits(getattr(p, name).grad, grad + grad)

    def test_stale_graph_still_raises(self):
        p = perturbed_model(16, 5, 64, 256)
        loss = tsum(wide_node("logits_of", p, np.random.default_rng(4)))
        backward(loss)
        SGD(p.theta_params(), lr=0.1).step()
        with pytest.raises(ContractError, match="stale graph"):
            backward(loss)
        assert all(t.grad is None for _, t in p.named_params())

    def test_a_fresh_graph_after_a_released_one_gives_the_same_gradients(self):
        p = perturbed_model(2, 2, 32, 64)
        x = np.random.default_rng(4).normal(size=(300, 2))
        first = network_grads(p, logits_of, (x,), np.ones((300, 2)))
        again = network_grads(p, logits_of, (x,), np.ones((300, 2)))
        for name in first:
            assert_same_bits(again[name], first[name])
