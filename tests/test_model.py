"""Tests for the model: parameter groups, forwards, checkpointing."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vicinalda import diffcore as dc
from vicinalda.diffcore import SGD, ContractError, ShapeError, Tensor, backward
from vicinalda.model import (
    CHECKPOINT_MAGIC,
    FORWARD_BLOCK_ROWS,
    RATIO_GRID,
    classify_np,
    emp_forward,
    emp_forward_np,
    encode_np,
    forward_np,
    init_model,
    load_checkpoint,
    logits_of,
    one_hot_argmax,
    pseudo_labels,
    save_checkpoint,
)

from tape_oracle import (
    copy_params,
    tmean,
    unfused_emp_forward,
    unfused_features,
    unfused_logits_of,
)
from test_diffcore import (
    assert_grads_close,
    assert_same_bits,
    finite_difference_grads,
    run_backward,
)


def params_checksum(params):
    """Cheap content checksum for parameter-isolation tests."""
    return float(sum(np.sum(t.data * np.arange(1, t.data.size + 1).reshape(t.data.shape))
                     for t in params))


def small_model(seed=0):
    return init_model(d=3, n_classes=4, feat_dim=5, hidden=6, hidden_g=7, seed=seed)


class TestInit:
    def test_seed_determinism(self):
        a, b = small_model(3), small_model(3)
        for (_, ta), (_, tb) in zip(a.named_params(), b.named_params()):
            assert np.array_equal(ta.data, tb.data)

    def test_fresh_logits_finite_and_small(self):
        rng = np.random.default_rng(0)
        p = init_model(d=2, n_classes=2, seed=1)
        x = Tensor(rng.normal(size=(64, 2)))  # standardized-scale inputs
        logits = logits_of(p, x).data
        assert np.all(np.isfinite(logits))
        assert np.mean(np.abs(logits)) < 5.0

    def test_grid_contract(self):
        v = RATIO_GRID
        assert len(v) == 11
        assert v[0] == 0.0 and v[-1] == 1.0
        assert np.all(np.diff(v) > 0)
        # each entry is its decimal literal, and nothing can write to it
        assert v.tolist() == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        with pytest.raises(ValueError):
            v[3] = 0.3

    def test_emp_head_output_width_is_grid_size(self):
        p = small_model()
        assert p.emp_w2.shape[1] == 11


class TestParameterGroups:
    def test_groups_are_disjoint(self):
        p = small_model()
        theta_ids = {id(t) for t in p.theta_params()}
        phi_ids = {id(t) for t in p.phi_params()}
        assert not theta_ids & phi_ids
        assert len(theta_ids) + len(phi_ids) == len(p.named_params())

    def test_phi_step_never_changes_theta(self):
        rng = np.random.default_rng(4)
        p = small_model()
        theta_before = params_checksum(p.theta_params())
        opt_phi = SGD(p.phi_params(), lr=0.1, momentum=0.9)
        zs = Tensor(rng.normal(size=(8, 5)))
        zt = Tensor(rng.normal(size=(8, 5)))
        backward(tmean(emp_forward(p, zs, zt)))
        opt_phi.step()
        assert params_checksum(p.theta_params()) == theta_before

    def test_theta_step_never_changes_phi(self):
        rng = np.random.default_rng(5)
        p = small_model()
        phi_before = params_checksum(p.phi_params())
        opt_theta = SGD(p.theta_params(), lr=0.1, momentum=0.9)
        x = Tensor(rng.normal(size=(8, 3)))
        backward(tmean(logits_of(p, x)))
        for t in p.phi_params():
            t.zero_grad()
        opt_theta.step()
        assert params_checksum(p.phi_params()) == phi_before


class TestForwards:
    def test_zero_weights_zero_features(self):
        p = small_model()
        for t in p.theta_params():
            t.data = np.zeros_like(t.data)
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(encode_np(p, x), np.zeros((4, 5)))

    def test_duplicated_row_gives_identical_features(self):
        p = small_model()
        row = np.random.default_rng(1).normal(size=3)
        z = encode_np(p, np.stack([row, row]))
        assert np.array_equal(z[0], z[1])

    def test_encode_gradient_check(self):
        # the encoder's parameters, through the one node that holds them
        rng = np.random.default_rng(6)
        p = small_model()
        x = Tensor(rng.normal(size=(4, 3)))
        const = rng.normal(size=(4, 4))
        params = p.theta_params()[:4]
        fn = lambda: tmean(logits_of(p, x) * Tensor(const))
        assert_grads_close(run_backward(fn, params), finite_difference_grads(fn, params))

    def test_classify_gradient_check(self):
        rng = np.random.default_rng(7)
        p = small_model()
        x = Tensor(rng.normal(size=(4, 3)))
        const = rng.normal(size=(4, 4))
        params = [p.cls_w, p.cls_b]
        fn = lambda: tmean(logits_of(p, x) * Tensor(const))
        assert_grads_close(run_backward(fn, params), finite_difference_grads(fn, params))

    def test_logits_of_shape_error(self):
        p = small_model()
        with pytest.raises(ShapeError):
            logits_of(p, Tensor(np.zeros((2, 2))))

    def test_emp_forward_zero_weights_uniform(self):
        p = small_model()
        for t in p.phi_params():
            t.data = np.zeros_like(t.data)
        rng = np.random.default_rng(2)
        logits = emp_forward(p, Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=(3, 5))))
        assert np.array_equal(logits.data, np.zeros((3, 11)))
        probs = dc.softmax_np(logits.data)
        soft = probs @ RATIO_GRID
        assert np.allclose(soft, 0.5, atol=1e-15)

    def test_emp_forward_row_independence_under_permutation(self):
        p = small_model()
        rng = np.random.default_rng(3)
        zs, zt = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
        out = emp_forward(p, Tensor(zs), Tensor(zt)).data
        perm = np.array([3, 0, 4, 1, 2])
        out_p = emp_forward(p, Tensor(zs[perm]), Tensor(zt[perm])).data
        assert np.array_equal(out_p, out[perm])

    def test_emp_forward_row_untouched_by_other_pair_perturbation(self):
        p = small_model()
        rng = np.random.default_rng(17)
        zs, zt = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
        base = emp_forward(p, Tensor(zs), Tensor(zt)).data
        zt2 = zt.copy()
        zt2[2] += 100.0  # perturb pair 2 only
        after = emp_forward(p, Tensor(zs), Tensor(zt2)).data
        keep = np.arange(5) != 2
        assert np.array_equal(after[keep], base[keep])

    def test_emp_forward_gradient_check_wrt_phi(self):
        rng = np.random.default_rng(8)
        p = small_model()
        zs = Tensor(rng.normal(size=(3, 5)))
        zt = Tensor(rng.normal(size=(3, 5)))
        const = rng.normal(size=(3, 11))
        params = p.phi_params()
        fn = lambda: tmean(emp_forward(p, zs, zt) * Tensor(const))
        assert_grads_close(run_backward(fn, params), finite_difference_grads(fn, params))


class TestPseudoLabels:
    def test_clear_argmax(self):
        p = small_model()
        # steer the classifier so logits equal the features' first column
        logits = np.array([[0.1, 3.0, -1.0, 0.0], [2.0, 1.0, 5.0, -2.0]])
        got = one_hot_argmax(logits, 4)
        assert np.array_equal(got, [[0, 1, 0, 0], [0, 0, 1, 0]])

    def test_tie_break_lowest_index(self):
        logits = np.array([[1.0, 1.0, 0.0], [0.5, 2.0, 2.0]])
        got = one_hot_argmax(logits, 3)
        assert np.array_equal(got, [[1, 0, 0], [0, 1, 0]])

    def test_agreement_with_argmax_oracle(self):
        rng = np.random.default_rng(9)
        p = init_model(d=3, n_classes=6, seed=2)
        xt = Tensor(rng.normal(size=(40, 3)))
        got = pseudo_labels(p, xt).data
        logits = logits_of(p, xt).data
        for i in range(40):
            best = max(range(6), key=lambda k: (logits[i, k], -k))
            assert got[i].argmax() == best
            assert got[i].sum() == 1.0

    def test_idempotent_on_consistent_predictions(self):
        p = init_model(d=3, n_classes=4, seed=3)
        rng = np.random.default_rng(10)
        xt = Tensor(rng.normal(size=(12, 3)))
        first = pseudo_labels(p, xt).data
        second = pseudo_labels(p, xt).data
        assert np.array_equal(first, second)

    def test_no_gradient_flows(self):
        p = small_model()
        xt = Tensor(np.random.default_rng(11).normal(size=(5, 3)))
        labels = pseudo_labels(p, xt)
        assert labels.requires_grad is False
        assert labels._parents == ()


def perturbed_model(d, n_classes, feat_dim, hidden, seed=5):
    """A model whose weights and biases are all nonzero, as after training."""
    p = init_model(d=d, n_classes=n_classes, feat_dim=feat_dim, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed)
    for _, t in p.named_params():
        t.data = t.data + rng.normal(scale=0.3, size=t.data.shape)
    return p


# (d, n_classes, feat_dim, hidden): the default two-moons net and the wide
# 5-class blobs net
FORWARD_SHAPES = [
    pytest.param(2, 2, 32, 64, id="default"),
    pytest.param(16, 5, 64, 256, id="wide"),
]
# 300 and 512 are kept-pair and batch sizes at which the step reads taped
# logits (one unblocked product) where it used to run the blocked forward;
# 256, 257 and 513 sit where OpenBLAS splits 256-row products poorly and
# around the wide batch
FORWARD_ROWS = [1, 64, 256, 257, 300, FORWARD_BLOCK_ROWS, FORWARD_BLOCK_ROWS + 1, 512, 513,
                2 * FORWARD_BLOCK_ROWS, 2 * FORWARD_BLOCK_ROWS + 1, 2000]


class TestTapeFreeForward:
    @pytest.mark.parametrize("m", FORWARD_ROWS)
    @pytest.mark.parametrize("d,n_classes,feat_dim,hidden", FORWARD_SHAPES)
    def test_bit_identical_to_taped(self, d, n_classes, feat_dim, hidden, m):
        p = perturbed_model(d, n_classes, feat_dim, hidden)
        x = np.random.default_rng(m).normal(scale=2.0, size=(m, d))
        logits = forward_np(p, x)
        assert_same_bits(logits, logits_of(p, Tensor(x)).data)
        assert np.array_equal(encode_np(p, x), unfused_features(p, Tensor(x)).data)
        # the step classifies features it already encoded
        assert_same_bits(classify_np(p, encode_np(p, x)), logits)

    @pytest.mark.parametrize("m", FORWARD_ROWS)
    def test_grid_head_bit_identical_to_taped(self, m):
        p = perturbed_model(16, 5, 64, 256)
        rng = np.random.default_rng(m)
        zs, zt = rng.normal(size=(2, m, 64))
        expected = emp_forward(p, Tensor(zs), Tensor(zt)).data
        assert np.array_equal(emp_forward_np(p, zs, zt), expected)

    def test_nan_and_negative_zero_rows_match_taped(self):
        # the unfused chain's relu maps nan to 0 and keeps -0.0 out; np.maximum would not
        p = perturbed_model(2, 2, 32, 64)
        p.enc_b1.data[:] = 0.0
        x = np.array([[np.nan, 1.0], [-0.0, -0.0], [0.0, 0.0], [1.0, -1.0]])
        assert np.array_equal(forward_np(p, x), logits_of(p, Tensor(x)).data)

    def test_shape_error(self):
        p = small_model()
        with pytest.raises(ShapeError):
            forward_np(p, np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            encode_np(p, np.zeros(3))
        with pytest.raises(ShapeError):
            classify_np(p, np.zeros((4, p.feat_dim + 1)))


def one_hot_rows(rng, m, n):
    return np.eye(n)[rng.integers(0, n, m)]


def single_loss(logits, p, rng, m):
    x = Tensor(rng.normal(size=(m, p.d)))
    return dc.cross_entropy(logits(p, x), one_hot_rows(rng, m, p.n_classes))


def two_view_loss(logits, p, rng, m):
    # contrastive-style: two forwards at this theta, one summed loss
    x_sd, x_td = (Tensor(rng.normal(size=(m, p.d))) for _ in range(2))
    y_sd, y_td = (one_hot_rows(rng, m, p.n_classes) for _ in range(2))
    return dc.cross_entropy(logits(p, x_td), y_td) + dc.cross_entropy(logits(p, x_sd), y_sd)


def five_view_loss(logits, p, rng, m):
    # summed_theta_update-style: mixup, both contrastive views and both
    # consensus views (row-gathered) in one weighted sum
    xs = [Tensor(rng.normal(size=(m, p.d))) for _ in range(5)]
    ys = [one_hot_rows(rng, m, p.n_classes) for _ in range(5)]
    kept = np.nonzero(rng.uniform(size=m) > 0.3)[0]
    mixup = dc.cross_entropy(logits(p, xs[0]), ys[0]) * 1.0
    ct = dc.cross_entropy(logits(p, xs[1]), ys[1]) + dc.cross_entropy(logits(p, xs[2]), ys[2])
    cs = dc.cross_entropy(dc.take_rows(logits(p, xs[3]), kept), ys[3][kept]) + dc.cross_entropy(
        dc.take_rows(logits(p, xs[4]), kept), ys[4][kept]
    )
    return mixup + ct * 0.5 + cs * 2.0


def phi_loss(emp, p, rng, m):
    zs, zt = (Tensor(rng.normal(size=(m, p.feat_dim))) for _ in range(2))
    target = dc.softmax_np(rng.normal(size=(m, 11)))
    return dc.neg(dc.cross_entropy(emp(p, zs, zt), target))


def grads_of(p, build_loss, fn, seed, m):
    for _, t in p.named_params():
        t.zero_grad()
    backward(build_loss(fn, p, np.random.default_rng(seed), m))
    return {name: t.grad for name, t in p.named_params()}


# (d, n_classes, feat_dim, hidden, batch rows) of the two training workloads
TRAIN_SHAPES = [
    pytest.param(2, 2, 32, 64, 64, id="default"),
    pytest.param(16, 5, 64, 256, 512, id="wide"),
]


class TestFusedTape:
    @pytest.mark.parametrize("build_loss", [single_loss, two_view_loss, five_view_loss],
                             ids=["one", "two", "five"])
    @pytest.mark.parametrize("d,n_classes,feat_dim,hidden,m", TRAIN_SHAPES)
    def test_theta_grads_equal_the_unfused_chain(self, d, n_classes, feat_dim, hidden, m,
                                                 build_loss):
        p = perturbed_model(d, n_classes, feat_dim, hidden)
        fused = grads_of(p, build_loss, logits_of, m, m)
        unfused = grads_of(p, build_loss, unfused_logits_of, m, m)
        for name in ("enc_w1", "enc_b1", "enc_w2", "enc_b2", "cls_w", "cls_b"):
            assert np.array_equal(fused[name], unfused[name]), name
        assert all(fused[t] is None for t in ("emp_w1", "emp_b1", "emp_w2", "emp_b2"))

    @pytest.mark.parametrize("d,n_classes,feat_dim,hidden,m", TRAIN_SHAPES)
    def test_phi_grads_equal_the_unfused_chain(self, d, n_classes, feat_dim, hidden, m):
        p = perturbed_model(d, n_classes, feat_dim, hidden)
        fused = grads_of(p, phi_loss, emp_forward, m, m)
        unfused = grads_of(p, phi_loss, unfused_emp_forward, m, m)
        for name in ("emp_w1", "emp_b1", "emp_w2", "emp_b2"):
            assert np.array_equal(fused[name], unfused[name]), name

    def test_one_node_per_network_and_leaf_only_grads(self):
        p = small_model()
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)))
        zs, zt = (Tensor(rng.normal(size=(4, 5))) for _ in range(2))
        logits, grid = logits_of(p, x), emp_forward(p, zs, zt)
        assert logits._parents == tuple(p.theta_params())
        assert grid._parents == tuple(p.phi_params())
        backward(tmean(logits) + tmean(grid))
        assert logits.grad is None and grid.grad is None
        assert x.grad is None and zs.grad is None and zt.grad is None
        assert all(t.grad is not None for _, t in p.named_params())

    def test_tracked_input_refused(self):
        # the nodes compute no input gradient, so it would be lost silently
        p = small_model()
        rng = np.random.default_rng(3)
        with pytest.raises(ContractError, match="constant inputs"):
            logits_of(p, Tensor(rng.normal(size=(4, 3)), requires_grad=True))
        const = Tensor(rng.normal(size=(4, 5)))
        tracked = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        for zs, zt in ((tracked, const), (const, tracked)):
            with pytest.raises(ContractError, match="constant inputs"):
                emp_forward(p, zs, zt)

    def test_nan_and_negative_zero_pre_activations_match_the_unfused_chain(self):
        # the -0.0 rows: (-1e-200 * 1e-200) underflows to -0.0 and adds to
        # -0.0 * 1.0; the nan rows come from a nan input and from inf - inf
        p = init_model(d=2, n_classes=3, feat_dim=2, hidden=4, seed=0)
        p.enc_w1.data = np.array([[1e-200, -1.0, 2.0, 1.0], [-0.0, -0.0, 1.0, 2.0]])
        p.enc_b1.data = np.array([-0.0, -0.0, 0.5, -np.inf])
        x = np.array([[-1e-200, 1.0], [1e-200, -1.0], [np.nan, 1.0],
                      [np.inf, 1.0], [3.0, -2.0], [0.0, 0.0]])
        with np.errstate(invalid="ignore"):
            pre = dc.affine_np(x, p.enc_w1.data, p.enc_b1.data)
            fused = logits_of(p, Tensor(x)).data
            chain = unfused_logits_of(p, Tensor(x)).data
            plain = forward_np(p, x)
        assert (np.signbit(pre) & (pre == 0.0)).any() and np.isnan(pre).any()
        assert_same_bits(fused, chain)
        assert_same_bits(fused, plain)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        p = init_model(d=2, n_classes=2, seed=42)
        rng = np.random.default_rng(12)
        for _, t in p.named_params():  # make contents nontrivial
            t.data = t.data + rng.normal(scale=0.01, size=t.data.shape)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(p.named_params(), q.named_params()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)
        assert q.dims() == p.dims()
        assert q.seed == p.seed
        save_checkpoint(q, str(tmp_path / "model2.ckpt"))
        assert open(path, "rb").read() == open(str(tmp_path / "model2.ckpt"), "rb").read()

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 6)] * 5),
        seed=st.integers(0, 2**64),
        fill_seed=st.integers(0, 2**32),
        specials=st.lists(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e308])),
    )
    def test_round_trip_bit_exact_property(
        self, tmp_path_factory, dims, seed, fill_seed, specials
    ):
        d, n_classes, feat_dim, hidden, hidden_g = dims
        p = init_model(d, n_classes, feat_dim, hidden, hidden_g, seed=seed)
        rng = np.random.default_rng(fill_seed)
        for _, t in p.named_params():
            t.data = rng.normal(scale=10.0 ** rng.integers(-300, 300), size=t.data.shape)
        # special values at random entries; compared as bits, so nan and -0.0 count
        flat = [t.data.reshape(-1) for _, t in p.named_params()]
        for v in specials:
            arr = flat[rng.integers(len(flat))]
            arr[rng.integers(arr.size)] = v
        path = str(tmp_path_factory.getbasetemp() / "property.ckpt")
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert (q.dims(), q.seed) == (p.dims(), p.seed)
        for (na, ta), (nb, tb) in zip(p.named_params(), q.named_params()):
            assert na == nb
            assert ta.data.shape == tb.data.shape
            assert np.array_equal(ta.data.view(np.uint64), tb.data.view(np.uint64))

    def test_every_truncated_prefix_fails_cleanly(self, tmp_path):
        p = init_model(d=2, n_classes=2, feat_dim=2, hidden=3, hidden_g=2, seed=4)
        full = str(tmp_path / "full.ckpt")
        save_checkpoint(p, full)
        data = open(full, "rb").read()
        cut = str(tmp_path / "cut.ckpt")
        for n in range(len(data)):
            with open(cut, "wb") as fh:
                fh.write(data[:n])
            with pytest.raises(ContractError):
                load_checkpoint(cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(small_model(), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(ContractError, match="array bytes"):
            load_checkpoint(path)

    def test_header_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_model(d=2, n_classes=2, feat_dim=2, hidden=3, seed=0), path)
        data = open(path, "rb").read()
        # same byte count, transposed enc_w1 shape
        swapped = data.replace(b'"shape": [2, 3]', b'"shape": [3, 2]', 1)
        assert swapped != data
        with open(path, "wb") as fh:
            fh.write(swapped)
        with pytest.raises(ContractError, match="do not match"):
            load_checkpoint(path)

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(small_model(0), path)
        before = open(path, "rb").read()
        broken = small_model(1)
        # the header and the first arrays are written before this one fails
        broken.cls_b.data = np.array(["not a float"] * 4, dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(broken, path)
        assert open(path, "rb").read() == before
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]

    def test_copy_params_is_deep(self):
        p = small_model()
        q = copy_params(p)
        q.enc_w1.data[0, 0] += 1.0
        assert p.enc_w1.data[0, 0] != q.enc_w1.data[0, 0]


CHECKPOINT_SHAPES = {
    "default": dict(d=2, n_classes=2),
    "wide": dict(d=16, n_classes=5, feat_dim=64, hidden=256),
}


def filled_model(shape, seed=7):
    """A model at one of CHECKPOINT_SHAPES with every entry nonzero."""
    p = init_model(seed=seed, **CHECKPOINT_SHAPES[shape])
    rng = np.random.default_rng(seed)
    for _, t in p.named_params():
        t.data = rng.normal(size=t.data.shape)
    return p


def assert_same_params(p, q):
    assert (q.dims(), q.seed) == (p.dims(), p.seed)
    for (na, ta), (nb, tb) in zip(p.named_params(), q.named_params()):
        assert na == nb
        assert tb.requires_grad and tb.grad is None
        assert tb.data.flags.c_contiguous and tb.data.flags.writeable
        assert not np.shares_memory(ta.data, tb.data)
        np.testing.assert_array_equal(ta.data.view(np.uint64), tb.data.view(np.uint64))


def rewrite_header(path, edit):
    """Apply `edit` to the JSON header of a checkpoint file in place,
    keeping its array bytes."""
    raw = open(path, "rb").read()
    offset = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<I", raw, offset)
    header = json.loads(raw[offset + 4 : offset + 4 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        fh.write(raw[offset + 4 + hlen :])


class TestCheckpointRead:
    @pytest.mark.parametrize("shape", sorted(CHECKPOINT_SHAPES))
    def test_round_trip_bit_exact(self, tmp_path, shape):
        p = filled_model(shape)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert_same_params(p, q)
        again = str(tmp_path / "again.ckpt")
        save_checkpoint(q, again)
        assert open(again, "rb").read() == open(path, "rb").read()

    @pytest.mark.parametrize("shape", sorted(CHECKPOINT_SHAPES))
    def test_copy_params_is_deep_in_every_array(self, shape):
        p = filled_model(shape)
        q = copy_params(p)
        assert_same_params(p, q)
        for (_, tp), (_, tq) in zip(p.named_params(), q.named_params()):
            before = tp.data.copy()
            tq.data += 1.0
            np.testing.assert_array_equal(tp.data, before)

    @pytest.mark.parametrize("edit", [
        lambda h: h["dims"].update(hidden=0),
        lambda h: h["dims"].pop("n_classes"),
        lambda h: h["dims"].pop("hidden_g"),
        lambda h: h["dims"].update(depth=2),
        lambda h: h["dims"].update(d=2.0),
        lambda h: h.pop("seed"),
        lambda h: h.update(dims=[2, 2, 32, 64, 64]),
    ], ids=["hidden-0", "missing-dim", "missing-defaulted-dim", "extra-dim", "float-dim", "no-seed", "dims-not-a-map"])
    def test_bad_header_dims_refused(self, tmp_path, edit):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(filled_model("default"), path)
        load_checkpoint(path)  # the unedited file reads
        rewrite_header(path, edit)
        with pytest.raises(ContractError):
            load_checkpoint(path)
