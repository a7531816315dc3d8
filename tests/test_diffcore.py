"""Unit and oracle tests for the autodiff core."""

import ast
import math
import os

import numpy as np
import pytest

from vicinalda import diffcore as dc
from vicinalda.diffcore import (
    SGD,
    ContractError,
    ShapeError,
    Tensor,
    backward,
    cross_entropy,
    finite_difference_grads,
    matmul,
)
from vicinalda.diffcore import backward_grads as run_backward
from vicinalda.model import init_model, logits_of

from tape_oracle import relu, select_relu, tmean, tsum
from test_surface import SRC, parse


def assert_grads_close(analytic, numeric):
    assert dc.grad_mismatches(analytic, numeric) == []


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_orthogonal_rows(self):
        out = matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [1.0]]))
        assert np.array_equal(out.data, [[0.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grads_flow_to_both_operands(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        fn = lambda: tsum(matmul(a, b))
        assert_grads_close(run_backward(fn, [a, b]), finite_difference_grads(fn, [a, b]))


def assert_same_bits(got, want):
    # np.array_equal calls -0.0 equal to +0.0 and nan unequal to itself
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


SPECIAL_VALUES = np.array([
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
    2.2250738585072009e-308, -2.2250738585072009e-308, 1e300, -1e300, 1.0, -1.0,
])


class TestReluNp:
    # numpy runs short and long arrays through different fmax loops, and
    # some of them keep -0.0, so every test covers several lengths
    @pytest.mark.parametrize("n", [1, 3, 8, 16, 17, 100, 1000])
    def test_special_values_bitwise(self, n):
        a = np.resize(SPECIAL_VALUES, n)
        alone = [np.full(n, v) for v in SPECIAL_VALUES]
        for case in [a, np.roll(a, 1), a[::-1].copy(), *alone]:
            assert_same_bits(dc.relu_np(case.copy()), select_relu(case))

    def test_random_arrays_over_all_scales(self):
        rng = np.random.default_rng(61)
        for trial in range(300):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            scale = 10.0 ** rng.uniform(-300, 300)
            a = rng.normal(size=shape) * scale
            specials = rng.random(shape) < 0.2
            a[specials] = rng.choice(SPECIAL_VALUES, size=int(specials.sum()))
            assert_same_bits(dc.relu_np(a.copy()), select_relu(a))

    def test_writes_the_argument_in_place(self):
        # the forwards rectify scratch arrays they own, so relu_np returns
        # its argument; the bitwise tests above hand it a copy
        a = np.resize(SPECIAL_VALUES, (4, 7))
        before = a.copy()
        out = dc.relu_np(a)
        assert out is a
        assert_same_bits(a, select_relu(before))


class TestSoftmax:
    # the plain-array softmax that the losses, the masks and the grid read
    def test_uniform_rows(self):
        out = dc.softmax_np(np.array([[2.0, 2.0, 2.0, 2.0]]))
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = dc.softmax_np(np.array([[0.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 1] > 1.0 - 1e-9

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(11)
        row = rng.normal(scale=3.0, size=(1, 6))
        exp = [math.exp(v) for v in row[0]]
        total = math.fsum(exp)
        expected = np.array([[v / total for v in exp]])
        assert np.max(np.abs(dc.softmax_np(row) - expected)) < 1e-12

    def test_rows_sum_to_one_large_magnitudes(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            z = rng.uniform(-1e3, 1e3, size=(4, 5))
            sums = dc.softmax_np(z).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-9


class TestCrossEntropy:
    def test_confident_match_is_near_zero(self):
        logits = Tensor([[20.0, 0.0], [0.0, 20.0]])
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(logits, target).item() < 0.01

    def test_uniform_logits_give_log_n(self):
        n = 7
        logits = Tensor(np.zeros((3, n)))
        target = np.zeros((3, n))
        target[:, 2] = 1.0
        assert abs(cross_entropy(logits, target).item() - math.log(n)) < 1e-12

    def test_linear_in_target(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(4, 2)))
        e0 = np.array([[1.0, 0.0]] * 4)
        e1 = np.array([[0.0, 1.0]] * 4)
        soft = 0.7 * e0 + 0.3 * e1
        lhs = cross_entropy(logits, soft).item()
        rhs = 0.7 * cross_entropy(logits, e0).item() + 0.3 * cross_entropy(logits, e1).item()
        assert abs(lhs - rhs) < 1e-12

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((1, 3))), np.array([[0.5, 0.2, 0.2]]))
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((1, 2))), np.array([[1.5, -0.5]]))

    @pytest.mark.parametrize(
        "target",
        [
            [[math.nan, 0.5, 0.5]],  # nan entry; the row sum is nan as well
            [[1.0, 0.0, 0.0], [0.25, 0.75, math.nan]],  # only the last row
            [[math.nan, math.nan, math.nan]],
        ],
        ids=["first-entry", "later-row", "whole-row"],
    )
    def test_rejects_nan_labels(self, target):
        t = np.array(target)
        with pytest.raises(ContractError, match="nan"):
            cross_entropy(Tensor(np.zeros(t.shape)), t)


def mean_entropy(z):
    """Batch-mean prediction entropy, from the per-row entropies that the
    grid table and the sweep read."""
    return dc.entropy_rows_np(z).mean()


class TestEntropy:
    def test_uniform_is_log_n(self):
        assert abs(mean_entropy(np.zeros((2, 11))) - math.log(11)) < 1e-12

    def test_near_one_hot_is_near_zero(self):
        assert mean_entropy(np.array([[40.0, 0.0, 0.0]])) < 1e-9

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(5, 4))
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expected = float(np.mean(-(p * np.log(p)).sum(axis=1)))
        assert abs(mean_entropy(z) - expected) < 1e-12

    def test_bounds_hold_on_random_logits(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            z = rng.normal(scale=rng.uniform(0.1, 20.0), size=(3, n))
            h = mean_entropy(z)
            assert -1e-12 <= h <= math.log(n) + 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(tsum(x))
        assert np.array_equal(x.grad, np.ones(3))

    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        backward(tsum(x * x))
        assert np.allclose(x.grad, [6.0], atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(x * x)

    def test_accumulation_is_additive(self):
        x = Tensor([1.5, -0.5], requires_grad=True)
        fn = lambda: tsum(x * x)
        once = run_backward(fn, [x])[0]
        x.zero_grad()
        backward(fn())
        backward(fn())
        assert np.allclose(x.grad, 2.0 * once, atol=1e-14)

    def test_reused_node_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x
        backward(tsum(y + y))
        assert np.allclose(x.grad, [8.0], atol=1e-12)

    def test_only_leaves_receive_grad(self):
        rng = np.random.default_rng(22)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)))  # a constant input
        h = relu(matmul(x, w) + b)
        z = matmul(x, w) + b
        loss = tmean(h * z)
        backward(loss)
        assert w.grad is not None and b.grad is not None
        assert x.grad is None
        for node in (h, z, loss):
            assert node.requires_grad and node.grad is None

    def test_graph_built_before_an_optimizer_step_is_refused(self):
        rng = np.random.default_rng(23)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)))
        fn = lambda: tsum(matmul(x, w) * matmul(x, w))
        stale = fn()
        backward(fn())
        SGD([w], lr=0.1).step()
        with pytest.raises(ContractError, match="stale graph"):
            backward(stale)
        assert w.grad is None
        backward(fn())
        assert w.grad is not None

    def test_grads_finite_after_composite_graph(self):
        rng = np.random.default_rng(21)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)))
        t = np.zeros((5, 4))
        t[np.arange(5), rng.integers(0, 4, 5)] = 1.0
        backward(cross_entropy(relu(matmul(x, w)) + b, t))
        assert np.all(np.isfinite(w.grad))
        assert np.all(np.isfinite(b.grad))


def random_small_graph(rng):
    """A composite graph over every op diffcore tapes (add, mul, neg,
    matmul, take_rows, cross_entropy) and the fused `logits_of` node, with
    the test-side relu and reductions; returns (fn, params)."""
    m, d, hdim, n = 3, 4, 5, 3
    w1 = Tensor(rng.normal(scale=0.7, size=(d, hdim)), requires_grad=True)
    b1 = Tensor(rng.normal(scale=0.1, size=hdim), requires_grad=True)
    w2 = Tensor(rng.normal(scale=0.7, size=(hdim, n)), requires_grad=True)
    b2 = Tensor(rng.normal(scale=0.1, size=n), requires_grad=True)
    net = init_model(d=d, n_classes=n, feat_dim=4, hidden=5, seed=int(rng.integers(2**32)))
    mix_w = Tensor(rng.normal(scale=0.5, size=(n, n)))
    x = Tensor(rng.normal(size=(m, d)))
    extra = Tensor(rng.normal(size=(m, n)))
    t = dc.softmax_np(rng.normal(size=(m, n)))  # soft labels, rows sum to 1
    idx = rng.integers(0, m, size=m)

    def fn():
        h = relu(matmul(x, w1) + b1)
        # every parameter reached along two paths, so its gradients add up
        z = matmul(h, w2) + (matmul(relu(matmul(x, w1) + b1) + h, w2) + b2)
        net_z = logits_of(net, x)
        gathered = dc.take_rows(z + net_z, idx)
        logits = matmul(gathered + extra * 0.5, mix_w)
        ce = cross_entropy(logits, t) + 0.5 * cross_entropy(net_z, t)
        return ce + 0.01 * tmean(w2 * w2) - 0.02 * tsum(dc.neg(b1))

    return fn, [w1, b1, w2, b2, *net.theta_params()]


class TestFiniteDifferenceProperty:
    def test_fifty_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            fn, params = random_small_graph(rng)
            assert_grads_close(run_backward(fn, params), finite_difference_grads(fn, params))

    def test_oracle_flags_wrong_gradients(self):
        fn, params = random_small_graph(np.random.default_rng(7))
        analytic = run_backward(fn, params)
        numeric = finite_difference_grads(fn, params)
        assert dc.grad_mismatches(analytic, numeric) == []
        off = [g.copy() for g in analytic]
        off[2] *= 1.0 + 1e-3  # one tensor 0.1% off
        assert [m.split(":")[0] for m in dc.grad_mismatches(off, numeric)] == ["param 2"]
        off[2] = analytic[2].copy()
        off[2].flat[0] = np.nan
        assert len(dc.grad_mismatches(off, numeric)) == 1
        # near-zero numeric gradients are held to an absolute 1e-8
        zero = [np.zeros(3)]
        assert dc.grad_mismatches([np.full(3, 1e-9)], zero) == []
        assert len(dc.grad_mismatches([np.full(3, 1e-7)], zero)) == 1


class TestSGD:
    def test_vanilla_step(self):
        p = Tensor([0.0], requires_grad=True)
        p.grad = np.array([1.0])
        SGD([p], lr=0.1, momentum=0.0).step()
        assert np.allclose(p.data, [-0.1], atol=1e-15)

    def test_lr_zero_leaves_params_bit_identical(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        before = p.data.copy()
        opt = SGD([p], lr=0.0, momentum=0.9)
        p.grad = rng.normal(size=(3, 3))
        opt.step()
        assert np.array_equal(p.data, before)

    def test_momentum_recurrence(self):
        lr, g = 0.05, 2.0
        p = Tensor([0.0], requires_grad=True)
        opt = SGD([p], lr=lr, momentum=0.9)
        for _ in range(2):
            p.grad = np.array([g])
            opt.step()
        expected = -lr * (g + (g + 0.9 * g))
        assert np.allclose(p.data, [expected], atol=1e-15)

    def test_step_clears_grads(self):
        p = Tensor([1.0], requires_grad=True)
        opt = SGD([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert p.grad is None

    def test_missing_grad_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        opt = SGD([p], lr=0.1)
        with pytest.raises(ContractError):
            opt.step()

    def test_velocity_shapes_match_params(self):
        params = [Tensor(np.zeros((2, 3)), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)]
        opt = SGD(params, lr=0.1)
        for p, v in zip(params, opt.velocities):
            assert v.shape == p.data.shape

    def test_bad_hyperparams_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            SGD([p], lr=-0.1)
        with pytest.raises(ContractError):
            SGD([p], lr=0.1, momentum=1.0)

    def test_nan_lr_rejected(self):
        # `lr < 0` is False for nan; the first step would write nan everywhere
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError, match="learning rate"):
            SGD([p], lr=math.nan)


def identifiers(tree):
    """Every name a module binds, reads, imports or defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from filter(None, (node.name, node.asname))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg


def names_the_free_list(name):
    flat = name.replace("_", "").lower()
    return "scratch" in flat or "freelist" in flat


class TestScratchStaysInModel:
    def test_no_other_module_names_the_free_list(self):
        # when a scratch array goes back is decided in model.py alone
        found = {name: sorted({i for i in identifiers(parse(os.path.join(SRC, name)))
                               if names_the_free_list(i)})
                 for name in sorted(os.listdir(SRC))
                 if name.endswith(".py") and name != "model.py"}
        assert {name: ids for name, ids in found.items() if ids} == {}
        assert any(names_the_free_list(i) for i in identifiers(parse(os.path.join(SRC, "model.py"))))
