"""Tensor core and the reference tape: forward oracles, backward rules,
Adam, autodiff properties and the package tensor's surface."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survstrat.config import ExperimentConfig
from survstrat.errors import ConfigurationError, NumericError, UsageError
from survstrat.networks import Model
from survstrat import trainer
from survstrat.tensor import Adam, Tensor, concat_cols, mlp, no_tape, softmax_rows, take_rows

from conftest import check_gradients
from reftape import RefTensor, item, lift
from oracles import cosine_similarity, logsumexp_rows, relu, row_norms, squared_distances


class TestForwardOps:
    def test_matmul_identity(self):
        a = Tensor(np.arange(9.0).reshape(3, 3))
        out = RefTensor(np.eye(3)).matmul(a)
        np.testing.assert_array_equal(out.values, a.values)

    def test_row_softmax_symmetry(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1 / 3, 1 / 3, 1 / 3]])

    def test_cosine_orthogonal(self):
        s = cosine_similarity(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]))
        assert abs(item(s)) < 1e-15

    def test_squared_distances_hand(self):
        d = squared_distances(Tensor([[0.0, 0.0], [3.0, 4.0]]), Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(d.values, [[0.0], [25.0]])

    def test_concat_cols(self):
        out = concat_cols(Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_row_norms(self):
        out = row_norms(Tensor([[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[5.0], [0.0]])

    def test_logsumexp_matches_naive(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 7))
        out = logsumexp_rows(Tensor(x))
        naive = np.log(np.exp(x).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(out.values, naive, rtol=1e-12)

    def test_logsumexp_no_overflow(self):
        out = logsumexp_rows(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(item(out), 1000.0 + np.log(2.0))

    def test_shape_mismatch_is_config_error(self):
        with pytest.raises(ConfigurationError):
            RefTensor(np.zeros((2, 3))).matmul(Tensor(np.zeros((2, 3))))
        with pytest.raises(ConfigurationError):
            RefTensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))

    def test_nonfinite_output_names_op(self):
        with pytest.raises(NumericError, match="log"):
            RefTensor([[0.0]]).log()
        with pytest.raises(NumericError, match="exp"):
            RefTensor([[1e9]]).exp()

    def test_linear_overflow_names_linear(self):
        x = Tensor([[1e200, 1e200]])
        w = Tensor([[1e200], [1e200]], requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="'linear'"):
            mlp(x, [(w, Tensor([[0.0]]))], relu_last=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_values_with_overflowing_sum_pass(self):
        # their sum overflows; the check looks at each element, and warns of nothing
        big = np.finfo(np.float64).max
        out = RefTensor([[big, big, 1e308]]) * 1.0
        np.testing.assert_array_equal(out.values, [[big, big, 1e308]])

    @pytest.mark.parametrize("n_layers,op", [(1, "'linear'"), (2, "'mlp'")])
    def test_overflow_clipped_by_relu_still_raises(self, n_layers, op):
        # the first pre-activation overflows to -inf, which a relu would clip to 0
        x = Tensor([[1e200, 1e200]])
        layers = [(Tensor([[-1e200], [-1e200]]), Tensor([[0.0]])),
                  (Tensor([[1.0]]), Tensor([[0.0]]))][:n_layers]
        with pytest.raises(NumericError, match=op):
            mlp(x, layers, relu_last=True)

    def test_linear_matches_matmul_add_relu(self):
        rng = np.random.default_rng(4)
        x, w, b = (rng.standard_normal(s) for s in ((5, 4), (4, 3), (1, 3)))
        for relu in (False, True):
            out = mlp(Tensor(x), [(Tensor(w), Tensor(b))], relu)
            want = x @ w + b
            np.testing.assert_array_equal(out.values, np.maximum(want, 0.0) if relu else want)


class TestBackward:
    def test_square_derivative(self):
        x = RefTensor([[3.0]], requires_grad=True)
        (x * x).backward()
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_relu_piecewise(self):
        x = RefTensor([[-1.0, 2.0]], requires_grad=True)
        relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])

    def test_non_scalar_loss_rejected(self):
        x = RefTensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(UsageError):
            (x * x).backward()

    def test_grad_accumulates_across_calls(self):
        x = RefTensor([[2.0]], requires_grad=True)
        (x * x).backward()
        (x * x).backward()
        assert x.grad[0, 0] == pytest.approx(8.0)

    def test_unused_parameter_gets_zero_grad(self):
        x = RefTensor([[1.0]], requires_grad=True)
        y = Tensor([[5.0]], requires_grad=True)
        (x * x).backward()
        np.testing.assert_array_equal(y.grad, [[0.0]])

    def test_shared_grad_array_not_mutated(self):
        # add hands one grad array to both parents; a second contribution
        # to one parent must not write into the array the other holds
        p = RefTensor([[1.0, 2.0]], requires_grad=True) * 2.0
        q = RefTensor([[3.0, 4.0]], requires_grad=True) * 3.0
        s = p + q
        g = np.array([[1.0, 1.0]])
        s._backward_fn(g)
        p._accumulate(np.array([[5.0, 7.0]]))
        np.testing.assert_array_equal(q.grad, [[1.0, 1.0]])
        np.testing.assert_array_equal(g, [[1.0, 1.0]])
        np.testing.assert_array_equal(p.grad, [[6.0, 8.0]])

    def test_diamond_graph_fanout(self):
        # z = x*x + x*x: both uses must contribute, d/dx = 4x
        x = RefTensor([[3.0]], requires_grad=True)
        y = x * x
        (y + y).backward()
        assert x.grad[0, 0] == pytest.approx(12.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        w = RefTensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = RefTensor(rng.standard_normal((5, 4)))

        def build():
            h = relu(x.matmul(w))
            s = lift(softmax_rows(h + 0.3))
            return (s * s).sum() + logsumexp_rows(h).mean()

        check_gradients(build, [w])

    @pytest.mark.parametrize("seed", range(3))
    def test_cosine_and_distance_grads(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = RefTensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = RefTensor(rng.standard_normal((2, 4)), requires_grad=True)

        def build():
            return cosine_similarity(a, b).sum() + squared_distances(a, b).mean()

        check_gradients(build, [a, b])

    def test_broadcast_grads(self):
        rng = np.random.default_rng(7)
        bias = RefTensor(rng.standard_normal((1, 3)), requires_grad=True)
        col = RefTensor(rng.standard_normal((4, 1)), requires_grad=True)
        x = RefTensor(rng.standard_normal((4, 3)))

        def build():
            return ((x + bias) * col).sum()

        check_gradients(build, [bias, col])


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(2, 6))
    def test_softmax_rows_are_distributions(self, seed, n, k):
        rng = np.random.default_rng(seed)
        out = softmax_rows(RefTensor(rng.standard_normal((n, k)) * 5.0))
        assert np.all(out.values > 0.0)
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)

    def test_backward_visits_each_node_once(self):
        # if a shared node were visited twice the gradient would double
        x = RefTensor([[2.0]], requires_grad=True)
        shared = x * 3.0
        ((shared + shared) + shared).backward()
        assert x.grad[0, 0] == pytest.approx(9.0)


class TestTakeRows:
    @pytest.mark.parametrize("rows", [[3, 0, 4, 1, 2], [4, 1], [3, 0, 3, 1], [-1, 4], [0, -5, 2]])
    def test_backward_matches_add_at_bit_for_bit(self, rows):
        """Distinct rows take the plain scatter, repeated ones (a negative
        index repeats its row n - i) add.at; both give add.at's values."""
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        grad = rng.standard_normal((len(rows), 3))
        (take_rows(a, rows) * RefTensor(grad)).sum().backward()
        want = np.zeros((5, 3))
        np.add.at(want, np.asarray(rows), grad)
        np.testing.assert_array_equal(a.grad, want)


def store(*arrays):
    """A flat buffer holding ``arrays`` in order and one parameter tensor
    viewing each, the layout ``Model`` gives its weights."""
    flat = np.concatenate([np.ravel(a) for a in arrays]).astype(np.float64)
    bounds = np.cumsum([0] + [np.size(a) for a in arrays])
    return flat, [Tensor(flat[lo:hi].reshape(np.shape(a)), requires_grad=True)
                  for a, lo, hi in zip(arrays, bounds, bounds[1:])]


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        flat, (p,) = store([[1.0, -2.0]])
        opt = Adam(flat, [p], lr=0.1)
        opt.zero_grad()
        opt.step()
        np.testing.assert_array_equal(p.values, [[1.0, -2.0]])

    def test_first_step_moves_by_lr_sign(self):
        # bias-corrected first step: m_hat/sqrt(v_hat) = g/|g| exactly
        flat, (p,) = store([[1.0, 1.0]])
        opt = Adam(flat, [p], lr=0.01)
        p.grad = np.array([[0.5, -3.0]])
        opt.step()
        expected = 1.0 - 0.01 * np.array([0.5, -3.0]) / (np.abs([0.5, -3.0]) + 1e-8)
        np.testing.assert_allclose(p.values[0], expected, rtol=1e-9)

    def test_two_identical_steps_closed_form(self):
        g = 2.0
        flat, (p,) = store([[0.0]])
        opt = Adam(flat, [p], lr=0.1)
        for _ in range(2):
            p.grad = np.array([[g]])
            opt.step()
        assert opt.step_count == 2
        b1, b2 = 0.9, 0.999
        m_expect = (1 - b1) * g * b1 + (1 - b1) * g   # EMA after two equal grads
        v_expect = (1 - b2) * g * g * b2 + (1 - b2) * g * g
        np.testing.assert_allclose(opt.m, [m_expect], rtol=1e-12)
        np.testing.assert_allclose(opt.v, [v_expect], rtol=1e-12)

    def test_parameters_live_in_one_flat_buffer(self):
        """``Model`` lays every parameter out in its store in ``parameters()``
        order, and a step over the store moves what the views read."""
        model = Model(ExperimentConfig(latent_dim=2, encoder_hidden=(3,), head_hidden=(2,)), 2, 3)
        model.initialize()
        params = [t for _, t in model.parameters()]
        assert all(np.shares_memory(t.values, model.flat) for t in params)
        np.testing.assert_array_equal(np.concatenate([t.values.ravel() for t in params]), model.flat)
        before = model.flat.copy()
        opt = Adam(model.flat, params, lr=0.1)
        for t in params:
            t.grad = np.ones_like(t.values)
        opt.step()
        np.testing.assert_allclose(model.flat, before - 0.1, rtol=1e-8, atol=1e-8)
        np.testing.assert_array_equal(np.concatenate([t.values.ravel() for t in params]), model.flat)

    def test_bad_lr_rejected(self):
        with pytest.raises(UsageError):
            Adam(*store([[1.0]]), lr=0.0)

    def test_shape_mismatch_rejected(self):
        flat, (p,) = store([[1.0, 2.0]])
        opt = Adam(flat, [p])
        p.grad = np.zeros((2, 2))
        with pytest.raises(UsageError):
            opt.step()


class TestNoTape:
    def test_nodes_keep_no_parents_and_no_closure(self):
        rng = np.random.default_rng(0)
        layers = [(Tensor(rng.standard_normal((3, 4)), requires_grad=True),
                   Tensor(rng.standard_normal((1, 4)), requires_grad=True))]
        x = Tensor(rng.standard_normal((5, 3)))
        with no_tape():
            untaped = softmax_rows(mlp(x, layers))
        taped = softmax_rows(mlp(x, layers))
        assert (untaped._parents, untaped._backward_fn, untaped.requires_grad) == ((), None, False)
        assert taped._parents and taped._backward_fn is not None and taped.requires_grad
        np.testing.assert_array_equal(untaped.values, taped.values)

    def test_training_gets_gradients_after_a_numeric_error_in_the_block(self):
        # a switch left off would let training run on without any gradient
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 4))
        data = trainer.prepare_training_data(X, rng.exponential(5.0, 40) + 0.1,
                                             rng.integers(2, size=40), 4)
        config = ExperimentConfig(latent_dim=2, n_bins=4, encoder_hidden=(8,), head_hidden=(8,),
                                  pretrain_epochs=1, batch_size=16, seed=2)
        state = trainer.pretrain(data, config)
        state.model.flat[...] = 1e200
        with pytest.raises(NumericError):
            state.model.latents(X)  # overflows inside its no_tape block
        state = trainer.pretrain(data, config)
        for name, t in state.model.parameters():
            assert t.grad is not None and np.any(t.grad), name


class TestConsumedGraph:
    """``backward`` frees each node's closure, parents and gradient once it
    has run; leaves keep their gradients and every node its values."""

    @staticmethod
    def layers():
        rng = np.random.default_rng(3)
        return [(Tensor(rng.standard_normal((3, 4)), requires_grad=True),
                 Tensor(rng.standard_normal((1, 4)), requires_grad=True))]

    @staticmethod
    def graph(layers):
        x = Tensor(np.random.default_rng(4).standard_normal((5, 3)))
        hidden = softmax_rows(mlp(x, layers))
        return hidden, hidden.mean(axis=1).mean()

    def test_backward_keeps_leaf_gradients_and_every_value(self):
        layers = self.layers()
        hidden, loss = self.graph(layers)
        values = (hidden.values.copy(), loss.values.copy())
        loss.backward()
        for leaf in layers[0]:
            assert leaf.grad is not None and np.any(leaf.grad)
        for node in (hidden, loss):
            assert (node._parents, node._backward_fn, node.grad) == ((), None, None)
        np.testing.assert_array_equal(hidden.values, values[0])
        np.testing.assert_array_equal(loss.values, values[1])

    def test_second_backward_from_a_consumed_root_raises(self):
        layers = self.layers()
        _, loss = self.graph(layers)
        loss.backward()
        grad = layers[0][0].grad.copy()
        with pytest.raises(UsageError, match=r"^backward from a consumed 'mean' node"):
            loss.backward()
        np.testing.assert_array_equal(layers[0][0].grad, grad)


class TestPackageSurface:
    """The package tensor carries the fused nodes only; the generic algebra
    lives on the tests' reference tape and is never added to it."""

    REMOVED = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__matmul__", "matmul", "transpose",
               "T", "exp", "log", "clamp_min", "sum", "_lift", "item", "numpy", "zero_grad")

    def test_generic_ops_are_not_on_the_package_tensor(self):
        from survstrat import networks, tensor

        assert [name for name in self.REMOVED if hasattr(tensor.Tensor, name)] == []
        for name in ("linear", "_unbroadcast"):
            assert not hasattr(tensor, name), name
        assert "__call__" not in vars(networks.Linear)

    def test_importing_the_reference_tape_leaves_the_package_tensor_unchanged(self):
        script = (
            "from survstrat.tensor import Tensor\n"
            "before = dict(vars(Tensor))\n"
            "import reftape\n"
            "assert dict(vars(Tensor)) == before\n"
        )
        tests = pathlib.Path(__file__).parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
