"""Reverse-mode tape: every op's backward pass is checked against the
finite-difference oracle in `numerics`."""
import numpy as np
import pytest

from semroute import autodiff as ad
from semroute.errors import InvalidInputError, ShapeError
from semroute.numerics import finite_difference_gradient, softmax


def check_op(build, shapes, seed=0, atol=1e-7):
    """Compare tape gradients of scalar `build(tensors)` with central
    finite differences over named parameter arrays."""
    rng = np.random.default_rng(seed)
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}

    tensors = {name: ad.parameter(v) for name, v in values.items()}
    out = build(tensors)
    out.backward()

    def loss_fn(params):
        consts = {name: ad.parameter(v) for name, v in params.items()}
        return float(build(consts).value)

    numeric = finite_difference_gradient(loss_fn, values)
    for name in shapes:
        np.testing.assert_allclose(tensors[name].grad, numeric[name], atol=atol,
                                   err_msg=f"gradient mismatch for {name}")


class TestTensorBasics:
    def test_backward_requires_scalar(self):
        t = ad.parameter(np.ones(3))
        with pytest.raises(InvalidInputError):
            t.backward()

    def test_constant_blocks_gradient(self):
        c = ad.constant(np.array([2.0]))
        p = ad.parameter(np.array([3.0]))
        ad.sum_all(ad.mul(c, p)).backward()
        assert p.grad[0] == 2.0
        assert not c.requires_grad

    def test_detach_stops_flow(self):
        p = ad.parameter(np.array([3.0]))
        ad.sum_all(ad.mul(p.detach(), p)).backward()
        assert p.grad[0] == 3.0  # only the live branch contributes

    def test_grad_accumulates_over_reuse(self):
        p = ad.parameter(np.array([1.5]))
        ad.sum_all(ad.add(p, p)).backward()
        assert p.grad[0] == 2.0

    def test_constants_carry_no_gradient_buffer(self):
        c = ad.constant(np.ones((2, 3)))
        w = ad.constant(np.ones((3, 2)))
        out = ad.tanh(ad.matmul(c, w))
        assert c.grad is None and out.grad is None
        assert out._parents == () and out._backward is None

    def test_backward_skips_constant_operands(self):
        c = ad.constant(np.array([[1.0, 2.0]]))
        p = ad.parameter(np.array([[3.0], [4.0]]))
        ad.sum_all(ad.matmul(c, p)).backward()
        np.testing.assert_array_equal(p.grad, [[1.0], [2.0]])
        assert c.grad is None


class TestOpGradients:
    def test_add_sub_mul(self):
        check_op(lambda t: ad.sum_all(ad.mul(ad.add(t["a"], t["b"]),
                                             ad.sub(t["a"], t["b"]))),
                 {"a": (3, 4), "b": (3, 4)})

    def test_add_broadcast_bias(self):
        check_op(lambda t: ad.sum_all(ad.tanh(ad.add(t["x"], t["b"]))),
                 {"x": (5, 3), "b": (3,)})

    def test_scale(self):
        check_op(lambda t: ad.sum_all(ad.scale(t["a"], -2.5)), {"a": (2, 3)})

    def test_matmul(self):
        check_op(lambda t: ad.sum_all(ad.tanh(ad.matmul(t["x"], t["w"]))),
                 {"x": (4, 3), "w": (3, 5)})

    def test_tanh(self):
        check_op(lambda t: ad.sum_all(ad.tanh(t["a"])), {"a": (6,)})

    def test_softmax_rows(self):
        check_op(lambda t: ad.sum_all(ad.mul(ad.softmax_rows(t["z"]),
                                             ad.constant(_coeff((4, 5))))),
                 {"z": (4, 5)})

    def test_masked_softmax_rows(self):
        mask = np.zeros((4, 5), dtype=bool)
        mask[:, [1, 3]] = True
        check_op(lambda t: ad.sum_all(ad.mul(ad.masked_softmax_rows(t["z"], mask),
                                             ad.constant(_coeff((4, 5))))),
                 {"z": (4, 5)})

    def test_mix(self):
        def build(t):
            return ad.sum_all(ad.tanh(ad.mix(ad.softmax_rows(t["w"]),
                                             [t["h0"], t["h1"], t["h2"]])))
        check_op(build, {"w": (4, 3), "h0": (4, 2), "h1": (4, 2), "h2": (4, 2)})

    def test_cosine_rows(self):
        check_op(lambda t: ad.sum_all(ad.cosine_rows(t["a"], t["b"])),
                 {"a": (5, 4), "b": (5, 4)}, atol=1e-6)

    def test_bce_logistic(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        check_op(lambda t: ad.sum_all(ad.bce_logistic(t["s"], labels, 5.0)),
                 {"s": (4,)}, atol=1e-6)

    def test_kl_rows(self):
        target = np.stack([softmax([1.0, -1.0, 0.5]), softmax([0.0, 0.0, 2.0])])

        def build(t):
            return ad.sum_all(ad.kl_rows(target, ad.softmax_rows(t["z"])))
        check_op(build, {"z": (2, 3)}, atol=1e-6)

    def test_stack_cols(self):
        check_op(lambda t: ad.sum_all(ad.tanh(ad.stack_cols([t["a"], t["b"]]))),
                 {"a": (4,), "b": (4,)})

    def test_mean_all(self):
        check_op(lambda t: ad.mean_all(ad.mul(t["a"], t["a"])), {"a": (3, 3)})


class TestOpValues:
    def test_masked_softmax_zeros_off_mask(self, rng):
        z = rng.standard_normal((3, 6))
        mask = np.zeros((3, 6), dtype=bool)
        mask[:, :2] = True
        y = ad.masked_softmax_rows(ad.constant(z), mask).value
        assert np.all(y[:, 2:] == 0.0)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        # restricted softmax equals softmax of the restricted logits
        np.testing.assert_allclose(y[0, :2], softmax(z[0, :2]), atol=1e-12)

    def test_masked_softmax_rejects_empty_row(self):
        with pytest.raises(InvalidInputError):
            ad.masked_softmax_rows(ad.constant(np.ones((1, 3))),
                                   np.zeros((1, 3), dtype=bool))

    def test_mix_prestacked_outputs(self, rng):
        w = ad.constant(rng.dirichlet(np.ones(3), size=4))
        outputs = [ad.constant(rng.standard_normal((4, 2))) for _ in range(3)]
        stacked = np.stack([o.value for o in outputs], axis=1)
        np.testing.assert_array_equal(ad.mix(w, outputs, stacked).value,
                                      ad.mix(w, outputs).value)

    def test_mix_shape_guard(self):
        w = ad.constant(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            ad.mix(w, [ad.constant(np.ones((2, 4)))] * 2)

    def test_topological_order_diamond(self):
        # f = (x*x) + (x*x) reuses an intermediate node; grad must be 4x
        x = ad.parameter(np.array([2.0]))
        sq = ad.mul(x, x)
        ad.sum_all(ad.add(sq, sq)).backward()
        assert x.grad[0] == pytest.approx(8.0)


def _coeff(shape):
    return np.random.default_rng(99).standard_normal(shape)
