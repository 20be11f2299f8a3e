"""Reverse-mode tape: every op's backward pass is checked against the
finite-difference oracle in `numerics`."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semroute import autodiff as ad
from semroute.errors import InvalidInputError, ShapeError
from semroute.gradcheck import REL_TOL, relative_error
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
        assert c.grad is None

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

    def test_op_results_get_a_gradient_buffer_from_backward(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        mid = ad.scale(p, 3.0)
        diff = ad.sub(mid, ad.mul(mid, mid))
        assert mid.grad is ad.NO_GRAD_YET and diff.grad is ad.NO_GRAD_YET
        ad.sum_all(diff).backward()
        np.testing.assert_array_equal(diff.grad, [1.0, 1.0])  # full shape, not a scalar
        np.testing.assert_array_equal(mid.grad, [1.0 - 2 * 3.0, 1.0 - 2 * 6.0])
        np.testing.assert_array_equal(p.grad, 3.0 * mid.grad)

    def test_fused_passes_terms_to_gradient_operands_only(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        c = ad.constant(np.array([3.0, 4.0]))
        out = ad.fused(p.value * c.value, (p, c), lambda g: (g * c.value, None))
        assert out._parents == (p,)
        ad.sum_all(out).backward()
        np.testing.assert_array_equal(p.grad, [3.0, 4.0])
        over_constants = ad.fused(np.ones(2), (c, np.ones(2)), lambda g: (g, g))
        assert over_constants._parents == () and over_constants._backward is None

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

    def test_matmul_leading_axes(self):
        check_op(lambda t: ad.sum_all(ad.tanh(ad.matmul(t["x"], t["w"]))),
                 {"x": (2, 4, 3), "w": (3, 5)})

    def test_mix(self):
        # (B, E) weights over (B, E, d) values, gradient into both
        def build(t):
            return ad.sum_all(ad.tanh(ad.mix(ad.softmax_rows(t["w"]), t["v"])))
        check_op(build, {"w": (4, 3), "v": (4, 3, 2)})

    def test_mix_option_axis(self):
        # (B, J, E) weights over (B, E, d) values give (B, J, d)
        def build(t):
            return ad.sum_all(ad.tanh(ad.mix(ad.softmax_rows(t["w"]), t["v"])))
        check_op(build, {"w": (4, 5, 3), "v": (4, 3, 2)})

    def test_cosine_rows(self):
        check_op(lambda t: ad.sum_all(ad.cosine_rows(t["a"], t["b"])),
                 {"a": (5, 4), "b": (5, 4)}, atol=1e-6)

    def test_cosine_rows_leading_axes(self):
        check_op(lambda t: ad.sum_all(ad.tanh(ad.cosine_rows(t["a"], t["b"]))),
                 {"a": (3, 2, 4), "b": (3, 2, 4)}, atol=1e-6)

    def test_bce_logistic(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        check_op(lambda t: ad.sum_all(ad.bce_logistic(t["s"], labels, 5.0)),
                 {"s": (4,)}, atol=1e-6)

    def test_kl_rows(self):
        target = np.stack([softmax([1.0, -1.0, 0.5]), softmax([0.0, 0.0, 2.0])])

        def build(t):
            return ad.sum_all(ad.kl_rows(target, ad.softmax_rows(t["z"])))
        check_op(build, {"z": (2, 3)}, atol=1e-6)

    @pytest.mark.parametrize("n_experts, hidden", [(3, 4), (1, 4), (3, 1), (1, 1)])
    def test_experts(self, n_experts, hidden):
        # every row on every expert: gradients at the gradcheck tolerance
        rng = np.random.default_rng(n_experts * 10 + hidden)
        check_experts_gradients(rng, 5, n_experts, 4, hidden)

    def test_stack_cols(self):
        check_op(lambda t: ad.sum_all(ad.tanh(ad.stack_cols([t["a"], t["b"]]))),
                 {"a": (4,), "b": (4,)})

    def test_stack_cols_of_rows(self):
        check_op(lambda t: ad.sum_all(ad.tanh(ad.stack_cols([t["a"], t["b"]]))),
                 {"a": (4, 3), "b": (4, 3)})

    def test_fused(self):
        # a hand-written node: sin(a) * b, its gradient terms returned per operand
        def build(t):
            a, b = t["a"], t["b"]
            out = ad.fused(np.sin(a.value) * b.value, (a, b),
                           lambda g: (g * np.cos(a.value) * b.value, g * np.sin(a.value)))
            return ad.sum_all(ad.tanh(out))
        check_op(build, {"a": (3, 2), "b": (3, 2)})

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

    def test_mix_option_axis_values(self, rng):
        w = rng.dirichlet(np.ones(3), size=(4, 2))  # (B, J, E)
        v = rng.standard_normal((4, 3, 5))          # (B, E, d)
        out = ad.mix(ad.constant(w), ad.constant(v)).value
        np.testing.assert_allclose(out, np.einsum("bje,bed->bjd", w, v), atol=1e-14)

    def test_mix_shape_guard(self):
        w = ad.constant(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            ad.mix(w, ad.constant(np.ones((2, 4, 5))))
        with pytest.raises(ShapeError):
            ad.mix(w, ad.constant(np.ones((3, 3, 5))))

    def test_experts_values_and_layout(self, rng):
        x = rng.standard_normal((6, 4))
        w1, b1 = rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 2))
        w2, b2 = rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 4))
        out = ad.experts(*map(ad.constant, (x, w1, b1, w2, b2)))
        assert out.shape == (6, 3, 4) and out.value.flags.c_contiguous
        for e in range(3):
            np.testing.assert_array_equal(out.value[:, e],
                                          np.tanh(x @ w1[e] + b1[e]) @ w2[e] + b2[e])

    def test_experts_shape_guard(self):
        x, w1, b1 = np.ones((2, 4)), np.ones((3, 4, 5)), np.ones((3, 5))
        w2, b2 = np.ones((3, 5, 4)), np.ones((3, 4))
        for bad in ((np.ones((2, 3)), w1, b1, w2, b2), (x, w1, b1, np.ones((3, 4, 5)), b2),
                    (x, w1, np.ones(5), w2, b2), (x, np.ones((4, 5)), b1, w2, b2)):
            with pytest.raises(ShapeError):
                ad.experts(*map(ad.constant, bad))

    @pytest.mark.parametrize("topk, error", [
        (np.array([[0, 1], [1, 1]]), InvalidInputError),   # an expert twice in a row
        (np.array([[0, 3], [0, 1]]), InvalidInputError),   # no expert 3
        (np.array([[-1, 0], [0, 1]]), InvalidInputError),
        (np.array([[0, 1]]), ShapeError),                  # one row of two
        (np.zeros((2, 0), dtype=int), ShapeError),
        (np.array([[0.0, 1.0], [0.0, 1.0]]), ShapeError)])
    def test_experts_topk_guard(self, topk, error):
        x, w1, b1 = np.ones((2, 4)), np.ones((3, 4, 5)), np.ones((3, 5))
        w2, b2 = np.ones((3, 5, 4)), np.ones((3, 4))
        with pytest.raises(error):
            ad.experts(*map(ad.constant, (x, w1, b1, w2, b2)), topk)

    def test_kl_rows_underflowed_q_is_infinite_loss(self):
        # a student gate that underflowed to zero where the target is not is
        # an infinite loss (reported as divergence), not an exception
        q = ad.parameter(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert np.isinf(ad.kl_rows(np.array([[0.5, 0.5], [0.5, 0.5]]), q).value[0])
        # where the target is zero too, the entry adds nothing to the gradient
        q = ad.parameter(np.array([[1.0, 0.0]]))
        ad.sum_all(ad.kl_rows(np.array([[1.0, 0.0]]), q)).backward()
        np.testing.assert_array_equal(q.grad, [[-1.0, 0.0]])

    def test_matmul_shape_guard(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3, 4))))

    def test_topological_order_diamond(self):
        # f = (x*x) + (x*x) reuses an intermediate node; grad must be 4x
        x = ad.parameter(np.array([2.0]))
        sq = ad.mul(x, x)
        ad.sum_all(ad.add(sq, sq)).backward()
        assert x.grad[0] == pytest.approx(8.0)


def _routing(b, n_experts, k, layout, rng):
    """A (B, K) table of ascending expert ids per row. `shared`: every row
    picks the same experts, so each of them gets all B rows (C = B);
    `idle`: no row picks the last expert (when K < E); `random`: each row
    picks its own."""
    pool = n_experts - 1 if layout == "idle" and k < n_experts else n_experts
    if layout == "shared":
        return np.tile(np.sort(rng.permutation(pool)[:k]), (b, 1))
    return np.sort([rng.permutation(pool)[:k] for _ in range(b)], axis=1)


def _exact_blocks(rng, b, n_experts, d, hidden):
    """x and expert blocks whose outputs come out the same in every
    summation order, with or without fused multiply-adds: integer x, w1
    and b1 make x @ w1 + b1 exact, and a w2 with one signed power of two
    per column makes each output one exact product of a hidden unit."""
    x, w1, b1 = (rng.integers(-3, 4, shape).astype(float)
                 for shape in ((b, d), (n_experts, d, hidden), (n_experts, hidden)))
    w2 = np.zeros((n_experts, hidden, d))
    w2[np.arange(n_experts)[:, None], rng.integers(0, hidden, (n_experts, d)),
       np.arange(d)] = rng.choice([-2.0, -0.5, 0.5, 1.0, 4.0], (n_experts, d))
    return x, w1, b1, w2, rng.standard_normal((n_experts, d))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(b=st.integers(1, 6), n_experts=st.integers(1, 5), k=st.integers(1, 5),
       layout=st.sampled_from(["random", "shared", "idle"]), d=st.integers(1, 4),
       hidden=st.integers(1, 4), seed=st.integers(0, 2**16))
@example(b=5, n_experts=4, k=2, layout="idle", d=3, hidden=3, seed=0)    # an idle expert
@example(b=5, n_experts=3, k=1, layout="shared", d=3, hidden=2, seed=1)  # all rows on one, C = B
@example(b=4, n_experts=3, k=3, layout="random", d=2, hidden=3, seed=2)  # K = E
@example(b=1, n_experts=4, k=2, layout="random", d=3, hidden=2, seed=3)  # B = 1
def test_dispatched_experts_match_dense_reference(b, n_experts, k, layout, d, hidden, seed):
    """Each (row, slot) output is its expert on its row, bit for bit, and
    the gradients of x and all four blocks match finite differences."""
    k = min(k, n_experts)
    rng = np.random.default_rng(seed)
    topk = _routing(b, n_experts, k, layout, rng)

    x, w1, b1, w2, b2 = _exact_blocks(rng, b, n_experts, d, hidden)
    out = ad.experts(*map(ad.constant, (x, w1, b1, w2, b2)), topk).value
    assert out.shape == (b, k, d)
    for row in range(b):
        for slot, e in enumerate(topk[row]):
            np.testing.assert_array_equal(out[row, slot],
                                          np.tanh(x[row] @ w1[e] + b1[e]) @ w2[e] + b2[e])

    grads = check_experts_gradients(rng, b, n_experts, d, hidden, topk)
    idle = np.setdiff1d(np.arange(n_experts), topk)
    for name in ("w1", "b1", "w2", "b2"):  # an expert no row picks gets no gradient
        assert not grads[name][idle].any(), name


def check_experts_gradients(rng, b, n_experts, d, hidden, topk=None):
    """Tape gradients of x and the four expert blocks, drawn from `rng`,
    against finite differences at the gradcheck tolerance; returns them."""
    shapes = {"x": (b, d), "w1": (n_experts, d, hidden), "b1": (n_experts, hidden),
              "w2": (n_experts, hidden, d), "b2": (n_experts, d)}
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    coeff = ad.constant(_coeff((b, n_experts if topk is None else topk.shape[1], d)))

    def build(t):
        out = ad.experts(t["x"], t["w1"], t["b1"], t["w2"], t["b2"], topk)
        return ad.sum_all(ad.mul(ad.tanh(out), coeff))

    tensors = {name: ad.parameter(v) for name, v in values.items()}
    build(tensors).backward()
    numeric = finite_difference_gradient(
        lambda params: float(build({n: ad.constant(v) for n, v in params.items()}).value),
        values)
    for name in shapes:
        assert relative_error(tensors[name].grad, numeric[name]) <= REL_TOL, name
    return {name: t.grad for name, t in tensors.items()}


def _coeff(shape):
    return np.random.default_rng(99).standard_normal(shape)
