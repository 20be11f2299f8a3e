"""Router parameters, gating functions, Top-K selection and checkpoints."""
import re

import numpy as np
import pytest

from conftest import read_archive, small_config, write_archive
from semroute.data import generate_dataset
from semroute.errors import DataError, InvalidInputError, InvalidRoutingError, ShapeError
from semroute.model import CHECKPOINT_FORMAT, Model, block_shapes, config_hash
from semroute.numerics import seeded_rng, softmax
from semroute.scoring import (
    base_logits,
    expert_forward,
    expert_forward_one,
    route,
    select_topk,
    semantic_direction,
    student_gate,
    teacher_gate,
)
from semroute.trainer import AdamW, train_step


def make_model(d=6, n_experts=4, k=2, hidden=5, seed=0):
    return Model.init(d, n_experts, k, hidden, seed)


class TestBaseLogits:
    def test_zero_input(self):
        assert np.all(base_logits(np.zeros(6), np.ones((6, 4))) == 0.0)

    def test_row_extraction(self):
        w = np.array([[1.5, -2.0], [0.3, 0.7]])
        np.testing.assert_array_equal(base_logits(np.array([1.0, 0.0]), w),
                                      w[0])

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            base_logits(np.ones(3), np.ones((4, 2)))


class TestSemanticDirection:
    def test_identical_cues_give_zero(self, rng):
        c = rng.standard_normal(6)
        w = rng.standard_normal((6, 4))
        assert np.all(semantic_direction(c, c, w) == 0.0)

    def test_linearity(self, rng):
        pos, neg = rng.standard_normal(6), rng.standard_normal(6)
        w = rng.standard_normal((6, 4))
        np.testing.assert_allclose(semantic_direction(pos, neg, w),
                                   (pos - neg) @ w, atol=1e-15)


class TestGates:
    def test_zero_injection_matches_student(self, rng):
        z = rng.standard_normal(5)
        s = rng.standard_normal(5)
        _, g_t = teacher_gate(z, s, 0.0)
        np.testing.assert_array_equal(g_t, student_gate(z))

    def test_teacher_logits(self, rng):
        z, s = rng.standard_normal(5), rng.standard_normal(5)
        logits, gate = teacher_gate(z, s, 0.5)
        np.testing.assert_allclose(logits, z + 0.5 * s, atol=1e-15)
        np.testing.assert_allclose(gate, softmax(logits), atol=1e-15)

    def test_uniform_logits_uniform_gate(self):
        np.testing.assert_allclose(student_gate(np.full(4, 2.0)), 0.25, atol=1e-15)

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            teacher_gate(rng.standard_normal(5), rng.standard_normal(4), 0.5)

    def test_l1_perturbation_bound(self, rng):
        # ||g_teacher - g_student||_1 <= 2 * lambda_a * ||s||_inf
        for _ in range(100):
            z = rng.standard_normal(8) * 3
            s = rng.standard_normal(8)
            for lam in (0.1, 0.5, 1.0):
                _, g_t = teacher_gate(z, s, lam)
                gap = np.abs(g_t - student_gate(z)).sum()
                assert gap <= 2.0 * lam * np.abs(s).max() + 1e-12


class TestTopK:
    def test_k_equals_e(self):
        assert select_topk(np.array([0.4, 0.1, 0.3, 0.2]), 4) == (0, 1, 2, 3)

    def test_tie_takes_lower_index(self):
        assert select_topk(np.array([0.1, 0.4, 0.4, 0.1]), 2) == (1, 2)

    def test_sorted_ascending(self, rng):
        for _ in range(20):
            topk = select_topk(rng.random(6), 3)
            assert list(topk) == sorted(topk)

    def test_k_out_of_range(self):
        with pytest.raises(InvalidRoutingError):
            select_topk(np.array([0.5, 0.5]), 3)
        with pytest.raises(InvalidRoutingError):
            select_topk(np.array([0.5, 0.5]), 0)

    def test_pure_function(self, rng):
        g = rng.random(8)
        assert select_topk(g, 2) == select_topk(g.copy(), 2)


class TestExperts:
    def test_zero_weights_output_is_second_bias(self, rng):
        model = make_model()
        model.params["expert0_w1"][:] = 0.0
        model.params["expert0_w2"][:] = 0.0
        model.params["expert0_b2"][:] = rng.standard_normal(model.d)
        out = expert_forward_one(rng.standard_normal(model.d), model.params, 0)
        np.testing.assert_array_equal(out, model.params["expert0_b2"])

    def test_forward_matches_per_expert(self, rng):
        model = make_model()
        x = rng.standard_normal(model.d)
        outs = expert_forward(x, model, (1, 3))
        np.testing.assert_array_equal(outs[0], expert_forward_one(x, model.params, 1))
        np.testing.assert_array_equal(outs[1], expert_forward_one(x, model.params, 3))

    def test_index_guard(self, rng):
        model = make_model()
        with pytest.raises(InvalidRoutingError):
            expert_forward(rng.standard_normal(model.d), model, (0, 99))


class TestRoute:
    def test_topk_follows_mode_gate(self, rng):
        model = make_model()
        for _ in range(10):
            x = rng.standard_normal(model.d)
            s_a = rng.standard_normal(model.n_experts)
            teacher = route(x, model, s_a, 0.5, mode="teacher")
            student = route(x, model, None, 0.0, mode="student")
            assert teacher.topk == select_topk(teacher.teacher_gate, model.k)
            assert student.topk == select_topk(student.student_gate, model.k)

    def test_gate_normalization(self, rng):
        model = make_model()
        decision = route(rng.standard_normal(model.d), model,
                         rng.standard_normal(model.n_experts), 0.5, mode="teacher")
        assert abs(decision.teacher_gate.sum() - 1.0) <= 1e-12
        assert abs(decision.student_gate.sum() - 1.0) <= 1e-12


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = make_model(seed=3)
        path = tmp_path / "checkpoint.npz"
        model.save(path, config_hash="abc123")
        loaded = Model.load(path)
        assert (loaded.d, loaded.n_experts, loaded.k, loaded.hidden) == \
            (model.d, model.n_experts, model.k, model.hidden)
        for name, value in model.params.items():
            np.testing.assert_array_equal(loaded.params[name], value)
        header, _ = read_archive(path)
        assert header["format"] == CHECKPOINT_FORMAT and header["config_hash"] == "abc123"
        assert header["blocks"] == {n: list(b.shape) for n, b in model.blocks.items()}

    @pytest.mark.parametrize("edit", ["missing", "unexpected", "shape", "nan", "dims",
                                      "not_json", "no_dims"])
    def test_inconsistent_checkpoint_rejected(self, tmp_path, edit):
        path = tmp_path / "checkpoint.npz"
        make_model().save(path)
        header, vector = read_archive(path)
        if edit == "missing":
            vector = vector[:-1]
        elif edit == "unexpected":
            vector = np.append(vector, 1.0)
        elif edit == "shape":
            vector = vector.reshape(2, -1)
        elif edit == "nan":
            vector[3] = np.nan
        elif edit == "dims":
            header["dims"]["E"] = 3
        elif edit == "no_dims":
            del header["dims"]
        write_archive(path, header, vector)
        if edit == "not_json":  # not an archive at all
            path.write_text("{")
        with pytest.raises(DataError, match=re.escape(str(path))):
            Model.load(path)

    def test_copy_is_independent(self):
        model = make_model()
        clone = model.copy()
        clone.params["gating"][:] = 0.0
        assert not np.all(model.params["gating"] == 0.0)

    def test_init_determinism(self):
        a, b = make_model(seed=11), make_model(seed=11)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_init_scale(self):
        model = Model.init(64, 8, 2, 64, seed=0)
        # weights drawn at scale 1/sqrt(d); std should sit near it
        assert np.std(model.params["gating"]) == pytest.approx(1 / 8, rel=0.15)
        assert np.all(model.params["expert0_b1"] == 0.0)

    def test_k_range_guard(self):
        with pytest.raises(InvalidInputError):
            Model.init(4, 2, 3, 4, seed=0)


class TestFlatVector:
    @pytest.fixture
    def stepped(self):
        """A model after one training step, and its flat vector before it."""
        config = small_config()
        train_set, _ = generate_dataset(config, config.seed)
        model = Model.init(config.d, config.n_experts, config.k, config.hidden, 0)
        before = model.vector.copy()
        train_step(model, train_set[:8].batch, config, config.warmup_steps,
                   AdamW(model.vector.size, config))
        return model, before

    def test_params_stay_live_views_after_a_step(self, stepped):
        model, before = stepped
        assert not np.array_equal(model.vector, before)
        np.testing.assert_array_equal(model.params["expert3_w1"], model.experts_w1[3])
        assert np.shares_memory(model.params["expert3_w1"], model.vector)
        assert all(np.shares_memory(v, model.vector) for v in model.params.values())
        assert sum(v.size for v in model.params.values()) == model.vector.size

    def test_blocks_lay_out_the_vector(self):
        model = make_model()
        shapes = block_shapes(model.d, model.n_experts, model.hidden)
        assert {n: b.shape for n, b in model.blocks.items()} == shapes
        np.testing.assert_array_equal(
            np.concatenate([b.ravel() for b in model.blocks.values()]), model.vector)
        assert model.blocks["experts_b2"] is model.experts_b2

    def test_copy_is_independent(self, stepped):
        model, _ = stepped
        clone = model.copy()
        np.testing.assert_array_equal(clone.vector, model.vector)
        clone.vector[:] = 0.0
        assert not np.all(model.vector == 0.0) and np.all(clone.params["gating"] == 0.0)
        assert not np.shares_memory(clone.vector, model.vector)

    def test_save_load_round_trip_bit_exact(self, stepped, tmp_path):
        model, _ = stepped
        model.save(tmp_path / "checkpoint.npz")
        loaded = Model.load(tmp_path / "checkpoint.npz")
        np.testing.assert_array_equal(loaded.vector, model.vector)
        assert all(np.shares_memory(v, loaded.vector) for v in loaded.params.values())

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ShapeError):
            Model(4, 2, 1, 3, np.zeros(5))


class TestConfigHash:
    def test_stable_and_order_independent(self):
        a = config_hash({"x": 1, "y": [1, 2]})
        b = config_hash({"y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 16

    def test_sensitive_to_values(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})
