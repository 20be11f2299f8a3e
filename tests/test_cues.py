"""Cue scoring, regeneration, synthesis and the cue-file format."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semroute.cues import (
    CueSet,
    CueTable,
    load_cue_table,
    regenerate_if_uncertain,
    save_cue_table,
    score_cue_set,
    score_cues,
    synthesize_cues,
    uncertainty,
)
from semroute.errors import (
    CueFileError,
    DegenerateVectorError,
    InsufficientVariantsError,
    InvalidInputError,
    MissingCueError,
    RegenerationFailedError,
    ShapeError,
)
from semroute.numerics import cosine, seeded_rng


def unit_with_cos(c):
    """2-D unit vector whose cosine with [1, 0] is exactly c."""
    return np.array([c, math.sqrt(1.0 - c * c)])


IMAGE = np.array([1.0, 0.0])


def agreement(image, positive, negative):
    """Agreement of a cue set whose two variants do not affect it."""
    return score_cue_set(CueSet(positive, negative, [positive, negative]), image).agreement


def cue_variance(image, variants):
    """Variance of a cue set whose positive and negative cues do not affect it."""
    return score_cue_set(CueSet(image, image, variants), image).variance


def scalar_scores(image, positive, negative, variants, only_variance):
    """Reference scorer: one `numerics.cosine` per cue."""
    agr = max(0.0, cosine(image, positive) - cosine(image, negative))
    var = float(np.var(np.array([cosine(image, v) for v in variants]), ddof=1))
    return agr, var, uncertainty(agr, var, only_variance=only_variance)


class TestAgreement:
    def test_perfect_positive_orthogonal_negative(self):
        assert agreement(IMAGE, IMAGE, np.array([0.0, 1.0])) == 1.0

    def test_identical_cues_cancel(self, rng):
        v = rng.standard_normal(4)
        c = rng.standard_normal(4)
        assert agreement(v, c, c) == 0.0

    def test_reference_value(self):
        assert agreement(IMAGE, unit_with_cos(0.8), unit_with_cos(0.3)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_floored_at_zero(self):
        agr = agreement(IMAGE, unit_with_cos(0.2), unit_with_cos(0.9))
        assert agr == 0.0 and math.copysign(1.0, agr) == 1.0


class TestVariance:
    def test_identical_variants(self):
        v = unit_with_cos(0.5)
        assert cue_variance(IMAGE, [v, v, v]) == 0.0

    def test_reference_value(self):
        # sample (unbiased) variance of {0.4, 0.6} is 0.02
        variants = [unit_with_cos(0.4), unit_with_cos(0.6)]
        assert cue_variance(IMAGE, variants) == pytest.approx(0.02, abs=1e-12)

    def test_needs_two_variants(self):
        with pytest.raises(InsufficientVariantsError):
            cue_variance(IMAGE, [unit_with_cos(0.4)])


@st.composite
def cue_batches(draw):
    """n cue sets with V in 2..6 variants at d in 2..64, at a scale in
    [1e-3, 1e3], with the images they are scored against."""
    n, n_variants, d = draw(st.integers(1, 6)), draw(st.integers(2, 6)), draw(st.integers(2, 64))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return scale * rng.standard_normal((n, 2 + n_variants, d)), scale * rng.standard_normal((n, d))


class TestScoreCues:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(batch=cue_batches(), only_variance=st.booleans())
    def test_bit_identical_to_scalar_cosines(self, batch, only_variance):
        stacked, images = batch
        got = score_cues(stacked, images, only_variance=only_variance)
        want = np.array([scalar_scores(x, c[0], c[1], c[2:], only_variance)
                         for c, x in zip(stacked, images)]).T
        for got_row, want_row in zip(got, want):
            assert np.array_equal(got_row, want_row)

    def test_one_set_call_matches_batch(self, rng):
        stacked, images = rng.standard_normal((5, 6, 8)), rng.standard_normal((5, 8))
        batch = score_cues(stacked, images)
        for i in range(5):
            one = score_cue_set(CueSet(stacked[i, 0], stacked[i, 1], list(stacked[i, 2:])),
                                images[i])
            assert (one.agreement, one.variance, one.uncertainty) == \
                tuple(float(s[i]) for s in batch)
            assert type(one.agreement) is float

    @pytest.mark.parametrize("edit, error", [
        ("short_cues", ShapeError), ("few_images", ShapeError), ("one_set", ShapeError),
        ("one_variant", InsufficientVariantsError), ("nan_cue", InvalidInputError),
        ("inf_image", InvalidInputError), ("zero_cue", DegenerateVectorError),
        ("zero_image", DegenerateVectorError),
    ])
    def test_checks_of_the_scalar_path(self, rng, edit, error):
        stacked, images = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4))
        if edit == "short_cues":
            stacked = stacked[..., :3]
        elif edit == "few_images":
            images = images[:2]
        elif edit == "one_set":
            stacked = stacked[0]
        elif edit == "one_variant":
            stacked = stacked[:, :3]
        elif edit == "nan_cue":
            stacked[1, 3, 2] = np.nan
        elif edit == "inf_image":
            images[2, 0] = np.inf
        elif edit == "zero_cue":
            stacked[1, 0] = 0.0
        else:
            images[1] = 0.0
        with pytest.raises(error):
            score_cues(stacked, images)


    @pytest.mark.parametrize("operand", ["cue", "image"])
    def test_overflowing_squared_norm_is_rejected(self, operand):
        # its squared norm is inf, which used to turn every cosine into 0
        stacked = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                             [1.0, -1.0, 0.0]]])
        images = np.array([[1.0, 0.0, 1.0]])
        (stacked[0, 0] if operand == "cue" else images[0])[:] = [1e200, 0.0, 0.0]
        with pytest.raises(InvalidInputError, match="overflows"):
            score_cues(stacked, images)


class TestUncertainty:
    def test_zero_variance(self):
        for agr in (0.0, 0.5, 1.0):
            assert uncertainty(agr, 0.0) == 0.0

    def test_reference_value(self):
        assert uncertainty(1.0, 0.2) == pytest.approx(0.1, abs=1e-12)

    def test_only_variance_mode(self):
        assert uncertainty(1.0, 0.2, only_variance=True) == 0.2
        assert uncertainty(0.3, 0.07, only_variance=True) == 0.07

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            uncertainty(-0.1, 0.2)
        with pytest.raises(InvalidInputError):
            uncertainty(0.1, -0.2)

    def test_monotonicity(self):
        assert uncertainty(0.9, 0.2) < uncertainty(0.1, 0.2)
        assert uncertainty(0.5, 0.3) > uncertainty(0.5, 0.1)


class TestScoreCueSet:
    def test_populates_fields(self):
        cs = CueSet(positive=unit_with_cos(0.8), negative=unit_with_cos(0.3),
                    variants=[unit_with_cos(0.4), unit_with_cos(0.6)])
        scored = score_cue_set(cs, IMAGE)
        assert scored.agreement == pytest.approx(0.5, abs=1e-12)
        assert scored.variance == pytest.approx(0.02, abs=1e-12)
        assert scored.uncertainty == pytest.approx(0.02 / 1.5, abs=1e-12)

    def test_dimension_consistency_enforced(self):
        with pytest.raises(InvalidInputError):
            CueSet(positive=np.ones(3), negative=np.ones(2))


class TestRegeneration:
    def make(self, var_pair):
        return CueSet(positive=unit_with_cos(0.8), negative=unit_with_cos(0.3),
                      variants=[unit_with_cos(v) for v in var_pair])

    def test_noop_when_confident(self):
        cs = self.make((0.5, 0.5))  # unc = 0

        def generator(i):
            raise AssertionError("generator must not be called")

        out = regenerate_if_uncertain(cs, IMAGE, 0.1, generator)
        assert out.uncertainty == 0.0

    def test_fallback_keeps_best_candidate(self):
        noisy = self.make((0.1, 0.9))  # high variance
        slightly_better = self.make((0.2, 0.8))
        out = regenerate_if_uncertain(noisy, IMAGE, 1e-9,
                                      lambda i: slightly_better, max_rounds=1)
        assert out.uncertainty == pytest.approx(
            score_cue_set(slightly_better, IMAGE).uncertainty)

    def test_stops_at_first_success(self):
        noisy = self.make((0.1, 0.9))
        calls = []

        def generator(i):
            calls.append(i)
            return self.make((0.5, 0.5))

        out = regenerate_if_uncertain(noisy, IMAGE, 0.1, generator, max_rounds=5)
        assert out.uncertainty <= 0.1
        assert calls == [0]

    def test_generator_failure_carries_best(self):
        noisy = self.make((0.1, 0.9))

        def generator(i):
            raise RuntimeError("backend down")

        with pytest.raises(RegenerationFailedError) as exc:
            regenerate_if_uncertain(noisy, IMAGE, 1e-9, generator)
        assert exc.value.best_candidate.uncertainty is not None

    def test_invalid_threshold(self):
        with pytest.raises(InvalidInputError):
            regenerate_if_uncertain(self.make((0.5, 0.5)), IMAGE, 0.0, lambda i: None)


class TestSynthesize:
    def test_zero_noise_degenerates(self):
        centroid = np.array([1.0, 2.0, 3.0])
        distractor = np.array([-1.0, 0.0, 1.0])
        cs = synthesize_cues(centroid, distractor, 0.0, 3, seeded_rng(0))
        np.testing.assert_array_equal(cs.positive, centroid)
        np.testing.assert_array_equal(cs.negative, distractor)
        for v in cs.variants:
            np.testing.assert_array_equal(v, centroid)
        assert score_cue_set(cs, centroid).variance == 0.0

    def test_block_draw_is_the_per_vector_stream(self):
        # one (2+V, d) draw reads the same PCG64 stream as 2+V draws of d
        centroid, distractor, noise, rng = np.ones(5), -np.ones(5), 0.3, seeded_rng(11)
        cs = synthesize_cues(centroid, distractor, noise, 4, seeded_rng(11))
        positive = centroid + noise * rng.standard_normal(5)
        negative = distractor + noise * rng.standard_normal(5)
        variants = [positive + noise * rng.standard_normal(5) for _ in range(4)]
        np.testing.assert_array_equal(cs.positive, positive)
        np.testing.assert_array_equal(cs.negative, negative)
        np.testing.assert_array_equal(cs.variants, variants)

    def test_determinism(self):
        args = (np.ones(4), -np.ones(4), 0.3, 4)
        a = synthesize_cues(*args, seeded_rng(5))
        b = synthesize_cues(*args, seeded_rng(5))
        np.testing.assert_array_equal(a.positive, b.positive)
        np.testing.assert_array_equal(a.negative, b.negative)
        for va, vb in zip(a.variants, b.variants):
            np.testing.assert_array_equal(va, vb)

    def test_argument_guards(self):
        with pytest.raises(InvalidInputError):
            synthesize_cues(np.ones(3), np.ones(3), -0.1, 3, seeded_rng(0))
        with pytest.raises(InsufficientVariantsError):
            synthesize_cues(np.ones(3), np.ones(3), 0.1, 1, seeded_rng(0))


class TestCueTable:
    def entry(self, rng):
        return CueSet(positive=rng.standard_normal(3),
                      negative=rng.standard_normal(3),
                      variants=[rng.standard_normal(3) for _ in range(2)])

    def test_put_get_and_missing(self, rng):
        table = CueTable(dim=3)
        cs = self.entry(rng)
        table.put("s0", 1, cs)
        assert table.get("s0", 1) is cs
        with pytest.raises(MissingCueError) as exc:
            table.get("s0", 2)
        assert exc.value.option_id == 2

    def test_dimension_guard(self, rng):
        table = CueTable(dim=4)
        with pytest.raises(CueFileError):
            table.put("s0", 0, self.entry(rng))

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "cues.jsonl"
        save_cue_table(CueTable(dim=7), path)
        loaded = load_cue_table(path)
        assert loaded.dim == 7
        assert len(loaded) == 0

    def test_entry_round_trip_bit_exact(self, tmp_path, rng):
        table = CueTable(dim=3)
        table.put("s0", 0, self.entry(rng))
        table.put("s0", 1, self.entry(rng))
        path = tmp_path / "cues.jsonl"
        save_cue_table(table, path)
        assert load_cue_table(path) == table

    def test_missing_field_names_line_and_field(self, tmp_path):
        path = tmp_path / "cues.jsonl"
        path.write_text('{"dim": 2, "version": 1}\n'
                        '{"sample_id": "s0", "option_id": 0, '
                        '"positive": [1, 0], "variants": [[1, 0], [0, 1]]}\n')
        with pytest.raises(CueFileError) as exc:
            load_cue_table(path)
        assert "negative" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cues.jsonl"
        path.write_text('{"version": 1}\n')
        with pytest.raises(CueFileError):
            load_cue_table(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "cues.jsonl"
        path.write_text('{"dim": 2, "version": 99}\n')
        with pytest.raises(CueFileError):
            load_cue_table(path)

    @pytest.mark.parametrize("line, edit, words", [
        (1, {"dim": 8.5}, "dim"),
        (1, {"dim": True}, "dim"),
        (1, {"dim": 0}, "dim"),
        (2, {"option_id": True}, "option_id"),
        (2, {"option_id": -1}, "option_id"),
        (2, {"sample_id": 0}, "sample_id"),
        (2, {"positive": [1.0, "2"]}, "numbers"),
        (2, {"positive": [1.0, 2.0, 3.0]}, "rectangular"),
        (2, {"positive": [1.0, 0.0, 0.0], "negative": [0.0, 1.0, 0.0],
             "variants": [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]}, "dimension 2"),
        (2, {"negative": [[1.0, 2.0]]}, "rectangular"),
        (2, {"variants": [[1.0, 0.0], [0.0, None]]}, "numbers"),
        (2, {"variants": [1.0, 0.0]}, "rectangular"),
        (2, {"positive": [[1.0, 2.0]], "negative": [[1.0, 2.0]],
             "variants": [[[1.0, 2.0]], [[1.0, 2.0]]]}, "dimension 2"),
        (2, {"variants": [[1.0, 0.0], [0.0, 1e-170]]}, "zero norm"),
        (3, {"positive": [math.inf, 0.0]}, "finite"),
        (3, {"option_id": 0}, "second cue record"),
        (3, {"negative": [1e200, 0.0]}, "overflows"),
    ])
    def test_bad_record_names_file_and_line(self, tmp_path, line, edit, words):
        records = [{"dim": 2, "version": 1}] + [
            {"sample_id": "s0", "option_id": oid, "positive": [1.0, 0.0],
             "negative": [0.0, 1.0], "variants": [[1.0, 1.0], [1.0, -1.0]]}
            for oid in range(2)]
        records[line - 1].update(edit)
        path = tmp_path / "cues.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(CueFileError, match=f"line {line}: .*{words}") as exc:
            load_cue_table(path)
        assert str(path) in str(exc.value)
