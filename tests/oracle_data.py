"""The per-option dataset generator, kept as the oracle that
`data.generate_dataset` must match bit for bit.

It draws one sample at a time and scores each option's cue set alone with
`regenerate_if_uncertain`, regenerating it in place when it is too
uncertain. It draws cues with its own copy of `synthesize_cues`, so a change
to the shipped cue draw shows as a mismatch, and a counter patched onto
`data.synthesize_cues` sees only the generator under test.
"""
import numpy as np

from semroute.cues import CueSet, regenerate_if_uncertain
from semroute.data import Sample, _random_rotation, _unit_rows
from semroute.numerics import seeded_rng


def synthesize_cues(centroid, distractor, noise_scale, variant_count, rng) -> CueSet:
    noise = rng.standard_normal((2 + variant_count, centroid.shape[0]))
    noise *= noise_scale
    positive = centroid + noise[0]
    return CueSet(positive=positive, negative=distractor + noise[1],
                  variants=[positive + row for row in noise[2:]])


def generate_dataset_oracle(config, seed: int):
    """Build (train, held_out) lists of fully cue-scored samples."""
    rng = seeded_rng(seed)
    d = config.d
    n_concepts = config.n_concepts
    centroids = _unit_rows(rng, n_concepts, d)
    rotation = _random_rotation(rng, d)

    total = config.train_size + config.eval_size
    # exact class balance up to remainder, then shuffled
    concept_ids = np.resize(np.arange(n_concepts), total)
    rng.shuffle(concept_ids)

    samples = []
    for idx in range(total):
        c = int(concept_ids[idx])
        input_emb = (config.input_scale * centroids[c] @ rotation
                     + config.input_noise * rng.standard_normal(d))

        distractors = [j for j in range(n_concepts) if j != c]
        rng.shuffle(distractors)
        option_concepts = [c] + distractors[: config.option_count - 1]
        order = rng.permutation(config.option_count)
        option_concepts = [option_concepts[int(i)] for i in order]
        correct = option_concepts.index(c)

        options = []
        for oc in option_concepts:
            text_emb = centroids[oc] + config.option_noise * rng.standard_normal(d)
            distractor_pool = [j for j in range(n_concepts) if j != oc]
            neg_concept = int(distractor_pool[int(rng.integers(len(distractor_pool)))])

            def make_cues(_round=None, _oc=oc, _neg=neg_concept):
                return synthesize_cues(
                    config.cue_scale * centroids[_oc], config.cue_scale * centroids[_neg],
                    config.cue_scale * config.cue_noise, config.variant_count, rng,
                )

            cs = regenerate_if_uncertain(
                make_cues(), input_emb,
                threshold=config.unc_threshold,
                generator=make_cues,
                max_rounds=config.max_regen_rounds,
                only_variance=config.only_variance,
            )
            options.append((text_emb, cs))
        samples.append(Sample(
            sample_id=f"s{idx:05d}",
            input_emb=input_emb,
            options=options,
            correct=correct,
            category=f"c{c}",
        ))
    return samples[: config.train_size], samples[config.train_size:]
