"""Defense tests: noise statistics, clipping arithmetic, compression
mechanics with residual carry, and the conservation invariant."""

import math
from dataclasses import replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from llg_lab.defenses import (
    DefenseSpec,
    add_gaussian_noise,
    apply_defense,
    compress,
    dp_clip_and_noise,
)
from llg_lab.data import SyntheticSpec, synth_generate
from llg_lab.fl import BatchSpec, local_train_fedsgd, make_batch
from llg_lab.labels import LabelMultiset
from llg_lab.metrics import attack_success_rate
from llg_lab.nn import Gradients, mlp, small_cnn


def grads_from(net, values):
    grads = Gradients.zeros_for(net)
    flat = np.concatenate([a.ravel() for a in grads.arrays()])
    flat[:len(values)] = values
    pos = 0
    for arr in grads.arrays():
        arr[:] = flat[pos:pos + arr.size].reshape(arr.shape)
        pos += arr.size
    return grads


def random_grads(net, rng):
    grads = Gradients.zeros_for(net)
    for arr in grads.arrays():
        arr += rng.normal(size=arr.shape)
    return grads


class TestGaussianNoise:
    def test_zero_sigma_is_identity(self):
        net = mlp(8, 3, seed=0)
        grads = random_grads(net, np.random.default_rng(1))
        noised = add_gaussian_noise(grads, 0.0, np.random.default_rng(2))
        for a, b in zip(grads.arrays(), noised.arrays()):
            assert np.array_equal(a, b)

    def test_sample_variance_matches_sigma_squared(self):
        # statistical oracle over 10^5 entries, tolerance 5%
        net = mlp(256, 195, hidden=256, seed=1)
        total = sum(a.size for a in Gradients.zeros_for(net).arrays())
        assert total >= 100_000
        grads = Gradients.zeros_for(net)
        sigma = 0.37
        noised = add_gaussian_noise(grads, sigma, np.random.default_rng(3))
        deltas = np.concatenate([a.ravel() for a in noised.arrays()])
        assert deltas.var() == pytest.approx(sigma ** 2, rel=0.05)

    def test_one_draw_matches_per_array_draws(self):
        # the packed vector takes its noise in one draw; that must give the
        # bytes of one draw per array in layer order
        net = small_cnn((8, 8), 4, seed=3)
        grads = random_grads(net, np.random.default_rng(5))
        noised = add_gaussian_noise(grads, 0.3, np.random.default_rng(6))
        reference = np.random.default_rng(6)
        for arr, out in zip(grads.arrays(), noised.arrays()):
            assert np.array_equal(out, arr + reference.normal(0.0, 0.3, size=arr.shape))

    def test_negative_sigma_rejected(self):
        net = mlp(8, 3, seed=0)
        with pytest.raises(ValueError, match=">= 0"):
            add_gaussian_noise(Gradients.zeros_for(net), -0.1, np.random.default_rng(0))

    def test_does_not_mutate_the_input(self):
        net = mlp(8, 3, seed=0)
        grads = random_grads(net, np.random.default_rng(4))
        before = [a.copy() for a in grads.arrays()]
        add_gaussian_noise(grads, 1.0, np.random.default_rng(5))
        for a, b in zip(grads.arrays(), before):
            assert np.array_equal(a, b)


class TestClipAndNoise:
    def test_norm_above_bound_is_rescaled_with_direction_preserved(self):
        net = mlp(8, 3, seed=2)
        grads = random_grads(net, np.random.default_rng(6))
        grads = grads.scaled(10.0 / grads.l2_norm())
        clipped = dp_clip_and_noise(grads, 5.0, 0.0, np.random.default_rng(7))
        assert clipped.l2_norm() == pytest.approx(5.0, rel=1e-12)
        for a, b in zip(clipped.arrays(), grads.arrays()):
            assert a == pytest.approx(b * 0.5, rel=1e-12)

    def test_norm_within_bound_is_identity(self):
        net = mlp(8, 3, seed=3)
        grads = random_grads(net, np.random.default_rng(8))
        grads = grads.scaled(0.5 / grads.l2_norm())
        out = dp_clip_and_noise(grads, 5.0, 0.0, np.random.default_rng(9))
        for a, b in zip(out.arrays(), grads.arrays()):
            assert np.array_equal(a, b)

    def test_never_increases_the_norm_without_noise(self):
        net = mlp(8, 3, seed=4)
        rng = np.random.default_rng(10)
        for _ in range(20):
            grads = random_grads(net, rng)
            out = dp_clip_and_noise(grads, 1.5, 0.0, rng)
            assert out.l2_norm() <= grads.l2_norm() + 1e-12

    def test_non_positive_beta_rejected(self):
        net = mlp(8, 3, seed=4)
        with pytest.raises(ValueError, match="positive"):
            dp_clip_and_noise(Gradients.zeros_for(net), 0.0, 0.1, np.random.default_rng(0))


class TestCompression:
    def test_theta_zero_emits_everything_and_clears_residual(self):
        net = mlp(8, 3, seed=5)
        grads = random_grads(net, np.random.default_rng(11))
        residual = Gradients.zeros_for(net)
        emitted = compress(grads, residual, 0.0)
        for e, g in zip(emitted.arrays(), grads.arrays()):
            assert np.array_equal(e, g)
        assert all(not arr.any() for arr in residual.arrays())

    def test_two_round_residual_accumulation_crosses_threshold(self):
        # four entries, theta = 0.5 discards the two smallest magnitudes:
        # the suppressed 3.0 doubles in the residual and overtakes the
        # fresh 5.0 in round two
        from llg_lab.nn import Dense, Network
        rng = np.random.default_rng(6)
        net = Network([Dense(1, 2, rng)], 2, (1,))  # W 2x1 + b 2 -> 4 entries
        total = sum(a.size for a in Gradients.zeros_for(net).arrays())
        assert total == 4
        values = np.array([8.0, 5.0, 3.0, 0.1])
        residual = Gradients.zeros_for(net)
        first = compress(grads_from(net, values), residual, 0.5)
        first_flat = np.concatenate([a.ravel() for a in first.arrays()])
        assert np.array_equal(first_flat, [8.0, 5.0, 0.0, 0.0])
        residual_flat = np.concatenate([a.ravel() for a in residual.arrays()])
        assert np.array_equal(residual_flat, [0.0, 0.0, 3.0, 0.1])
        second = compress(grads_from(net, values), residual, 0.5)
        second_flat = np.concatenate([a.ravel() for a in second.arrays()])
        # accumulated 6.0 now beats the fresh 5.0, which stays suppressed
        assert np.array_equal(second_flat, [8.0, 0.0, 6.0, 0.0])
        residual_flat = np.concatenate([a.ravel() for a in residual.arrays()])
        assert np.array_equal(residual_flat, [0.0, 5.0, 0.0, 0.2])

    def test_emission_cap(self):
        net = mlp(16, 4, seed=7)
        rng = np.random.default_rng(12)
        total = sum(a.size for a in Gradients.zeros_for(net).arrays())
        for theta in (0.2, 0.5, 0.8, 0.99):
            residual = Gradients.zeros_for(net)
            for _ in range(5):
                emitted = compress(random_grads(net, rng), residual, theta)
                nonzero = sum(int((a != 0).sum()) for a in emitted.arrays())
                assert nonzero <= int(np.ceil((1.0 - theta) * total))

    def test_conservation_over_fifty_rounds_exact(self):
        # nothing is lost: emitted-so-far + residual == sum of raw inputs.
        # integer-valued gradients keep every float addition exact, so the
        # equality holds bit-for-bit regardless of when entries were emitted
        net = mlp(12, 3, seed=8)
        rng = np.random.default_rng(13)
        residual = Gradients.zeros_for(net)
        running_raw = Gradients.zeros_for(net)
        running_emitted = Gradients.zeros_for(net)
        for _ in range(50):
            grads = Gradients.zeros_for(net)
            for arr in grads.arrays():
                arr += rng.integers(-8, 9, size=arr.shape).astype(float)
            running_raw.add_(grads)
            running_emitted.add_(compress(grads, residual, 0.7))
        for raw, emitted, residual in zip(running_raw.arrays(),
                                          running_emitted.arrays(),
                                          residual.arrays()):
            assert np.array_equal(emitted + residual, raw)

    def test_conservation_with_float_gradients(self):
        # same invariant under generic floats, up to summation regrouping
        net = mlp(12, 3, seed=8)
        rng = np.random.default_rng(14)
        residual = Gradients.zeros_for(net)
        running_raw = Gradients.zeros_for(net)
        running_emitted = Gradients.zeros_for(net)
        for _ in range(50):
            grads = random_grads(net, rng)
            running_raw.add_(grads)
            running_emitted.add_(compress(grads, residual, 0.7))
        for raw, emitted, residual in zip(running_raw.arrays(),
                                          running_emitted.arrays(),
                                          residual.arrays()):
            assert emitted + residual == pytest.approx(raw, rel=1e-12, abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), theta=st.floats(0.0, 1.0, exclude_max=True),
           rounds=st.integers(1, 6))
    def test_compression_invariants_on_generated_layouts(self, data, theta, rounds):
        # parameterized layers of generated shapes around one parameter-free
        # layer; integer-valued entries keep every float addition exact
        shapes = data.draw(st.lists(
            st.tuples(array_shapes(max_dims=3, max_side=4), array_shapes(max_dims=1, max_side=4)),
            min_size=1, max_size=3))
        at = data.draw(st.integers(0, len(shapes)))
        layout = tuple(shapes[:at] + [None] + shapes[at:])
        size = sum(math.prod(w) + math.prod(b) for w, b in shapes)
        residual = Gradients(np.zeros(size), layout)
        raw_total = np.zeros(size)
        emitted_total = np.zeros(size)
        for _ in range(rounds):
            values = data.draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size))
            grads = residual.like(np.array(values, dtype=np.float64))
            accumulated = residual.vector + grads.vector
            emitted = compress(grads, residual, theta).vector
            assert np.all((emitted == accumulated) | (emitted == 0.0))
            assert np.count_nonzero(emitted) <= size - int(np.floor(theta * size))
            raw_total += grads.vector
            emitted_total += emitted
            assert np.array_equal(emitted_total + residual.vector, raw_total)

    def test_one_residual_carries_across_a_change_of_theta(self):
        # a sparsity warm-up compresses one client's residual at a rising
        # theta; integer entries keep the conservation exact bit for bit
        net = mlp(12, 3, seed=8)
        rng = np.random.default_rng(15)
        residual = Gradients.zeros_for(net)
        raw_total = Gradients.zeros_for(net)
        emitted_total = Gradients.zeros_for(net)
        for theta in (0.2, 0.2, 0.5, 0.8, 0.8):
            grads = residual.like(rng.integers(-8, 9, size=residual.vector.size)
                                  .astype(np.float64))
            raw_total.add_(grads)
            emitted = compress(grads, residual, theta)
            cap = residual.vector.size - int(np.floor(theta * residual.vector.size))
            assert np.count_nonzero(emitted.vector) <= cap
            emitted_total.add_(emitted)
            assert np.array_equal(emitted_total.vector + residual.vector, raw_total.vector)
        assert residual.vector.any()

    def test_invalid_theta_rejected(self):
        net = mlp(8, 3, seed=9)
        residual = Gradients.zeros_for(net)
        for theta in (1.0, -0.1):
            with pytest.raises(ValueError, match="theta"):
                compress(random_grads(net, np.random.default_rng(0)), residual, theta)
        assert not residual.vector.any()


class TestDefenseSpec:
    def test_labels_are_stable(self):
        assert DefenseSpec().label() == "none"
        assert DefenseSpec("noise", sigma=0.1).label() == "noise(sigma=0.1)"
        assert DefenseSpec("clip_noise", beta=1.0, sigma=0.1).label() == \
            "clip_noise(beta=1.0,sigma=0.1)"
        assert DefenseSpec("compress", theta=0.8).label() == "compress(theta=0.8)"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            DefenseSpec("blur")

    def test_direct_construction_checks_declared_types(self):
        with pytest.raises(ValueError, match="'sigma' must be float"):
            DefenseSpec("noise", sigma="0.1")
        with pytest.raises(ValueError, match="'theta' must be float"):
            replace(DefenseSpec("compress", theta=0.8), theta=True)
        assert DefenseSpec("noise", sigma=1).sigma == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, value):
        # each field with the kind that reads it, so that only the type
        # check stands between the value and the run
        kinds = {"sigma": "noise", "beta": "clip_noise", "theta": "compress"}
        assert [name for name, hint in get_type_hints(DefenseSpec).items()
                if hint is float] == list(kinds)
        for name, kind in kinds.items():
            match = f"'{name}' must be float, got {value!r} \\(numbers must be finite\\)"
            with pytest.raises(ValueError, match=match):
                DefenseSpec.from_dict({"kind": kind, name: value})
            with pytest.raises(ValueError, match=match):
                DefenseSpec(kind, **{name: value})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown defense fields"):
            DefenseSpec.from_dict({"kind": "noise", "amplitude": 1.0})

    def test_compress_requires_state(self):
        net = mlp(8, 3, seed=10)
        update = local_train_fedsgd(
            net, np.zeros((2, 8)), [1, 2]
        )
        with pytest.raises(ValueError, match="residual"):
            apply_defense(update, DefenseSpec("compress", theta=0.5),
                          np.random.default_rng(0))

    def test_only_the_noise_kinds_need_a_generator(self):
        net = mlp(8, 3, seed=10)
        update = local_train_fedsgd(net, np.zeros((2, 8)), [1, 2])
        for spec in (DefenseSpec("noise", sigma=0.1), DefenseSpec("clip_noise", sigma=0.1)):
            assert spec.draws
            with pytest.raises(ValueError, match="random generator"):
                apply_defense(update, spec, None)
        for spec in (DefenseSpec(), DefenseSpec("compress", theta=0.5)):
            assert not spec.draws
        spec = DefenseSpec("compress", theta=0.5)
        without = apply_defense(update, spec, None, Gradients.zeros_for(net))
        with_rng = apply_defense(update, spec, np.random.default_rng(0),
                                 Gradients.zeros_for(net))
        assert np.array_equal(without.gradients.vector, with_rng.gradients.vector)


@pytest.fixture(scope="module")
def attack_world():
    train, test = synth_generate(SyntheticSpec(seed=30))
    return train, test


def llg_plus_asr(train, test, batch_size, defense, trials, activation="sigmoid"):
    from llg_lab.attack import estimate_params_auxiliary, llg_extract
    scores = []
    for trial in range(trials):
        rng = np.random.default_rng(47_000 + trial)
        net = mlp(64, 10, seed=48_000 + trial, activation=activation)
        xs, ys = make_batch(train, BatchSpec(batch_size, "unbalanced"), rng)
        update = local_train_fedsgd(net, xs, ys)
        truth = LabelMultiset.from_labels(ys, 10)
        logits, cache = net.forward(test.xs)
        params = estimate_params_auxiliary(logits, cache.penultimate, test, batch_size,
                                           update.sample_count, rng)
        if defense is not None:
            residual = Gradients.zeros_for(net) if defense.kind == "compress" else None
            update = apply_defense(update, defense, rng, residual)
        scores.append(attack_success_rate(llg_extract(update.last_layer(), params), truth))
    return float(np.mean(scores))


class TestNoiseVersusAttack:
    def test_asr_is_monotone_in_noise_scale(self, attack_world):
        train, test = attack_world
        asr = {
            sigma: llg_plus_asr(train, test, 32,
                                DefenseSpec("noise", sigma=sigma) if sigma else None,
                                trials=40, activation="relu")
            for sigma in (0.0, 0.01, 0.1)
        }
        assert asr[0.0] >= asr[0.01] >= asr[0.1]

    def test_large_noise_degrades_but_beats_random_at_tiny_batches(self, attack_world):
        train, test = attack_world
        from llg_lab.attack import random_guess
        clean = llg_plus_asr(train, test, 2, None, trials=40)
        noisy = llg_plus_asr(train, test, 2, DefenseSpec("noise", sigma=1.0), trials=40)
        rng = np.random.default_rng(0)
        baseline = np.mean([
            attack_success_rate(
                random_guess(10, 2, rng),
                LabelMultiset.from_labels(
                    make_batch(train, BatchSpec(2, "unbalanced"), rng)[1], 10),
            )
            for _ in range(300)
        ])
        assert noisy < clean
        assert noisy > baseline


@pytest.mark.xfail(
    strict=True,
    reason="desk-scale models have full-gradient norms below beta=1, so the "
           "clip is inert and sigma=0.1 cannot push the attack below the "
           "random baseline; that collapse needs far larger gradient norms",
)
def test_clip_and_noise_drops_attack_below_random_at_b16(attack_world):
    train, test = attack_world
    from llg_lab.attack import random_guess
    defended = llg_plus_asr(train, test, 16,
                            DefenseSpec("clip_noise", beta=1.0, sigma=0.1), trials=40)
    rng = np.random.default_rng(1)
    baseline = np.mean([
        attack_success_rate(
            random_guess(10, 16, rng),
            LabelMultiset.from_labels(
                make_batch(train, BatchSpec(16, "unbalanced"), rng)[1], 10),
        )
        for _ in range(300)
    ])
    assert defended <= baseline
