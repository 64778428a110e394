"""Metric tests: closed-form values, textbook-formula oracles, axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llg_lab.data import ClientDataset
from llg_lab.labels import LabelMultiset
from llg_lab.metrics import attack_success_rate, hellinger, pearson
from llg_lab.metrics import test_accuracy as accuracy_on
from llg_lab.nn import mlp


def ms(*counts):
    return LabelMultiset(np.array(counts))


class TestAttackSuccessRate:
    def test_identical_multisets_score_one(self):
        assert attack_success_rate(ms(2, 1, 0), ms(2, 1, 0)) == 1.0

    def test_partial_overlap(self):
        assert attack_success_rate(ms(2, 1), ms(1, 2)) == pytest.approx(2.0 / 3.0)

    def test_disjoint_supports_score_zero(self):
        assert attack_success_rate(ms(3, 0), ms(0, 3)) == 0.0

    def test_total_mismatch_rejected(self):
        with pytest.raises(ValueError, match="totals must match"):
            attack_success_rate(ms(1, 0), ms(1, 1))

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = LabelMultiset(rng.integers(0, 5, size=6))
            b = LabelMultiset(rng.multinomial(int(a.counts.sum()), np.ones(6) / 6))
            if a.total == 0:
                continue
            assert attack_success_rate(a, b) == attack_success_rate(b, a)

    def test_one_iff_identical(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = LabelMultiset(rng.integers(0, 4, size=5))
            b = LabelMultiset(rng.multinomial(max(int(a.counts.sum()), 1), np.ones(5) / 5))
            if a.total != b.total or a.total == 0:
                continue
            score = attack_success_rate(a, b)
            assert (score == 1.0) == (a == b)


class TestHellinger:
    def test_identical_distributions_distance_zero(self):
        assert hellinger(ms(1, 2, 3), ms(2, 4, 6)) == 0.0

    def test_disjoint_supports_distance_one(self):
        assert hellinger(ms(4, 0), ms(0, 2)) == 1.0

    def test_closed_form_half_overlap(self):
        # p = (1/2, 1/2), q = (1, 0): H = sqrt(1 - 1/sqrt(2))
        expected = math.sqrt(1.0 - 1.0 / math.sqrt(2.0))
        assert hellinger(ms(1, 1), ms(1, 0)) == pytest.approx(expected, rel=1e-12)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p, q, r = (LabelMultiset(rng.integers(0, 6, size=4) + np.array([1, 0, 0, 0]))
                       for _ in range(3))
            dpq, dqr, dpr = hellinger(p, q), hellinger(q, r), hellinger(p, r)
            assert dpq == pytest.approx(hellinger(q, p), abs=1e-15)
            assert 0.0 <= dpq <= 1.0
            assert dpr <= dpq + dqr + 1e-12

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hellinger(ms(0, 0), ms(1, 0))


class TestPearson:
    def test_perfect_linear_relation(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative_relation(self):
        x = np.arange(5.0)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_textbook_formula(self):
        x = np.array([1.2, -0.5, 3.1, 0.0, 2.2, -1.7, 0.9, 1.1, -0.3, 2.8])
        y = np.array([0.7, -1.1, 2.0, 0.4, 1.9, -2.2, 1.5, 0.2, 0.1, 2.5])
        n = len(x)
        sx, sy = x.sum(), y.sum()
        sxy = float((x * y).sum())
        sxx = float((x * x).sum())
        syy = float((y * y).sum())
        expected = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        assert pearson(x, y) == pytest.approx(expected, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pearson(np.ones(5), np.arange(5.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            pearson(np.arange(3.0), np.arange(4.0))


class TestTestAccuracy:
    def test_constant_logits_are_at_chance_level(self):
        net = mlp(8, 10, seed=0)
        for layer in net.layers:
            if hasattr(layer, "W"):
                layer.W[:] = 0.0
                layer.b[:] = 0.0
        rng = np.random.default_rng(3)
        data = ClientDataset(rng.random((500, 8)), rng.integers(1, 11, size=500), 10)
        # ties resolve to class 1, so accuracy equals the rate of label 1
        expected = float((data.ys == 1).mean())
        assert accuracy_on(net, data) == pytest.approx(expected)

    def test_memorized_single_sample(self):
        net = mlp(4, 2, seed=1)
        x = np.array([[0.5, -0.2, 0.1, 0.9]])
        logits, _ = net.forward(x)
        label = int(logits.argmax() + 1)
        data = ClientDataset(x, np.array([label]), 2)
        assert accuracy_on(net, data) == 1.0

    def test_matches_hand_count_on_five_samples(self):
        net = mlp(3, 3, seed=4)
        rng = np.random.default_rng(5)
        xs = rng.random((5, 3))
        ys = rng.integers(1, 4, size=5)
        logits, _ = net.forward(xs)
        correct = sum(1 for k in range(5) if logits[k].argmax() + 1 == ys[k])
        data = ClientDataset(xs, ys, 3)
        assert accuracy_on(net, data) == pytest.approx(correct / 5.0)

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(1, 80), data=st.data())
    def test_does_not_depend_on_chunk(self, size, data):
        chunk = data.draw(st.integers(1, size + 1), label="chunk")
        rng = np.random.default_rng(size)
        net = mlp(6, 4, seed=size)
        dataset = ClientDataset(rng.normal(size=(size, 6)), rng.integers(1, 5, size=size), 4)
        assert accuracy_on(net, dataset, chunk=chunk) == accuracy_on(net, dataset, chunk=size)


class TestScoreAgreement:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scores_lie_in_the_unit_interval(self, data):
        n = data.draw(st.integers(2, 12), label="n")
        total = data.draw(st.integers(1, 60), label="|D|")
        labels = st.lists(st.integers(1, n), min_size=total, max_size=total)
        a, b = (LabelMultiset.from_labels(np.array(data.draw(labels)), n) for _ in range(2))
        assert 0.0 <= attack_success_rate(a, b) <= 1.0
        assert 0.0 <= hellinger(a, b) <= 1.0

    def test_random_guess_asr_concentrates_at_large_batches(self):
        # over 10^4 independent (truth, guess) pairs at B=128, n=10 the
        # success rate must concentrate: std below 0.05
        from llg_lab.attack import random_guess
        rng = np.random.default_rng(7)
        scores = [
            attack_success_rate(random_guess(10, 128, rng), random_guess(10, 128, rng))
            for _ in range(10_000)
        ]
        assert float(np.std(scores)) < 0.05

    def test_asr_and_hellinger_rank_extractions_alike(self):
        # corrupt a truth multiset by replacing k of its labels; the two
        # scores must order the 100 corrupted extractions consistently
        rng = np.random.default_rng(8)
        asr_scores, hell_scores = [], []
        for trial in range(100):
            labels = rng.integers(1, 11, size=32)
            truth = LabelMultiset.from_labels(labels, 10)
            corrupted = labels.copy()
            k = int(rng.integers(0, 33))
            corrupted[rng.choice(32, size=k, replace=False)] = rng.integers(1, 11, size=k)
            extracted = LabelMultiset.from_labels(corrupted, 10)
            asr_scores.append(attack_success_rate(extracted, truth))
            hell_scores.append(hellinger(extracted, truth))
        ranks_a = np.argsort(np.argsort(asr_scores)).astype(float)
        ranks_h = np.argsort(np.argsort(hell_scores)).astype(float)
        assert pearson(ranks_a, -ranks_h) > 0.8
