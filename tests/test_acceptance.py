"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from llg_lab import experiments
from llg_lab.attack import estimate_params_auxiliary, llg_extract, random_guess
from llg_lab.data import SyntheticSpec, synth_generate
from llg_lab.defenses import apply_defense
from llg_lab.experiments import (DefenseSpec, ExperimentConfig, emit_csv, load_config,
                                 run_experiment)
from llg_lab.fl import BatchSpec, local_train_fedavg, local_train_fedsgd, make_batch
from llg_lab.labels import LabelMultiset
from llg_lab.metrics import attack_success_rate, pearson
from llg_lab.nn import (Activation, Conv2D, Dense, Flatten, Gradients, Network, mlp,
                        small_cnn)

from test_nn import finite_difference_agreement

MASTER_SEED = 7
# c04 and c07 run shipped configs, so that a config edit meets its criterion
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class Criterion:
    """Context manager that times a criterion and prints its verdict."""

    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def done(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {self.number:>2} ({self.title}): {detail} "
              f"[{elapsed:.1f}s / budget {self.budget_s}s]")
        assert elapsed <= self.budget_s, f"criterion {self.number} exceeded its runtime budget"
        assert ok, f"criterion {self.number} failed: {detail}"

    def __exit__(self, *exc):
        return False


def _sweep_models_and_batches(trials):
    """Fresh (model, batch, update, truth) across the acceptance grid of
    MLP/CNN sigmoid models and batch sizes 2/8/32/128."""
    train, _ = synth_generate(SyntheticSpec(seed=MASTER_SEED))
    for trial in range(trials):
        rng = np.random.default_rng(100_000 + trial)
        if trial % 2 == 0:
            net = mlp(64, 10, seed=200_000 + trial)
        else:
            net = small_cnn((8, 8), 10, seed=200_000 + trial)
        batch_size = (2, 8, 32, 128)[trial % 4]
        xs, ys = make_batch(train, BatchSpec(batch_size, "balanced"), rng)
        update = local_train_fedsgd(net, xs, ys)
        truth = LabelMultiset.from_labels(ys, 10)
        yield net, update, truth


def _cell_means(rows):
    cells = {}
    for row in rows:
        cells.setdefault((row.attack, row.batch_size, row.defense), []).append(row.asr)
    return {key: float(np.mean(values)) for key, values in cells.items()}


def test_c01_negative_gradients_only_for_present_labels():
    with Criterion(1, "Property-1 exactness", 60) as c:
        violations = 0
        for _, update, truth in _sweep_models_and_batches(1000):
            g = update.last_layer().g
            violations += int(((g < 0) & (truth.counts == 0)).sum())
        c.done(violations == 0, f"{violations} violations over 1000 trials")


def test_c02_extraction_step_one_is_sound():
    with Criterion(2, "step-1 soundness", 60) as c:
        violations = 0
        for _, update, truth in _sweep_models_and_batches(1000):
            g = update.last_layer().g
            step_one = np.flatnonzero(g < 0)[: update.sample_count]
            violations += int((truth.counts[step_one] == 0).sum())
        c.done(violations == 0, f"{violations} violations over 1000 trials")


def test_c03_calibrated_gradients_correlate_with_counts():
    with Criterion(3, "calibration correlation", 60) as c:
        train, test = synth_generate(SyntheticSpec(seed=MASTER_SEED))
        worst = 1.0
        details = []
        for batch_size in (2, 8, 32, 128):
            calibrated, lam = [], []
            for trial in range(100):
                rng = np.random.default_rng(300_000 + trial)
                net = mlp(64, 10, seed=400_000 + trial)
                xs, ys = make_batch(train, BatchSpec(batch_size, "unbalanced"), rng)
                update = local_train_fedsgd(net, xs, ys)
                logits, cache = net.forward(test.xs)
                params = estimate_params_auxiliary(logits, cache.penultimate, test, batch_size)
                calibrated.extend(update.last_layer().g - params.offsets)
                lam.extend(LabelMultiset.from_labels(ys, 10).counts)
            rho = abs(pearson(np.array(calibrated), np.array(lam, dtype=float)))
            details.append(f"B={batch_size}: |rho|={rho:.4f}")
            worst = min(worst, rho)
        c.done(worst > 0.95, "; ".join(details))


def test_c04_auxiliary_attack_headline():
    with Criterion(4, "LLG+ headline", 300) as c:
        rows = run_experiment(replace(load_config(CONFIGS / "asr_vs_batchsize.json"),
                                      attacks=("llg_plus",)))
        means = _cell_means(rows)
        by_batch = {key[1]: value for key, value in means.items()}
        worst = min(by_batch.values())
        c.done(worst >= 0.90,
               " ".join(f"B={b}:{by_batch[b]:.3f}" for b in sorted(by_batch)))


def test_c05_attack_ordering_with_margins():
    with Criterion(5, "attack ordering", 120) as c:
        rows = run_experiment(ExperimentConfig(
            experiment="asr_vs_batchsize", attacks=("llg", "llg_plus", "random"),
            batch_sizes=(32,), trials=100, master_seed=MASTER_SEED,
        ))
        means = {key[0]: value for key, value in _cell_means(rows).items()}
        ok = (means["llg_plus"] >= means["llg"] + 0.05
              and means["llg"] >= means["random"] + 0.05)
        c.done(ok, f"llg+={means['llg_plus']:.3f} llg={means['llg']:.3f} "
                   f"random={means['random']:.3f}")


def test_c06_fedavg_degrades_but_still_leaks():
    with Criterion(6, "FedAvg degradation", 300) as c:
        kwargs = dict(
            experiment="asr_vs_batchsize",
            attacks=("llg", "llg_star", "llg_plus", "random"),
            batch_sizes=(32,), trials=100, master_seed=MASTER_SEED,
        )
        fedsgd = {k[0]: v for k, v in _cell_means(run_experiment(
            ExperimentConfig(**kwargs))).items()}
        fedavg = {k[0]: v for k, v in _cell_means(run_experiment(
            ExperimentConfig(algorithm="fedavg", gamma=10, **kwargs))).items()}
        details, ok = [], True
        for attack in ("llg", "llg_star", "llg_plus"):
            below = fedavg[attack] < fedsgd[attack]
            above = fedavg[attack] >= fedavg["random"] + 0.05
            ok = ok and below and above
            details.append(f"{attack}: {fedsgd[attack]:.3f}->{fedavg[attack]:.3f}")
        details.append(f"random={fedavg['random']:.3f}")
        c.done(ok, " ".join(details))


def test_c07_attack_decays_with_model_convergence():
    with Criterion(7, "convergence decay", 600) as c:
        rows = run_experiment(replace(load_config(CONFIGS / "convergence.json"),
                                      attacks=("llg", "random")))
        llg = [r.asr for r in rows if r.attack == "llg"]
        rand = [r.asr for r in rows if r.attack == "random"]
        accuracy = [r.model_accuracy for r in rows][-1]
        early = float(np.mean(llg[:20]))
        late = float(np.mean(llg[-20:]))
        rand_late = float(np.mean(rand[-20:]))
        ok = late < early and late > rand_late
        c.done(ok, f"llg rounds 1-20: {early:.3f}, rounds 981-1000: {late:.3f}, "
                   f"random late: {rand_late:.3f}, final accuracy {accuracy:.3f}")


def _compression_cells(theta_values, trials=60, batch_sizes=(4, 32)):
    defenses = tuple(
        DefenseSpec() if theta is None else DefenseSpec("compress", theta=theta)
        for theta in theta_values
    )
    rows = run_experiment(ExperimentConfig(
        experiment="defense_sweep", model="cnn",
        attacks=("llg_plus", "random"), batch_sizes=batch_sizes,
        defenses=defenses, trials=trials, master_seed=MASTER_SEED,
    ))
    return _cell_means(rows)


def test_c08_compression_kill(monkeypatch):
    """Can theta=0.8 compression defeat LLG+ on the CNN at B in {4, 32}?

    Property 1 bounds what it can do. With sigmoid activations a >= 0, every
    head entry of an absent label is p*a/B >= 0. Compression emits an exact
    subset of the entries (checked per trial), so an absent row's compressed
    sum stays >= 0 (a). Step 1 of llg_extract therefore extracts every present
    label whose compressed row sum is negative, whatever offsets calibrate
    the rest (b), and a trial's ASR is at least that count over |D|: its
    floor. At B=4 the dominant label's row holds the largest entries of the
    gradient and survives the threshold, so the mean floor lies above the
    random baseline (c): compression cannot push LLG+ below random there.
    At B=32 the floor is too low to rule a collapse out. Neither PAPER.md,
    whose abstract says only that compression mitigates the attack, nor the
    README promises one; the two tests below measure what stronger
    compression and a deeper stack do there. The verdict line reports llg+
    and random from the defense_sweep cells, and the floor and the share of
    present labels whose negative row sum compression made non-negative
    (hidden) from the same trials, observed inside run_experiment.
    """
    with Criterion(8, "compression kill", 180) as c:
        victim = experiments._victim_update
        victims, extractions = [], []

        def observed_victim_update(*args):
            update, truth = victim(*args)
            victims.append((update.last_layer(), truth))
            return update, truth

        def observed_extract(last, params):
            extracted = llg_extract(last, params)
            extractions.append((last, params, extracted))
            return extracted

        monkeypatch.setattr(experiments, "_victim_update", observed_victim_update)
        monkeypatch.setattr(experiments, "llg_extract", observed_extract)
        means = _compression_cells((0.8,))
        faults = {"altered head entries": 0, "negative absent rows": 0,
                  "missed visible labels": 0}
        floor, hidden, present_total = {4: [], 32: []}, {4: 0, 32: 0}, {4: 0, 32: 0}
        for (raw, truth), (last, params, extracted) in zip(victims, extractions, strict=True):
            batch_size = last.sample_count
            present = truth.counts > 0
            visible = present & (last.g < 0)
            faults["altered head entries"] += int(
                ((last.matrix != 0) & (last.matrix != raw.matrix)).sum())
            faults["negative absent rows"] += int(((last.g < 0) & ~present).sum())  # (a)
            # offsets that rank the visible labels behind every other in step 3
            spread = np.ptp(last.g) + (batch_size + 1) * abs(params.impact) + 1.0
            ranked_last = llg_extract(last, replace(params, offsets=np.where(visible, -spread, 0)))
            faults["missed visible labels"] += int(
                (extracted.counts[visible] == 0).sum()
                + (ranked_last.counts[visible] == 0).sum())  # (b)
            floor[batch_size].append(visible.sum() / batch_size)
            hidden[batch_size] += int((present & (raw.g < 0) & ~visible).sum())
            present_total[batch_size] += int(present.sum())
        details = []
        for batch_size in (4, 32):
            attacked = means[("llg_plus", batch_size, "compress(theta=0.8)")]
            baseline = means[("random", batch_size, "compress(theta=0.8)")]
            details.append(f"B={batch_size}: llg+={attacked:.3f} vs random={baseline:.3f}, "
                           f"floor={np.mean(floor[batch_size]):.3f}, "
                           f"hidden={hidden[batch_size] / present_total[batch_size]:.3f}")
        ok = (len(floor[4]) == len(floor[32]) == 60 and not any(faults.values())
              and np.mean(floor[4]) > means[("random", 4, "compress(theta=0.8)")])  # (c)
        c.done(ok, " ".join(details) + "; "
               + ", ".join(f"{count} {fault}" for fault, count in faults.items()))


def test_c08_compression_mitigates_without_collapse():
    """Stronger compression prunes the head too, and then LLG+ degrades toward
    random, not below it: the paper's mitigation, without the collapse c08
    once asserted. A fully pruned row sums to zero, which calibration reads
    as a label of about average count, so the guess drifts toward an even
    spread over the labels."""
    with Criterion(8, "compression mitigates without collapse", 180) as c:
        thetas = (0.8, 0.95, 0.99)
        means = _compression_cells(thetas, trials=30, batch_sizes=(32,))
        attacked = [means[("llg_plus", 32, f"compress(theta={theta})")] for theta in thetas]
        baseline = means[("random", 32, "compress(theta=0.99)")]
        decreasing = all(a > b for a, b in zip(attacked, attacked[1:]))
        ok = decreasing and attacked[-1] > baseline
        c.done(ok, "B=32: " + " ".join(f"theta={theta}: llg+={a:.3f}"
                                       for theta, a in zip(thetas, attacked))
               + f" vs random={baseline:.3f}")


def _deep_cnn(side, channels, activation, seed):
    """Stride-2 3x3 convolutions on side x side inputs, then a dense head."""
    rng = np.random.default_rng(seed)
    layers, in_channels, h = [], 1, side
    for out_channels in channels:
        conv = Conv2D(in_channels, out_channels, 3, 2, rng)
        h, _ = conv.output_hw(h, h)
        layers += [conv, Activation(activation)]
        in_channels = out_channels
    layers += [Flatten(), Dense(in_channels * h * h, 10, rng)]
    return Network(layers, 10, (1, side, side))


def test_c08_deeper_cnn_keeps_its_head_under_compression():
    """A deeper conv stack does not let the conv entries outweigh the head.
    Three stride-2 convolutions with 32/64/128 channels on 16x16 inputs leave
    the head under 2% of the parameters, yet theta=0.8 compression keeps
    more than the overall 20% of the head's entries in every trial, and
    LLG+ stays above random at B=32."""
    with Criterion(8, "compression on a deeper CNN", 120) as c:
        train, aux = synth_generate(SyntheticSpec(input_dim=256, samples_per_class=100,
                                                  seed=MASTER_SEED))
        compression = DefenseSpec("compress", theta=0.8)
        details, ok = [], True
        for activation in ("sigmoid", "relu"):
            kept, attacked, baseline = [], [], []
            for trial in range(10):
                rng = np.random.default_rng(800_000 + trial)
                net = _deep_cnn(16, (32, 64, 128), activation, seed=900_000 + trial)
                xs, ys = make_batch(train, BatchSpec(32, "unbalanced"), rng)
                update = local_train_fedsgd(net, xs, ys)
                truth = LabelMultiset.from_labels(ys, 10)
                defended = apply_defense(update, compression, rng, Gradients.zeros_for(net))
                kept.append(float(np.mean(defended.gradients.head[0] != 0)))
                logits, cache = net.forward(aux.xs)
                params = estimate_params_auxiliary(logits, cache.penultimate, aux, 32)
                extracted = llg_extract(defended.last_layer(), params)
                attacked.append(attack_success_rate(extracted, truth))
                baseline.append(attack_success_rate(random_guess(10, 32, rng), truth))
            head_share = net.head.W.size / sum(a.size for a in update.gradients.arrays())
            ok = (ok and head_share < 0.02 and min(kept) > 0.2
                  and np.mean(attacked) > np.mean(baseline))
            details.append(f"{activation}: head {head_share:.3f} of parameters, "
                           f"head kept {min(kept):.2f}-{max(kept):.2f}, "
                           f"llg+={np.mean(attacked):.3f} vs random={np.mean(baseline):.3f}")
        c.done(ok, "B=32 " + "; ".join(details))


def test_c08_compression_slight_effect_at_low_ratio():
    with Criterion(8, "compression theta=0.2 slight effect", 180) as c:
        means = _compression_cells((None, 0.2))
        details, ok = [], True
        for batch_size in (4, 32):
            clean = means[("llg_plus", batch_size, "none")]
            light = means[("llg_plus", batch_size, "compress(theta=0.2)")]
            ok = ok and abs(clean - light) < 0.15
            details.append(f"B={batch_size}: |{clean:.3f}-{light:.3f}|="
                           f"{abs(clean - light):.3f}")
        c.done(ok, " ".join(details))


def test_c09_noise_hurts_small_batches_more():
    with Criterion(9, "noise resilience", 180) as c:
        rows = run_experiment(ExperimentConfig(
            experiment="defense_sweep", activation="relu",
            attacks=("llg_plus", "random"), batch_sizes=(2, 128),
            defenses=(DefenseSpec(), DefenseSpec("noise", sigma=0.1)),
            trials=100, master_seed=MASTER_SEED,
        ))
        means = _cell_means(rows)
        clean_2 = means[("llg_plus", 2, "none")]
        noisy_2 = means[("llg_plus", 2, "noise(sigma=0.1)")]
        noisy_128 = means[("llg_plus", 128, "noise(sigma=0.1)")]
        random_128 = means[("random", 128, "noise(sigma=0.1)")]
        ok = noisy_2 < clean_2 and noisy_128 > random_128
        c.done(ok, f"B=2: {clean_2:.3f}->{noisy_2:.3f}; "
                   f"B=128 noisy {noisy_128:.3f} vs random {random_128:.3f}")


def test_c10_numerical_core():
    with Criterion(10, "numerical core", 60) as c:
        rng = np.random.default_rng(9)
        worst = 1.0
        for k in range(20):
            if k % 2 == 0:
                net = mlp(int(rng.integers(3, 9)), int(rng.integers(2, 5)),
                          hidden=int(rng.integers(3, 8)), seed=500_000 + k,
                          activation="sigmoid" if k % 4 == 0 else "relu")
            else:
                net = small_cnn((6, 6), int(rng.integers(2, 5)), channels=2,
                                seed=500_000 + k)
            flat = int(np.prod(net.input_shape))
            xs = rng.random((3, flat))
            labels = rng.integers(1, net.n_classes + 1, size=3)
            worst = min(worst, finite_difference_agreement(net, xs, labels))

        train, _ = synth_generate(SyntheticSpec(seed=MASTER_SEED, samples_per_class=50))
        net = mlp(64, 10, seed=77)
        spec = BatchSpec(8, "unbalanced")
        xs, ys = make_batch(train, spec, np.random.default_rng(42))
        sgd_update = local_train_fedsgd(net, xs, ys)
        avg_update, _ = local_train_fedavg(net, [train], spec, 1, 0.1,
                                           [np.random.default_rng(42)])[0]
        identical = all(
            np.array_equal(a, b) for a, b in
            zip(sgd_update.gradients.arrays(), avg_update.gradients.arrays())
        )

        from llg_lab.defenses import compress
        residual = Gradients.zeros_for(net)
        raw_total = Gradients.zeros_for(net)
        emitted_total = Gradients.zeros_for(net)
        grng = np.random.default_rng(11)
        for _ in range(50):
            grads = Gradients.zeros_for(net)
            for arr in grads.arrays():
                arr += grng.integers(-8, 9, size=arr.shape).astype(float)
            raw_total.add_(grads)
            emitted_total.add_(compress(grads, residual, 0.7))
        conserved = all(
            np.array_equal(e + r, raw) for e, r, raw in
            zip(emitted_total.arrays(), residual.arrays(), raw_total.arrays())
        )
        ok = worst >= 0.99 and identical and conserved
        c.done(ok, f"fd agreement >= {worst:.4f}, fedavg(1)==fedsgd: {identical}, "
                   f"conservation exact: {conserved}")


def test_c11_determinism_byte_identical_csv(tmp_path):
    with Criterion(11, "determinism", 60) as c:
        config = ExperimentConfig(
            experiment="asr_vs_batchsize", attacks=("llg_plus", "random"),
            batch_sizes=(8,), trials=2, master_seed=MASTER_SEED,
            samples_per_class=50,
        )
        outputs = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            emit_csv(run_experiment(config), path)
            outputs.append(path.read_bytes())
        c.done(outputs[0] == outputs[1],
               f"{len(outputs[0])} bytes, identical: {outputs[0] == outputs[1]}")
