import re

import numpy as np
import pytest
from scipy import stats as scipy_stats

from stta.datagen import (
    Corruption,
    StreamSpec,
    continual_stream,
    corrupt,
    corruption_presets,
    class_mean_patterns,
    default_domain,
    make_stream,
    sample_source,
    single_domain_stream,
)


class TestClassMeans:
    def test_pairwise_separation_exact(self):
        means = class_mean_patterns(3, 16, separation=3.0)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(3.0, abs=1e-12)

    def test_too_many_classes(self):
        with pytest.raises(ValueError):
            class_mean_patterns(5, 4)


UNKNOWN_FOG = re.escape("corruption: unknown corruption preset 'fog' "
                        "(have noise, none, offset, permute, scale_mild, scale_strong)") + "$"


class TestFieldChecks:
    """Each type rejects a bad field with a ValueError that starts with the field's name."""

    @pytest.mark.parametrize("make,named", [
        (lambda: Corruption(scale=float("inf")), "scale must be a number that is finite, got inf"),
        (lambda: Corruption(offset="1"), "offset must be a number that is finite, got '1'"),
        (lambda: Corruption(noise=-0.5), "noise must be a number >= 0 and finite, got -0.5"),
        (lambda: Corruption(noise=True), "noise must be a number >= 0 and finite, got True"),
        (lambda: Corruption(permute=1), "permute must be true or false, got 1"),
        (lambda: default_domain(num_classes=1), "num_classes must be an integer >= 2, got 1"),
        (lambda: default_domain(num_classes=5, channels=4), "num_classes must be <= channels"),
        (lambda: default_domain(channels=2.0), "channels must be an integer >= 1, got 2.0"),
        (lambda: default_domain(length=0), "length must be an integer >= 1, got 0"),
        (lambda: default_domain(separation=float("nan")), "separation must be a number >= 0 and finite"),
        (lambda: default_domain(source_noise="0.5"), "source_noise must be a number >= 0 and finite"),
        (lambda: StreamSpec(((default_domain(), 1),), 8, 0, correlated="yes"),
         "correlated must be true or false, got 'yes'"),
        (lambda: StreamSpec(((default_domain(), 1),), 8, -1), "seed must be an integer >= 0, got -1"),
        (lambda: StreamSpec(((default_domain(), 1), (default_domain(), 2.0)), 8, 0),
         r"segments\[1\].batches must be an integer >= 1, got 2.0"),
        (lambda: StreamSpec(((default_domain(), 1), (default_domain(length=4), 1)), 8, 0),
         r"segments\[1\].domain has 3 classes of 16 x 4 samples, segments\[0\].domain 3 classes of 16 x 8"),
        (lambda: default_domain(corruption="fog"), UNKNOWN_FOG),
        (lambda: single_domain_stream(corruption="fog"), UNKNOWN_FOG),
        (lambda: continual_stream(corruptions=("noise", "fog")), UNKNOWN_FOG),
    ], ids=["inf-scale", "text-offset", "negative-noise", "bool-noise", "int-permute", "one-class",
            "too-many-classes", "float-channels", "zero-length", "nan-separation", "text-source-noise",
            "text-correlated", "negative-seed", "float-batches", "shape-changes", "unknown-preset",
            "unknown-preset-single", "unknown-preset-continual"])
    def test_rejects_bad_field(self, make, named):
        with pytest.raises(ValueError, match=f"^{named}"):
            make()


class TestSampleSource:
    def test_zero_noise_returns_class_means(self):
        domain = default_domain(source_noise=0.0)
        x, y = sample_source(domain, 30, seed=0)
        for xi, yi in zip(x, y):
            assert np.array_equal(xi, np.tile(domain.class_means[yi][:, None], (1, 8)))

    def test_class_histogram_balanced(self):
        domain = default_domain()
        for n in (30, 31, 32):
            _, y = sample_source(domain, n, seed=1)
            counts = np.bincount(y, minlength=3)
            assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        domain = default_domain()
        x1, y1 = sample_source(domain, 50, seed=2)
        x2, y2 = sample_source(domain, 50, seed=2)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_needs_one_per_class(self):
        with pytest.raises(ValueError):
            sample_source(default_domain(), 2, seed=0)


class TestCorrupt:
    def test_identity(self):
        x = np.random.default_rng(3).normal(size=(10, 4, 5))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert np.array_equal(corrupt(x, Corruption(), rng), x)
        assert rng.bit_generator.state == before  # a noiseless corruption draws nothing

    def test_degenerate_constant(self):
        x = np.random.default_rng(4).normal(size=(6, 4, 5))
        out = corrupt(x, Corruption(scale=0.0, offset=3.5), np.random.default_rng(0))
        assert np.all(out == 3.5)

    def test_monte_carlo_mean(self):
        # mean of corrupted population -> a*mu + b within 3 standard errors
        rng = np.random.default_rng(5)
        mu, a, b, noise = 1.3, 2.0, -0.7, 0.5
        n = 10_000
        x = rng.normal(mu, 0.8, size=(n, 2, 3))
        out = corrupt(x, Corruption(scale=a, offset=b, noise=noise), rng)
        se = np.sqrt((a * 0.8) ** 2 + noise ** 2) / np.sqrt(n * 6)
        assert abs(out.mean() - (a * mu + b)) < 3 * se

    def test_permutation_is_fixed_cyclic_shift(self):
        x = np.zeros((1, 4, 2))
        x[0, 2, :] = 7.0
        out = corrupt(x, Corruption(permute=True), np.random.default_rng(0))
        assert np.all(out[0, 1] == 7.0)  # channel i takes old channel i+1
        assert out[0, 2].max() == 0.0

    def test_commutes_with_batching(self):
        base = np.random.default_rng(6).normal(size=(40, 3, 4))
        corr = Corruption(scale=1.5, offset=0.3, noise=0.9)
        whole = corrupt(base, corr, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        parts = [corrupt(base[i:i + 8], corr, rng) for i in range(0, 40, 8)]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_presets_cover_catalog(self):
        presets = corruption_presets()
        assert {"none", "scale_mild", "scale_strong", "offset", "noise", "permute"} == set(presets)
        assert presets["none"] == Corruption()


class TestMakeStream:
    def test_batch_count_and_sizes(self):
        spec = single_domain_stream(corruption="none", batches=10, batch_size=16, seed=0)
        batches = list(make_stream(spec))
        assert len(batches) == 10
        assert sum(b.x.shape[0] for b in batches) == 160
        assert all(b.x.shape == (16, 16, 8) for b in batches)

    def test_segment_tags_change_at_boundaries(self):
        spec = continual_stream(corruptions=("none", "noise"), batches_per_segment=3,
                                batch_size=4, seed=1)
        tags = [b.segment for b in make_stream(spec)]
        assert tags == [0, 0, 0, 1, 1, 1]

    def test_bit_reproducible(self):
        spec = single_domain_stream(corruption="noise", batches=5, batch_size=8, seed=2)
        a = [b.x for b in make_stream(spec)]
        b = [b.x for b in make_stream(spec)]
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_iid_batches_multinomial_consistent(self):
        # chi-square over pooled per-batch histograms should not reject
        # uniform class draws at p > 0.001 for any of a few seeds
        for seed in (0, 1, 2):
            spec = single_domain_stream(corruption="none", batches=30, batch_size=16, seed=seed)
            counts = np.zeros(3)
            for batch in make_stream(spec):
                counts += np.bincount(batch.labels, minlength=3)
            total = counts.sum()
            _, p = scipy_stats.chisquare(counts, f_exp=np.full(3, total / 3))
            assert p > 0.001

    def test_correlated_mode_sorts_labels(self):
        spec = single_domain_stream(corruption="none", batches=6, batch_size=8, seed=3,
                                    correlated=True)
        labels = np.concatenate([b.labels for b in make_stream(spec)])
        assert np.all(np.diff(labels) >= 0)

    def test_labels_unchanged_by_corruption(self):
        clean = single_domain_stream(corruption="none", batches=4, batch_size=8, seed=4)
        noisy = single_domain_stream(corruption="noise", batches=4, batch_size=8, seed=4)
        for a, b in zip(make_stream(clean), make_stream(noisy)):
            assert np.array_equal(a.labels, b.labels)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StreamSpec((), 8, 0)
        with pytest.raises(ValueError):
            StreamSpec(((default_domain(), 0),), 8, 0)
        with pytest.raises(ValueError):
            StreamSpec(((default_domain(), 1),), 0, 0)
