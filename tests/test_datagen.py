import numpy as np
import pytest

from moscl.datagen import (
    GenSpec,
    generate,
    load_dataset,
    quadrant_recovery_rate,
    save_dataset,
)


class TestGenSpec:
    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            GenSpec(minority_fraction=1.5)
        with pytest.raises(ValueError):
            GenSpec(label_noise_rate=0.6, feature_noise_rate=0.6)

    def test_too_small(self):
        with pytest.raises(ValueError):
            GenSpec(n_total=3)


class TestGenerate:
    def test_all_clean_is_LL(self):
        ds = generate(
            GenSpec(n_total=50, minority_fraction=0.0, label_noise_rate=0.0,
                    feature_noise_rate=0.0, seed=1)
        )
        assert ds.tag_counts() == {"LL": 50}

    def test_minority_count(self):
        ds = generate(GenSpec(n_total=100, minority_fraction=0.1, seed=2))
        assert ds.tag_counts()["HH"] == 10

    def test_tag_bookkeeping(self):
        ds = generate(GenSpec(n_total=211, seed=3))
        assert sum(ds.tag_counts().values()) == 211
        assert len({s.id for s in ds.samples}) == 211

    def test_label_noise_consistency(self):
        ds = generate(GenSpec(n_total=200, seed=4))
        for s in ds.samples:
            if s.true_quadrant == "LH":
                assert s.y != s.clean_label
            else:
                assert s.y == s.clean_label

    def test_deterministic_file(self, tmp_path):
        spec = GenSpec(n_total=60, seed=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(generate(spec), p1)
        save_dataset(generate(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        spec = GenSpec(n_total=40, seed=6)
        ds = generate(spec)
        csv_path = tmp_path / "data.csv"
        save_dataset(ds, csv_path, tmp_path / "data.json")
        loaded = load_dataset(csv_path, tmp_path / "data.json")
        assert loaded.spec == spec
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.labels, ds.labels)
        assert [s.true_quadrant for s in loaded.samples] == [
            s.true_quadrant for s in ds.samples
        ]

    def test_duplicate_ids_rejected(self, tmp_path):
        ds = generate(GenSpec(n_total=40, seed=6))
        ds.samples[7].id = ds.samples[2].id
        csv_path = tmp_path / "dup.csv"
        save_dataset(ds, csv_path)
        with pytest.raises(ValueError, match="duplicate id 2"):
            load_dataset(csv_path)


class TestQuadrantRecovery:
    # oracle scores: encode each tag at a quadrant corner around (0.5, 0.5)
    _CORNERS = {"HH": (0.9, 0.9), "LH": (0.1, 0.9), "LL": (0.1, 0.1), "HL": (0.9, 0.1)}

    def _oracle_scores(self, ds):
        """(losses, uncertainties) in dataset-row order."""
        corners = [self._CORNERS[s.true_quadrant] for s in ds.samples]
        return [l for _, l in corners], [u for u, _ in corners]

    def test_perfect_oracle_recovers_all(self):
        ds = generate(GenSpec(n_total=200, seed=7))
        rates = quadrant_recovery_rate(ds, *self._oracle_scores(ds))
        for tag, rate in rates.items():
            if rate is not None:
                assert rate == 1.0

    def test_random_scores_near_quarter(self):
        ds = generate(GenSpec(n_total=400, minority_fraction=0.25,
                              label_noise_rate=0.25, feature_noise_rate=0.25, seed=8))
        per_tag = {tag: [] for tag in ("HH", "LH", "LL", "HL")}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            scores = [(rng.uniform(), rng.uniform()) for _ in ds.samples]
            losses = [l for l, _ in scores]
            us = [u for _, u in scores]
            for tag, rate in quadrant_recovery_rate(ds, losses, us).items():
                per_tag[tag].append(rate)
        for tag, rates in per_tag.items():
            assert abs(np.mean(rates) - 0.25) < 0.1

    def test_single_quadrant_dataset_reports_absent_tags(self):
        ds = generate(
            GenSpec(n_total=20, minority_fraction=0.0, label_noise_rate=0.0,
                    feature_noise_rate=0.0, seed=9)
        )
        rates = quadrant_recovery_rate(ds, *self._oracle_scores(ds))
        assert rates["LL"] == 1.0
        assert rates["HH"] is None and rates["LH"] is None and rates["HL"] is None

    def test_missing_scores_rejected(self):
        ds = generate(GenSpec(n_total=10, seed=10))
        with pytest.raises(ValueError):
            quadrant_recovery_rate(ds, [], [])
