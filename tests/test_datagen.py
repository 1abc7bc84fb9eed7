import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from moscl.datagen import (
    JITTER_SCALE,
    GenSpec,
    check_dataset,
    generate,
    load_dataset,
    save_dataset,
)

from oracles import quadrant_recovery_rate


def _tag_counts(ds):
    """Rows per generation tag."""
    tags, counts = np.unique(ds.tag, return_counts=True)
    return dict(zip(tags.tolist(), counts.tolist()))


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
        assert _tag_counts(ds) == {"LL": 50}

    def test_minority_count(self):
        ds = generate(GenSpec(n_total=100, minority_fraction=0.1, seed=2))
        assert _tag_counts(ds)["HH"] == 10

    def test_tag_bookkeeping(self):
        ds = generate(GenSpec(n_total=211, seed=3))
        assert sum(_tag_counts(ds).values()) == 211
        assert len(set(ds.ids.tolist())) == 211

    def test_label_noise_consistency(self):
        ds = generate(GenSpec(n_total=200, seed=4))
        for tag, y, clean in zip(ds.tag, ds.labels, ds.clean_label):
            if tag == "LH":
                assert y != clean
            else:
                assert y == clean

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
        assert loaded.tag.tolist() == ds.tag.tolist()

    def test_duplicate_ids_rejected(self, tmp_path):
        ds = generate(GenSpec(n_total=40, seed=6))
        ds.ids[7] = ds.ids[2]
        csv_path = tmp_path / "dup.csv"
        save_dataset(ds, csv_path)
        with pytest.raises(ValueError, match="duplicate id 2"):
            load_dataset(csv_path)


def _reference_generate(spec):
    """The per-sample loop `generate` replaces: (ids, X, labels,
    clean_label, tags), drawing each jittered row's noise in row order."""
    rng = np.random.default_rng(spec.seed)
    n_min = int(round(spec.minority_fraction * spec.n_total))
    n_maj = spec.n_total - n_min
    center_maj = np.zeros(spec.dim)
    center_min = np.zeros(spec.dim)
    center_min[0] = spec.cluster_separation
    X_maj = center_maj + rng.standard_normal((n_maj, spec.dim))
    X_min = center_min + rng.standard_normal((n_min, spec.dim))
    n_flip = int(round(spec.label_noise_rate * n_maj))
    n_jit = int(round(spec.feature_noise_rate * n_maj))
    roles = rng.permutation(n_maj)
    flip_set = set(roles[:n_flip].tolist())
    jit_set = set(roles[n_flip : n_flip + n_jit].tolist())
    rows = []
    for k in range(n_maj):
        x, y, tag = X_maj[k], 0, "LL"
        if k in flip_set:
            y, tag = 1, "LH"
        elif k in jit_set:
            x = x + JITTER_SCALE * rng.standard_normal(spec.dim)
            tag = "HL"
        rows.append((x, y, 0, tag))
    rows += [(X_min[k], 1, 1, "HH") for k in range(n_min)]
    xs, ys, cleans, tags = zip(*rows)
    return np.arange(len(rows)), np.stack(xs), np.array(ys), np.array(cleans), list(tags)


@st.composite
def _specs(draw):
    label = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    feature = draw(st.sampled_from([0.0, 1.0 - label]) | st.floats(0.0, 1.0 - label))
    return GenSpec(
        n_total=draw(st.integers(4, 6) | st.integers(4, 80)),
        minority_fraction=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        label_noise_rate=label,
        feature_noise_rate=feature,
        cluster_separation=draw(st.floats(-5.0, 5.0)),
        dim=draw(st.integers(2, 8)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestColumns:
    @settings(max_examples=150, deadline=None)
    @given(_specs())
    @example(GenSpec(n_total=5, label_noise_rate=0.5, feature_noise_rate=0.5))
    # 3 majority rows: 2 flips and 2 jitters round past them
    @example(GenSpec(n_total=4, minority_fraction=0.25, label_noise_rate=0.5,
                     feature_noise_rate=0.5))
    @example(GenSpec(n_total=4, minority_fraction=0.0, label_noise_rate=0.3,
                     feature_noise_rate=0.7))
    @example(GenSpec(n_total=6, minority_fraction=1.0))
    def test_generate_matches_per_sample_loop(self, spec):
        ds = generate(spec)
        ids, X, labels, clean, tags = _reference_generate(spec)
        assert ds.ids.tolist() == ids.tolist()
        assert ds.X.shape == X.shape and ds.X.tobytes() == X.tobytes()
        assert ds.labels.tolist() == labels.tolist()
        assert ds.clean_label.tolist() == clean.tolist()
        assert ds.tag.tolist() == tags
        assert ds.spec == spec

    @settings(max_examples=60, deadline=None)
    @given(_specs(), st.integers(0, 2**32),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_save_load_round_trips_every_column(self, spec, seed, value):
        ds = generate(spec)
        rng = np.random.default_rng(seed)
        X = ds.X.copy()
        X[rng.integers(len(ds)), rng.integers(spec.dim)] = value
        ds = replace(ds, X=X, ids=rng.choice(10**9, size=len(ds), replace=False))
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data.csv"
            save_dataset(ds, data, data.with_suffix(".json"))
            loaded = load_dataset(data, data.with_suffix(".json"))
        assert loaded.spec == ds.spec
        for name in ("ids", "X", "labels", "clean_label", "tag"):
            got, want = getattr(loaded, name), getattr(ds, name)
            assert got.shape == want.shape, name
            assert got.tolist() == want.tolist(), name
        assert loaded.X.tobytes() == ds.X.tobytes()


def _write(path, text):
    path.write_text(text)
    return path


class TestLoadDataset:
    HEADER = "id,y,clean_label,true_quadrant,x0,x1\n"

    def test_ragged_row_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", self.HEADER + "0,0,0,LL,0.1,0.2\n1,0,0,LL,0.3\n")
        with pytest.raises(ValueError, match="row 1 has 5 fields, the header 6"):
            load_dataset(path)

    def test_ragged_rows_that_even_out_named(self, tmp_path):
        path = _write(
            tmp_path / "d.csv", self.HEADER + "0,0,0,LL,0.1,0.2,0.3\n1,0,0,LL,0.3\n"
        )
        with pytest.raises(ValueError, match="row 0 has 7 fields, the header 6"):
            load_dataset(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", self.HEADER + "0,0,0,LL,0.1,0.2\n1,0,0,LL,0.3,abc\n")
        with pytest.raises(ValueError, match="row 1, column 'x1': 'abc' is not float64"):
            load_dataset(path)

    def test_non_integer_label_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", self.HEADER + "0,0.5,0,LL,0.1,0.2\n")
        with pytest.raises(ValueError, match="row 0, column 'y': '0.5' is not int64"):
            load_dataset(path)

    def test_no_feature_columns_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", "id,y,clean_label,true_quadrant\n0,0,0,LL\n")
        with pytest.raises(ValueError, match="no feature columns"):
            load_dataset(path)

    def test_missing_column_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", "id,clean_label,true_quadrant,x0\n0,0,LL,0.1\n")
        with pytest.raises(ValueError, match="no 'y' column"):
            load_dataset(path)

    @pytest.mark.parametrize("text", ["", HEADER])
    def test_header_without_rows_named(self, tmp_path, text):
        path = _write(tmp_path / "d.csv", text)
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(path)

    def test_non_finite_feature_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", self.HEADER + "0,0,0,LL,0.1,0.2\n7,0,0,LL,nan,0.2\n")
        with pytest.raises(ValueError, match=r"row 1 \(id 7\): feature x0 is nan"):
            load_dataset(path)

    def test_negative_label_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", self.HEADER + "0,-1,0,LL,0.1,0.2\n")
        with pytest.raises(ValueError, match=r"row 0 \(id 0\): label y=-1 must be >= 0"):
            load_dataset(path)

    def test_wide_csv_without_sidecar(self, tmp_path):
        ds = generate(GenSpec(n_total=30, dim=8, seed=1))
        ds = replace(ds, X=np.hstack([ds.X, ds.X[:, :2]]), spec=None)
        save_dataset(ds, tmp_path / "wide.csv")
        loaded = load_dataset(tmp_path / "wide.csv")
        assert loaded.spec is None
        assert loaded.X.shape == (30, 10)
        assert loaded.X.tobytes() == ds.X.tobytes()

    def test_three_rows_without_sidecar(self, tmp_path):
        path = _write(
            tmp_path / "d.csv",
            self.HEADER + "5,0,0,LL,0.1,0.2\n9,1,0,LH,0.3,0.4\n2,1,1,HH,3.1,-0.5\n",
        )
        loaded = load_dataset(path)
        assert loaded.spec is None and len(loaded) == 3
        assert loaded.ids.tolist() == [5, 9, 2]
        assert loaded.labels.tolist() == [0, 1, 1]
        assert loaded.tag.tolist() == ["LL", "LH", "HH"]

    def test_no_spec_has_no_sidecar(self, tmp_path):
        ds = replace(generate(GenSpec(n_total=10, seed=1)), spec=None)
        with pytest.raises(ValueError, match="no GenSpec"):
            save_dataset(ds, tmp_path / "d.csv", tmp_path / "d.json")


class TestCheckDataset:
    def test_labels_checked_against_class_count(self):
        ds = generate(GenSpec(n_total=20, seed=2))
        labels = ds.labels.copy()
        labels[6] = 2
        bad = replace(ds, labels=labels)
        check_dataset(bad)
        with pytest.raises(ValueError, match=r"row 6 \(id 6\): label y=2 must be in \[0, 2\)"):
            check_dataset(bad, n_classes=2)

    def test_column_lengths_checked(self):
        ds = generate(GenSpec(n_total=20, seed=2))
        with pytest.raises(ValueError, match="tag has 19 rows for 20 ids"):
            check_dataset(replace(ds, tag=ds.tag[1:]))
        with pytest.raises(ValueError, match="X has 19 rows for 20 ids"):
            check_dataset(replace(ds, X=ds.X[1:]))
        with pytest.raises(ValueError, match=r"X of shape \(20,\)"):
            check_dataset(replace(ds, X=ds.X.ravel()[:20]))


class TestQuadrantRecovery:
    # oracle scores: encode each tag at a quadrant corner around (0.5, 0.5)
    _CORNERS = {"HH": (0.9, 0.9), "LH": (0.1, 0.9), "LL": (0.1, 0.1), "HL": (0.9, 0.1)}

    def _oracle_scores(self, ds):
        """(losses, uncertainties) in dataset-row order."""
        corners = [self._CORNERS[tag] for tag in ds.tag]
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
            scores = [(rng.uniform(), rng.uniform()) for _ in range(len(ds))]
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
