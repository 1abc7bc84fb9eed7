"""Each test runs in its own temporary directory, so a relative output path
(a run dir's default `run` or `compare` included) never lands in the
checkout.  `small_dataset` is the 24-row dataset the end-to-end tests train
and score on, generated once per module."""

import pytest

from moscl.datagen import GenSpec, generate


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="module")
def small_dataset():
    return generate(GenSpec(n_total=24, minority_fraction=0.25, seed=3))
