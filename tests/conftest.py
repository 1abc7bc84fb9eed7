"""Each test runs in its own temporary directory, so a relative output path
(a run dir's default `run` or `compare` included) never lands in the
checkout."""

import pytest


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
