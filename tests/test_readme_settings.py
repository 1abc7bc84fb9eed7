"""The README's lists of settings name what the code declares: the
`ExperimentConfig` fields and the fields that split lockstep groups."""

import dataclasses
import re
from pathlib import Path

from moscl import experiment
from moscl.experiment import ExperimentConfig

README = (Path(__file__).parent.parent / "README.md").read_text()


def _sentence(pattern: str) -> re.Match:
    found = re.search(pattern, README, re.S)
    assert found, f"README has no sentence matching {pattern!r}"
    return found


def _names(text: str):
    return re.findall(r"`(\w+)`", text)


def test_readme_lists_every_experiment_config_field():
    found = _sentence(r"The\s+(\d+)\s+`ExperimentConfig`\s+fields\s+are\s+(.+?`)\.")
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert int(found[1]) == len(fields)
    assert _names(found[2]) == fields


def test_readme_lists_the_lockstep_fields():
    found = _sentence(r"Cells that differ\s+in\s+(.+?)\s+form\s+separate\s+lockstep\s+groups")
    assert sorted(_names(found[1])) == sorted(experiment.LOCKSTEP_FIELDS)
