"""The README names what the code declares: the `ExperimentConfig`
fields, the fields that split lockstep groups, and the parameters of every
moscl callable it writes as a call."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import moscl
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


MODULES = {
    m.name: importlib.import_module(f"moscl.{m.name}") for m in pkgutil.iter_modules(moscl.__path__)
}


def _resolve(dotted: str):
    """The moscl callable that a README name such as `difficulty.fuse_ranks`,
    `MlpModel.forward_batch` or `generate` names, or None for prose that only
    looks like a call, such as `p(y = 1)` or `max(0, 1 - l/lam)`."""
    head, *rest = dotted.split(".")
    obj = MODULES.get(head) or next(
        (vars(m)[head] for m in MODULES.values() if head in vars(m)), None
    )
    for name in rest:
        obj = getattr(obj, name, None)
    if callable(obj) and getattr(obj, "__module__", "").startswith("moscl."):
        return obj
    return None


def test_readme_calls_name_the_parameters_in_order():
    checked, wrong = [], []
    for found in re.finditer(r"`(\w+(?:\.\w+)*)\(([^`]*?)\)(?:\s*->[^`]*)?`", README):
        obj = _resolve(found[1])
        if obj is None:
            continue
        written = [p.split("=")[0].strip() for p in found[2].split(",") if p.strip()]
        declared = [p for p in inspect.signature(obj).parameters if p != "self"]
        checked.append(found[1])
        if written != declared:
            wrong.append((found[1], written, declared))
    assert not wrong
    assert {"difficulty.fuse_ranks", "difficulty.dump_difficulty_csv"} <= set(checked)
