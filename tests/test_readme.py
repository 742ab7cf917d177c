"""The README's Library tour names only what its modules define, and its
config example is one the loader takes as it stands."""

import importlib
import inspect
import json
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def tour_rows():
    """(module name, backticked identifiers) for each row of the tour."""
    with open(README) as fh:
        text = fh.read()
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in tour.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        match = re.fullmatch(r"`(graphboost\.\w+)`", cells[0])
        if len(cells) == 2 and match:
            names = [t for t in re.findall(r"`([^`]+)`", cells[1])
                     if IDENTIFIER.fullmatch(t)]
            rows.append((match.group(1), names))
    return rows


def resolves(module, name):
    if hasattr(module, name):
        return True
    return any(hasattr(cls, name)
               or name in getattr(cls, "__dataclass_fields__", {})
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__)


def test_tour_covers_every_module():
    listed = {name for name, _ in tour_rows()}
    pkg = os.path.dirname(importlib.import_module("graphboost").__file__)
    modules = {f"graphboost.{f[:-3]}" for f in os.listdir(pkg)
               if f.endswith(".py") and f != "__init__.py"}
    assert listed == modules


def test_tour_identifiers_resolve():
    missing = []
    for mod_name, names in tour_rows():
        module = importlib.import_module(mod_name)
        missing += [f"{mod_name}.{n}" for n in names
                    if not resolves(module, n)]
    assert not missing, f"README Library tour names undefined: {missing}"


def test_config_example_loads_without_notes(tmp_path, capsys):
    # the README's config example is a current config: it loads with no
    # note on stderr
    from graphboost.cli import config_from_dict
    from graphboost.data import export_dataset, synthesize_two_block
    with open(README) as fh:
        text = fh.read()
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    blob = json.loads(block)
    export_dataset(synthesize_two_block(30, 0.8, 0.1, seed=0),
                   tmp_path / "toy")
    blob["dataset"] = str(tmp_path / "toy")
    config_from_dict(blob)
    assert capsys.readouterr().err == ""
