"""The README's Library tour names only what its modules define."""

import importlib
import inspect
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
