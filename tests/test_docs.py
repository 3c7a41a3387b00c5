"""The demos and the README's Python blocks import only names that exist,
the README's configuration example parses and lists every key, and every
module's __all__ names attributes the module defines and something outside
the tests uses.

Each source is parsed, not run, so the check is fast and needs neither
matplotlib nor a simulation: every ``from alphaduplex.<mod> import <names>``
must name a module the package has and attributes that module defines.
"""

import ast
import configparser
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import alphaduplex
from alphaduplex.cli import parse_config
from alphaduplex.model import SystemParams
from alphaduplex.montecarlo import SimConfig

ROOT = Path(__file__).resolve().parent.parent
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
INI_BLOCK = re.compile(r"^```ini\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _sources():
    sources = [(f"demos/{demo.name}", demo.read_text())
               for demo in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += [(f"README.md python block {i}", block)
                for i, block in enumerate(PYTHON_BLOCK.findall(readme))]
    return sources


SOURCES = _sources()


def test_sources_found():
    names = [name for name, _ in SOURCES]
    assert any(n.startswith("demos/") for n in names)
    assert any(n.startswith("README.md") for n in names)


@pytest.mark.parametrize("name,source", SOURCES, ids=[n for n, _ in SOURCES])
def test_package_imports_resolve(name, source):
    for node in ast.walk(ast.parse(source, filename=name)):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "alphaduplex"):
            continue
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, (f"{name}, line {node.lineno}: {node.module} "
                             f"has no {', '.join(missing)}")


def test_readme_config_example_is_the_reference_scenario():
    (block,) = INI_BLOCK.findall((ROOT / "README.md").read_text())
    cfg, ref = parse_config(block), parse_config("")
    assert dataclasses.replace(cfg, params=ref.params) == ref
    for field in dataclasses.fields(ref.params):
        # dBm and dB spellings may differ from the defaults in the last bit
        assert getattr(cfg.params, field.name) == pytest.approx(
            getattr(ref.params, field.name), rel=1e-15)


def test_readme_config_example_lists_every_key():
    (block,) = INI_BLOCK.findall((ROOT / "README.md").read_text())
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(block)
    keys = sorted(key for section in ini.sections() for key in ini[section])
    fields = [f.name for cls in (SystemParams, SimConfig)
              for f in dataclasses.fields(cls)]
    assert keys == sorted(fields + ["uplink", "downlink", "alpha_grid"])


MODULES = sorted(m.name for m in pkgutil.iter_modules(alphaduplex.__path__)
                 if m.name != "__main__")


def test_modules_found():
    assert {"cli", "montecarlo", "sweep"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"alphaduplex.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"alphaduplex.{name}.__all__ lists undefined {missing}"


def _names_used_outside_tests():
    """The names src/ uses (its def/class names and __all__ strings are not
    uses), and every word of the demos, README, OUTPUT_SCHEMA and perfbench/."""
    used = set()
    for path in (ROOT / "src" / "alphaduplex").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    texts = [ROOT / "README.md", ROOT / "OUTPUT_SCHEMA.md",
             *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.md")]
    for path in texts:
        used.update(re.findall(r"\w+", path.read_text()))
    return used


USED_OUTSIDE_TESTS = _names_used_outside_tests()


@pytest.mark.parametrize("name", MODULES)
def test_all_names_serve_more_than_the_tests(name):
    module = importlib.import_module(f"alphaduplex.{name}")
    unused = [n for n in getattr(module, "__all__", ())
              if n not in USED_OUTSIDE_TESTS]
    assert not unused, (f"alphaduplex.{name}.__all__ lists {unused}, which "
                        "only the tests use")
