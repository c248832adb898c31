"""The design notes in README.md against the package they describe."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import volterra_smp

README = Path(volterra_smp.__file__).resolve().parents[2] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(volterra_smp.__path__)}
# an inline code span that is a dotted name, optionally called: `mod.name(...)`
DOTTED = re.compile(r"`(?:volterra_smp\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")
FILE_SUFFIXES = {"py", "json", "csv", "md", "txt", "toml"}


def _resolves(obj, attr: str) -> bool:
    """An attribute, or a dataclass field or annotated attribute of a class."""
    if hasattr(obj, attr):
        return True
    if not isinstance(obj, type):
        return False
    if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
        return True
    return any(attr in getattr(c, "__annotations__", {}) for c in obj.__mro__)


def _cited_names() -> list:
    names = []
    for dotted in DOTTED.findall(README.read_text()):
        head, *rest = dotted.split(".")
        if head in MODULES and not (len(rest) == 1 and rest[0] in FILE_SUFFIXES):
            names.append(dotted)
    return sorted(set(names))


def test_readme_cites_only_names_that_exist():
    cited = _cited_names()
    assert cited, "README cites no module-qualified name; the pattern is stale"
    missing = []
    for dotted in cited:
        head, *rest = dotted.split(".")
        obj = importlib.import_module(f"volterra_smp.{head}")
        for attr in rest:
            if not _resolves(obj, attr):
                missing.append(dotted)
                break
            if not hasattr(obj, attr):   # a field without a class value: not followed
                break
            obj = getattr(obj, attr)
    assert missing == []


def test_every_export_resolves():
    exported = {}
    for name in sorted(MODULES):
        module = importlib.import_module(f"volterra_smp.{name}")
        exported[name] = getattr(module, "__all__", ())
        assert [attr for attr in exported[name] if not hasattr(module, attr)] == [], name
    assert exported["kernels"], "kernels exports nothing; the check reads no __all__"
