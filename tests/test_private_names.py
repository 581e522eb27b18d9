"""Layering guard: no `ruta` module reads another module's private names.

Each module of `src/ruta` is parsed with `ast`.  A module may bind another
`ruta` module to a name (`from . import srou`) and read its public
attributes, but an attribute or an imported name that starts with `_` (and
is not a dunder) is private to the module that defines it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ruta"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def ruta_module(node: ast.ImportFrom) -> str | None:
    """The `ruta` module a `from ... import` reads from, '' for the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (node.module + ".").startswith("ruta."):
        return node.module[len("ruta."):]
    return None


def foreign_private_reads(path: Path) -> list[str]:
    own = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases: dict[str, str] = {}  # local name -> ruta module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ruta_module(node)
            if source is None:
                continue
            for alias in node.names:
                if source == "" and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif source and source != own and private(alias.name):
                    found.append(f"{path.name}:{node.lineno} {source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, tail = alias.name.partition(".")
                if head == "ruta" and tail in MODULES and alias.asname:
                    aliases[alias.asname] = tail
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if module is not None and module != own and private(node.attr):
                found.append(f"{path.name}:{node.lineno} {module}.{node.attr}")
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    found = [hit for name in MODULES for hit in foreign_private_reads(SRC / f"{name}.py")]
    assert found == []


def test_guard_sees_attribute_and_import_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import srou\nfrom .schema import _x, Y\n"
                     "import ruta.kvstore as kv\n"
                     "a = srou._parse(b'')\nb = srou.parse\nc = kv._rev\nd = srou.__name__\n")
    assert foreign_private_reads(probe) == [
        "probe.py:2 schema._x", "probe.py:4 srou._parse", "probe.py:6 kvstore._rev"]
