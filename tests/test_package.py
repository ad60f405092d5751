"""The package's public surface: ``__all__`` and the names ``__init__`` imports."""

import ast
from pathlib import Path

import vqdiff


def test_all_names_resolve():
    missing = [name for name in vqdiff.__all__ if not hasattr(vqdiff, name)]
    assert missing == []
    assert len(set(vqdiff.__all__)) == len(vqdiff.__all__)


def test_every_public_import_is_listed():
    tree = ast.parse(Path(vqdiff.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_") and name != "annotations"}
    assert sorted(public - set(vqdiff.__all__)) == []
