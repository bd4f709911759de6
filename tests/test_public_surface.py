"""Every public name and every result field is read by the program, not only by its tests."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "sparsewalk" / "__init__.py"
#: the code that reports numbers: the package itself, its tools, the benchmark and the demos
READERS = ("src", "tools", "perfbench", "demos")


def _code(path: Path) -> str:
    """The file's tokens, comments left out."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return " ".join(tok.string for tok in tokens if tok.type != tokenize.COMMENT)


def test_every_public_name_is_read_outside_the_tests():
    tree = ast.parse(INIT.read_text())
    names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    files = [p for d in READERS for p in sorted((ROOT / d).rglob("*.py")) if p != INIT]
    code = " ".join(_code(p) for p in files)
    unread = [
        name
        for name in names
        if not re.search(rf"\b{name}\b", re.sub(rf"\b(def|class) {name}\b", "", code))
    ]
    assert names and unread == []


#: dataclasses whose fields need no attribute read: ``tools/same_results.py``
#: (``bs2d``) fingerprints every field of a NeumannCertificate through
#: ``dataclasses.fields``
READ_WHOLE = ("NeumannCertificate",)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read_outside_the_tests():
    fields = [
        (node.name, item.target.id)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and _is_dataclass(node) and node.name not in READ_WHOLE
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    read = {
        node.attr
        for d in READERS
        for path in sorted((ROOT / d).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    # a field that shares its name with one that is read passes unseen
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert fields
    assert unread == []
