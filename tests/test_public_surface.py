"""Every public name is read by the program, not only by its own tests."""

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
