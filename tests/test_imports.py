"""Source hygiene: no module imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for part in ("src", "tests", "demos", "perfbench")
               for path in (ROOT / part).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that no expression in the
    module reads. `from __future__` imports bind no name, and an import
    marked `# noqa: F401` is made for its side effects."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or "noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            bound.setdefault(alias.asname or alias.name.split(".")[0],
                             node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_scan_sees_every_source_tree():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {
        "src", "tests", "demos", "perfbench"}
    assert unused_imports("import os\nfrom a import b as c\nc()\n"
                          "import d  # noqa: F401\n") == [(1, "os")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES
             for line, name in unused_imports(path.read_text())]
    assert not found, "imported but never used:\n" + "\n".join(found)
