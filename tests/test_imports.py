"""Source hygiene: no module imports a name it never uses, and the package
defines no top-level name, and no class member, that nothing reads."""

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


def defined_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each top-level def, class and assigned name."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out += [(node.lineno, n.id) for t in targets
                    for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def class_members(source: str) -> list[tuple[str, list[str],
                                             list[tuple[int, str]]]]:
    """(name, bases, members) of each class in a module: its bases as
    written, and the (line, name) of each method, property and class-level
    assigned name in its body other than a dunder."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        members = []
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.append((item.lineno, item.name))
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = (item.targets if isinstance(item, ast.Assign)
                           else [item.target])
                members += [(item.lineno, n.id) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)]
        out.append((node.name, [ast.unparse(b) for b in node.bases],
                    [(line, name) for line, name in members
                     if not (name.startswith("__") and name.endswith("__"))]))
    return out


def read_names(source: str) -> set[str]:
    """Every name a module reads: loaded names, attributes and the names
    it imports. String literals do not count."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_scan_sees_every_source_tree():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {
        "src", "tests", "demos", "perfbench"}
    assert unused_imports("import os\nfrom a import b as c\nc()\n"
                          "import d  # noqa: F401\n") == [(1, "os")]
    source = ("import m\nfrom p import f\nA, (B, C) = 1, (2, 3)\n"
              "D: int = 4\nclass K:\n    E = 5\ndef g():\n    return A\n"
              "m.B\nx = 'C'\n")
    assert defined_names(source) == [(3, "A"), (3, "B"), (3, "C"), (4, "D"),
                                     (5, "K"), (7, "g"), (10, "x")]
    assert {"A", "B", "f", "m"} <= read_names(source)
    assert not {"C", "D", "E", "K", "g", "x"} & read_names(source)
    source = ("class K(base.P, J):\n    A: int = 1\n    B = C = 2\n"
              "    def __init__(self):\n        def inner(): pass\n"
              "    @property\n    def p(self):\n        return self.q()\n"
              "    def q(self): pass\n    class N:\n        def r(self): pass\n")
    assert class_members(source) == [
        ("K", ["base.P", "J"], [(2, "A"), (3, "B"), (3, "C"), (7, "p"),
                                (9, "q")]),
        ("N", [], [(11, "r")])]
    assert "q" in read_names(source) and "r" not in read_names(source)


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES
             for line, name in unused_imports(path.read_text())]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_the_package_defines_no_name_that_nothing_reads():
    read = set().union(*(read_names(path.read_text()) for path in FILES))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES if path.is_relative_to(ROOT / "src" / "cheatlab")
             for line, name in defined_names(path.read_text())
             if name not in read]
    assert not found, "defined but never read:\n" + "\n".join(found)


def test_no_package_class_has_a_member_that_nothing_reads():
    # A class with a base from outside the package may define a member for
    # that base to call (argparse calls _Parser.error), so it is skipped.
    read = set().union(*(read_names(path.read_text()) for path in FILES))
    classes = [(path, cls, bases, members)
               for path in FILES if path.is_relative_to(ROOT / "src" / "cheatlab")
               for cls, bases, members in class_members(path.read_text())]
    ours = {cls for _, cls, _, _ in classes}
    found = [f"{path.relative_to(ROOT)}:{line}: {cls}.{name}"
             for path, cls, bases, members in classes if set(bases) <= ours
             for line, name in members if name not in read]
    assert not found, "class members never read:\n" + "\n".join(found)
