"""Every name a weakhopf module imports is used in that module."""

import ast
import pathlib

import weakhopf

SRC = pathlib.Path(weakhopf.__file__).parent


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c\nprint(a)\n")
    assert unused_imports(tree) == [(1, "b"), (2, "c")]


def test_no_unused_imports_in_weakhopf():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        bad = unused_imports(ast.parse(path.read_text()))
        if bad:
            found[path.name] = bad
    assert not found, found
