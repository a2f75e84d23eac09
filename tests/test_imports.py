"""Every name a weakhopf module imports, or a function assigns, is read,
and every function it defines is referenced."""

import ast
import pathlib

import weakhopf

SRC = pathlib.Path(weakhopf.__file__).parent
TESTS = pathlib.Path(__file__).parent


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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn):
    """The nodes of a function body outside any nested function or class."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """(line, name) of each local assigned in a function and never read.

    Assignment targets count, tuple targets included; a read anywhere in
    the function, nested functions too, uses the name.  Names that start
    with an underscore are exempt, as are global and nonlocal names.
    """
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        stored, declared = {}, set()
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and isinstance(n.ctx,
                                                              ast.Store):
                        stored.setdefault(n.id, n.lineno)
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.extend((line, name) for name, line in stored.items()
                     if name not in read and name not in declared
                     and not name.startswith("_"))
    return sorted(found)


def test_scan_flags_an_unread_local():
    tree = ast.parse("def f(y):\n"
                     "    a, b = y\n"
                     "    _c = 1\n"
                     "    d = 2\n"
                     "    e = 3\n"
                     "    def g():\n"
                     "        return d\n"
                     "    return a + g()\n")
    assert unread_locals(tree) == [(2, "b"), (5, "e")]


def test_no_unread_locals_in_weakhopf():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        bad = unread_locals(ast.parse(path.read_text()))
        if bad:
            found[path.name] = bad
    assert not found, found


def referenced_names(trees):
    """Every name read in the trees, bare or as an attribute."""
    out = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx,
                                                             ast.Load):
                out.add(n.attr)
    return out


def unreferenced_functions(tree, names):
    """(line, name) of each function or method defined in tree whose name
    is not in `names`.  Dunder methods are exempt: Python calls them."""
    return sorted((fn.lineno, fn.name) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and fn.name not in names
                  and not (fn.name.startswith("__") and
                           fn.name.endswith("__")))


def test_scan_flags_an_unreferenced_function():
    lib = ast.parse("def used():\n"
                    "    pass\n"
                    "def dead():\n"
                    "    pass\n"
                    "class K:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                    "    def m(self):\n"
                    "        return used\n"
                    "    def gone(self):\n"
                    "        pass\n")
    # assigning a name, or an attribute, does not reference it
    user = ast.parse("K().m()\ndead = 1\nK().gone = 2\n")
    names = referenced_names([lib, user])
    assert unreferenced_functions(lib, names) == [(3, "dead"), (10, "gone")]


def test_every_weakhopf_function_is_referenced():
    paths = sorted(SRC.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    names = referenced_names(list(trees.values()) + [
        ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))])
    found = {}
    for name, tree in trees.items():
        bad = unreferenced_functions(tree, names)
        if bad:
            found[name] = bad
    assert not found, found
