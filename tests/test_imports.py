"""Every name a weakhopf module imports, or a function assigns, is read,
every attribute it sets on self is read, and every function it defines,
and every dataclass field, is referenced by the library or the benchmark,
or listed with the reason it stays; only linalg imports the row-reduction
kernel, and no law on basis tuples is recorded without its witness."""

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


PERFBENCH = TESTS.parent / "perfbench"


def self_attributes(tree):
    """{attribute: line} of each attribute assigned on self in the tree."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for t in targets:
            for n in ast.walk(t):
                if isinstance(n, ast.Attribute) and \
                        isinstance(n.ctx, ast.Store) and \
                        isinstance(n.value, ast.Name) and n.value.id == "self":
                    out.setdefault(n.attr, n.lineno)
    return out


def read_attributes(trees):
    """Every attribute name read in the trees, on any object."""
    return {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_attributes(tree, read):
    """(line, name) of each attribute the tree sets on self that is not in
    `read`."""
    return sorted((line, name) for name, line in self_attributes(tree).items()
                  if name not in read)


def test_scan_flags_an_unread_attribute():
    lib = ast.parse("class K:\n"
                    "    def __init__(self, x):\n"
                    "        self.a, self.b = x\n"
                    "        self.c = 1\n"
                    "        self.d: int = 2\n"
                    "        other.e = 3\n"
                    "    def m(self):\n"
                    "        return self.a\n")
    # a read on any object counts, an assignment does not
    user = ast.parse("k.c\nk.d = 4\n")
    read = read_attributes([lib, user])
    assert unread_attributes(lib, read) == [(3, "b"), (5, "d")]


def test_every_weakhopf_attribute_is_read():
    """An attribute that src, tests and the benchmark never read is state
    nothing uses."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read = read_attributes(list(trees.values()) + [
        ast.parse(path.read_text()) for path in
        sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))])
    found = {}
    for name, tree in trees.items():
        bad = unread_attributes(tree, read)
        if bad:
            found[name] = bad
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


# Functions that only tests call, each with the reason it stays.  The
# corpus module holds test inputs by design and is exempt as a whole.
TEST_ONLY = {
    "action.py": {
        "trivial_action": "a module algebra of the acceptance suite",
        "standard_action": "a module algebra of the acceptance suite",
        "adjoint_action": "a module algebra of the acceptance suite",
        "duality_dimension_check": "decides test_duality_dimension_checks, "
        "with its helper smash_dual_action, until the shifted psi_iso "
        "makes M2 # B' = M3 a literal isomorphism",
    },
    "wha.py": {
        "is_hopf": "decides the Szymanski degeneration acceptance test",
    },
}


def test_every_weakhopf_function_is_referenced():
    """A function that no library code and no benchmark job calls is a
    verdict no command reaches: it is wired in, deleted, or listed in
    TEST_ONLY with its reason, and a listed one that gains a caller
    leaves the list."""
    paths = sorted(SRC.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    names = referenced_names(list(trees.values()) + [
        ast.parse(path.read_text())
        for path in sorted(PERFBENCH.glob("*.py"))])
    found = {}
    for name, tree in trees.items():
        bad = {fn for _, fn in unreferenced_functions(tree, names)}
        if bad and name != "corpus.py":
            found[name] = bad
    assert found == {name: set(fns) for name, fns in TEST_ONLY.items()}


FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defaulted_parameters(tree):
    """{(function, parameter): position} of each defaulted parameter.

    A constructor counts under its class name, the name its callers use.
    The position counts the positional parameters after a leading self or
    cls; it is None for a keyword-only parameter.
    """
    owners = {fn: cls.name for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for fn in cls.body
              if isinstance(fn, FUNCTION_DEFS) and fn.name == "__init__"}
    out = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTION_DEFS):
            continue
        name = owners.get(fn, fn.name)
        pos = fn.args.posonlyargs + fn.args.args
        skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
        first = len(pos) - len(fn.args.defaults)
        for i, arg in enumerate(pos[first:], first):
            out[(name, arg.arg)] = i - skip
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                out[(name, arg.arg)] = None
    return out


def calls_with_callers(node, caller=None):
    """(call, name of the function the call is in, or None) in a tree."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, caller
        yield from calls_with_callers(
            child, child.name if isinstance(child, FUNCTION_DEFS) else caller)


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def unset_defaults(lib_trees, caller_trees):
    """Sorted (function, parameter) of each defaulted parameter of lib_trees
    that no call in caller_trees sets, by keyword or by position.

    Calls match functions by name.  A call with *args or **kwargs sets
    everything; an argument that is the bare name of a still unset
    parameter of the calling function only forwards the default, so it
    sets nothing.
    """
    params = {}
    for tree in lib_trees:
        params.update(defaulted_parameters(tree))
    calls = [cc for tree in caller_trees for cc in calls_with_callers(tree)]
    unset = set(params)
    changed = True
    while changed:
        changed = False
        for call, caller in calls:
            for key in [k for k in unset if k[0] == _called_name(call)]:
                pos = params[key]
                if any(isinstance(a, ast.Starred) for a in call.args) or \
                        any(k.arg is None for k in call.keywords):
                    values = [None]
                else:
                    values = [k.value for k in call.keywords
                              if k.arg == key[1]]
                    if pos is not None and len(call.args) > pos:
                        values.append(call.args[pos])
                if any(not (isinstance(v, ast.Name)
                            and (caller, v.id) in unset) for v in values):
                    unset.discard(key)
                    changed = True
    return sorted(unset)


def test_scan_flags_a_default_no_call_sets():
    lib = ast.parse("def f(a, b=1, c=2, *, d=3):\n"
                    "    return g(a, c=c) + g(a, e=b)\n"
                    "def g(a, c=None, e=None):\n"
                    "    pass\n"
                    "def h(x=None, y=None):\n"
                    "    pass\n"
                    "class K:\n"
                    "    def __init__(self, x=0):\n"
                    "        pass\n"
                    "    def m(self, y=None, z=None):\n"
                    "        pass\n")
    user = ast.parse("f(1, 2)\nf(1, d=4)\nK().m(5)\nh(*[1])\n")
    # f's b and d are set by its callers; g's c only receives f's unset c,
    # while g's e receives f's b, which is set; h is called with *args;
    # K() sets no x; m's y is set by position, after self
    assert unset_defaults([lib], [lib, user]) == [
        ("K", "x"), ("f", "c"), ("g", "c"), ("m", "z")]


def test_every_default_is_set_by_some_call():
    """A defaulted parameter that no caller sets is a knob nothing turns.

    The callers are the package, its tests and the benchmark driver.
    """
    lib = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    callers = lib + [ast.parse(path.read_text()) for path in sorted(
        list(TESTS.glob("*.py")) +
        list(PERFBENCH.glob("*.py")))]
    assert unset_defaults(lib, callers) == []


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(target, "id", None) or getattr(target, "attr", None)) \
        == "dataclass"


def dataclass_fields(tree):
    """{(class, field): line} of each field of each @dataclass in the tree."""
    return {(cls.name, node.target.id): node.lineno
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and any(_is_dataclass(d) for d in cls.decorator_list)
            for node in cls.body if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)}


def unread_fields(tree, read):
    """(line, "class.field") of each dataclass field of the tree whose name
    is not in `read`."""
    return sorted((line, "%s.%s" % key)
                  for key, line in dataclass_fields(tree).items()
                  if key[1] not in read)


def library_unread_fields(lib, others):
    """{file: {"class.field"}} of the dataclass fields of the library trees
    `lib` ({file: tree}) whose name neither they nor the trees `others`
    read; a field is matched by name, on any object."""
    read = read_attributes([*lib.values(), *others])
    found = {}
    for name, tree in lib.items():
        bad = {field for _, field in unread_fields(tree, read)}
        if bad:
            found[name] = bad
    return found


def test_scan_flags_a_field_only_tests_read():
    lib = {"a.py": ast.parse("@dataclass(frozen=True)\n"
                             "class K:\n"
                             "    x: int\n"
                             "    y: int\n"
                             "    z: int\n"),
           "b.py": ast.parse("def f(k):\n"
                             "    return k.x\n")}
    bench = ast.parse("k.y\n")
    # a read in another library file or in the benchmark counts, a read
    # that only a test makes does not
    assert library_unread_fields(lib, [bench]) == {"a.py": {"K.z"}}
    assert library_unread_fields(lib, [bench, ast.parse("k.z\n")]) == {}


def test_scan_flags_an_unread_field():
    lib = ast.parse("@dataclass(frozen=True)\n"
                    "class K:\n"
                    "    a: int\n"
                    "    b: int = 0\n"
                    "    c = 1\n"
                    "@dataclasses.dataclass\n"
                    "class L:\n"
                    "    d: str\n"
                    "class Plain:\n"
                    "    e: int\n"
                    "def f(k):\n"
                    "    return k.a\n")
    # a read on any object counts, an assignment or a keyword does not;
    # c is a class attribute and Plain no dataclass
    user = ast.parse("x.b = 2\nK(b=3)\n")
    read = read_attributes([lib, user])
    assert unread_fields(lib, read) == [(4, "K.b"), (8, "L.d")]


def test_every_weakhopf_dataclass_field_is_read():
    """A field that src, tests and the benchmark never read is state the
    constructor fills for nothing."""
    lib = {path.name: ast.parse(path.read_text())
           for path in sorted(SRC.glob("*.py"))}
    found = library_unread_fields(lib, [
        ast.parse(path.read_text()) for path in
        sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))])
    assert not found, found


# Dataclass fields that only tests read, each with the reason it stays.
TEST_ONLY_FIELDS = {
    "linalg.py": {
        "Quotient.relations": "the relations a quotient was built from; "
        "tests rebuild the smash balancing loop on them and check that no "
        "derivation mutates them",
    },
    "tower.py": {
        "Depth2Data.zs": "the dual-bases legs of the A half of depth 2, "
        "which test_tower requires to be nonempty beside us and vs",
    },
    "wha.py": {
        "CounitalData.e_t": "the separability idempotent of Ht that "
        "counital() decides; test_wha mutates it to exercise _separates",
        "CounitalData.e_s": "the separability idempotent of Hs that "
        "counital() decides; test_wha checks _separates on it",
    },
}


def test_every_weakhopf_dataclass_field_is_read_by_the_library():
    """A field that no library code and no benchmark job reads decides no
    verdict: it is read, deleted, or listed in TEST_ONLY_FIELDS with its
    reason, and a listed one that gains a reader leaves the list."""
    lib = {path.name: ast.parse(path.read_text())
           for path in sorted(SRC.glob("*.py"))}
    found = library_unread_fields(lib, [
        ast.parse(path.read_text())
        for path in sorted(PERFBENCH.glob("*.py"))])
    assert found == {name: set(fields)
                     for name, fields in TEST_ONLY_FIELDS.items()}


# every scalar constructor takes the field, whether or not it needs it
UNREAD_PARAMETERS_ALLOWED = {("scalar_zero", "p"), ("scalar_one", "p")}


def unread_parameters(tree, allowed=frozenset()):
    """(line, function, parameter) of each parameter that its function's
    body never reads.

    A read in a nested function or lambda counts.  Dunder methods are
    exempt, since the protocol fixes their signatures, as are the
    (function, parameter) pairs in `allowed`.
    """
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTION_DEFS) or (
                fn.name.startswith("__") and fn.name.endswith("__")):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            x for x in (a.vararg, a.kwarg) if x is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.extend((arg.lineno, fn.name, arg.arg) for arg in params
                     if arg.arg not in read
                     and (fn.name, arg.arg) not in allowed)
    return sorted(found)


def test_scan_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b, *args, c=1, **kw):\n"
                     "    return a + g(lambda: c)\n"
                     "class K:\n"
                     "    def __eq__(self, other):\n"
                     "        return True\n"
                     "    def m(self, x):\n"
                     "        x = 2\n"
                     "        return self\n"
                     "def scalar_one(p=None):\n"
                     "    return 1\n")
    # an assignment to a parameter is no read of it
    assert unread_parameters(tree, {("scalar_one", "p")}) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "kw"), (6, "m", "x")]


def test_every_weakhopf_parameter_is_read():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        bad = unread_parameters(ast.parse(path.read_text()),
                                UNREAD_PARAMETERS_ALLOWED)
        if bad:
            found[path.name] = bad
    assert not found, found


def backend_imports(tree):
    """(line, name) of each name imported from the row-reduction kernel
    `weakhopf._backend`; "_backend" when the module itself is imported."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in ("weakhopf._backend", "._backend"):
                found.extend((node.lineno, a.name) for a in node.names)
            elif module in ("weakhopf", "."):
                found.extend((node.lineno, a.name) for a in node.names
                             if a.name == "_backend")
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, "_backend") for a in node.names
                         if a.name == "weakhopf._backend")
    return sorted(found)


def test_scan_flags_backend_imports():
    tree = ast.parse("from weakhopf._backend import insert_row, BACKEND\n"
                     "from weakhopf import _backend, linalg\n"
                     "import weakhopf._backend as kernel\n"
                     "from ._backend import reduce_row\n"
                     "from . import _backend\n"
                     "from weakhopf.linalg import solve\n"
                     "import weakhopf\n")
    assert backend_imports(tree) == [
        (1, "BACKEND"), (1, "insert_row"), (2, "_backend"), (3, "_backend"),
        (4, "reduce_row"), (5, "_backend")]


def test_only_linalg_enters_the_kernel():
    # linalg turns vectors into kernel rows; the package only reports the
    # kernel's name
    allowed = {"__init__.py": {"BACKEND"}}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        bad = [(line, name)
               for line, name in backend_imports(ast.parse(path.read_text()))
               if name not in allowed.get(path.name, ())]
        if bad:
            found[path.name] = bad
    assert not found, found


def witnessless_laws(tree):
    """(line, name) of each ``*.add(name, law, passed)`` call whose passed
    is any(...) or all(...) over a comprehension, or its negation: a law
    decided on basis tuples and recorded with no tuple where it fails."""
    found = []
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and
                getattr(n.func, "attr", None) == "add"):
            continue
        passed = n.args[2] if len(n.args) > 2 else next(
            (k.value for k in n.keywords if k.arg == "passed"), None)
        while isinstance(passed, ast.UnaryOp) and \
                isinstance(passed.op, ast.Not):
            passed = passed.operand
        if isinstance(passed, ast.Call) and \
                getattr(passed.func, "id", None) in ("any", "all") and \
                len(passed.args) == 1 and \
                isinstance(passed.args[0], (ast.GeneratorExp, ast.ListComp)):
            found.append((n.lineno, getattr(n.args[0], "value", None)))
    return sorted(found)


def test_scan_flags_a_law_recorded_without_a_witness():
    tree = ast.parse("cl.add('a', 'x = y', not any(f(h) for h in r))\n"
                     "cl.add('b', 'x = y', all([g(h) for h in r]))\n"
                     "cl.add('c', 'x = y', ok, 'basis 0')\n"
                     "cl.add('d', 'x = y', passed=any(v for v in w))\n"
                     "cl.add('e', 'x = y', all((1, 2)))\n"
                     "seen.add(any(v for v in w))\n")
    # a set's add takes one argument; a tuple is no comprehension
    assert witnessless_laws(tree) == [(1, "a"), (2, "b"), (4, "d")]


def test_every_basis_tuple_law_names_its_witness():
    """A law decided by any() or all() over its cases records no case; it
    goes through CheckList.holds, which names the first failing one."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        bad = witnessless_laws(ast.parse(path.read_text()))
        if bad:
            found[path.name] = bad
    assert not found, found


def checklist_makers(tree):
    """Sorted names of the functions that call CheckList(); a call outside
    every function counts under None."""
    return sorted({caller for call, caller in calls_with_callers(tree)
                   if _called_name(call) == "CheckList"}, key=str)


def test_scan_flags_the_functions_that_make_a_checklist():
    tree = ast.parse("cl = CheckList()\n"
                     "def derive(t):\n"
                     "    cl = CheckList()\n"
                     "    stage(cl, t)\n"
                     "    return cl\n"
                     "def stage(cl, t):\n"
                     "    cl.add('a', 'x = y', True)\n"
                     "class K:\n"
                     "    def __init__(self):\n"
                     "        self.checks = checks.CheckList()\n"
                     "def outer():\n"
                     "    def inner():\n"
                     "        return CheckList([])\n"
                     "    return inner\n")
    # a method counts under its own name, a nested function under its own
    assert checklist_makers(tree) == [None, "__init__", "derive", "inner"]


def test_the_derivation_stages_share_one_checklist():
    """Only the tower's two builders and `derive` make a CheckList: every
    stage of the derivation appends to the one `derive` passes it."""
    tree = ast.parse((SRC / "tower.py").read_text())
    assert checklist_makers(tree) == ["basic_construction", "build_tower",
                                      "derive"]
