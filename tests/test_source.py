"""Checks on the source text of the engine and of the tests."""

import ast
from collections import Counter
from pathlib import Path

import twobridge

SOURCES = sorted(Path(twobridge.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def nodes(paths):
    """(file name, node) for every syntax tree node of the files."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_engine_has_no_assert_statements():
    # Invariants raise, so they still hold under ``python -O``, which
    # strips every ``assert``.
    found = [f"{name}:{node.lineno}" for name, node in nodes(SOURCES)
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_no_test_module_imports_another():
    # Shared helpers live in oracles.py and conftest.py, so that no test
    # module runs or depends on the module-level code of another.
    found = [f"{name}:{node.lineno}" for name, node in nodes(TESTS)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for module in ([node.module or ""] if isinstance(node, ast.ImportFrom)
                            else [alias.name for alias in node.names])
             if module.rpartition(".")[2].startswith("test_")]
    assert TESTS and found == []


def test_every_private_definition_is_used_by_the_engine():
    # A function, class or method named with one leading underscore
    # serves the engine, so something in the engine outside its own
    # definition must name it; one that only the tests read belongs in
    # the tests.
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]

    def names(tree):
        return [node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))]

    everywhere = Counter(name for tree in trees for name in names(tree))
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in zip(SOURCES, trees) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and everywhere[node.name] == names(node).count(node.name)]
    assert SOURCES and unused == []


def test_no_engine_function_calls_itself():
    # A recursive function fails with a RecursionError once its input is
    # deep enough; the engine walks with explicit stacks and orders.
    found = [f"{name}:{node.lineno} {node.name}" for name, node in nodes(SOURCES)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for call in ast.walk(node) if isinstance(call, ast.Call)
             if node.name == (call.func.id if isinstance(call.func, ast.Name)
                              else getattr(call.func, "attr", None))]
    assert SOURCES and found == []


def functions(body):
    """The functions and methods defined in a module or class body,
    without those nested in a function."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from functions(node.body)


def module_containers(tree) -> set:
    """Names a module binds to a dict, list or set at its top level."""
    made = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    names = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if (isinstance(value, made) or isinstance(value, ast.Call)
                and getattr(value.func, "id", None) in {"dict", "list", "set"}):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def container_writes(func):
    """(name, line) of every write in func to a container reached by a
    name: a subscript assigned or deleted, an augmented assignment, or a
    call of a mutating method.  Names func binds itself, unless declared
    global, are dropped."""
    mutators = {"append", "add", "update", "setdefault", "clear", "pop"}

    def root(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    glob, bound = set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            glob.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            name = root(node)
        elif isinstance(node, ast.AugAssign):
            name = root(node.target)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in mutators):
            name = root(node.func.value)
        else:
            continue
        if name is not None and (name in glob or name not in bound):
            yield name, node.lineno


def test_no_engine_memo_outlives_a_call():
    # A memo that outlives a call makes the benchmark's repeated passes
    # measure a different program from the first, and grows for the life
    # of a process.  Memos made for one call, or kept on one object
    # (``cached_property``), are fine; a dict, list or set at module level
    # that an engine function writes to is such a memo.
    memos = {"lru_cache", "cache"}
    found = [f"{name}:{node.lineno}" for name, node in nodes(SOURCES)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             and any(alias.name in memos for alias in node.names)
             or isinstance(node, ast.Attribute) and node.attr in memos
             and getattr(node.value, "id", None) == "functools"]
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        shared = module_containers(tree)
        found += [f"{path.name}:{line} writes {name}"
                  for func in functions(tree.body)
                  for name, line in sorted(set(container_writes(func)))
                  if name in shared]
    assert SOURCES and found == []


def test_only_one_decorator_pauses_the_collector():
    # ``diagram._paused`` puts the caller's collector state back on
    # return and on raise; a ``gc.disable`` or ``gc.enable`` anywhere
    # else in the engine could leave the collector off behind an entry
    # point.  ``gc`` is imported under its own name, and its functions
    # are not imported alone, so that every such call is seen here.
    inside, outside = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        paused = {id(node) for func in functions(tree.body)
                  if path.name == "diagram.py" and func.name == "_paused"
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in {"disable", "enable"}
                    and getattr(node.value, "id", None) == "gc"
                    or isinstance(node, ast.ImportFrom) and node.module == "gc"
                    or isinstance(node, ast.Import)
                    and any(a.name == "gc" and a.asname for a in node.names)):
                (inside if id(node) in paused else outside).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 2 and outside == []


def test_only_the_walk_graph_and_live_read_the_cells():
    # The cell test, whether two traversals share a cell, lives in
    # ``diagram._live`` and ``diagram._walk_graph`` alone: a new walker
    # reads the successor lists that ``_walk_graph`` builds instead of
    # building its own.  ``_freeze`` stores the cell lists and reads none;
    # a read outside every function is named by its line.
    readers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        reads = {id(node): node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in {"_c0", "_c1"}
                 and isinstance(node.ctx, ast.Load)}
        for func in functions(tree.body):
            inside = [id(node) for node in ast.walk(func) if id(node) in reads]
            if inside:
                readers.append(f"{path.name}:{func.name}")
            for key in inside:
                del reads[key]
        readers += [f"{path.name}:{line}" for line in reads.values()]
    assert sorted(readers) == ["diagram.py:_live", "diagram.py:_walk_graph"]
