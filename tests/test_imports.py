"""Every name a package module imports, and every parameter a function or
lambda of it takes, is used in that module; every module-level private name
of the package is read somewhere in it, every module-level public def or
class is read by the package outside its own body or exported by __all__, and
no module raises the base class QBaxterError itself."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qbaxter"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    """Names bound by an import statement of the module and never read in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def unused_parameters(source):
    """"function:parameter" for each parameter that its function or lambda never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{getattr(node, 'name', 'lambda')}:{p}" for p in params if p not in read]
    return out


def private_definitions(tree):
    """Module-level private names (_name, not __name__) that a def, class or
    assignment of the module binds."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def names_read(node):
    """Names that node reads, as a name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def unread_private_names(sources):
    """"module:name" for each module-level private name of the given
    {module: source} that no module reads, as a name or as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return [f"{module}:{name}" for module, tree in trees.items()
            for name in private_definitions(tree) if name not in read]


def unread_public_names(sources):
    """"module:name" for each module-level public def or class of the given
    {module: source} that no module-level statement but its own definition
    reads, and that the "__init__" module's __all__ does not export."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    exported = set()
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    reads = [(stmt, names_read(stmt)) for tree in trees.values() for stmt in tree.body]
    return [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in exported
            and not any(node.name in read for stmt, read in reads if stmt is not node)]


def bare_base_raises(source):
    """Line numbers of the raise statements that raise QBaxterError itself, by
    name or as an attribute, called or not."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "QBaxterError":
                lines.append(node.lineno)
    return lines


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_unused_parameter_detector():
    source = ("def f(a, b, *c, d=1, **e):\n"
              "    b = 2\n"
              "    return (lambda x, y: a + x)(c, d)\n")
    assert unused_parameters(source) == ["f:b", "f:e", "lambda:y"]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert sum(len(private_definitions(ast.parse(s))) for s in sources.values()) >= 30
    assert unread_private_names(sources) == []


def test_unread_private_name_detector():
    sources = {"a": "_K = 1\n_L: int = 2\n__all__ = []\ndef _f(): return _K\nclass _C: pass\n",
               "b": "from . import a\nx = a._C\n"}
    assert unread_private_names(sources) == ["a:_L", "a:_f"]


def test_no_unread_public_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert sum(isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
               for s in sources.values() for node in ast.parse(s).body) >= 50
    assert unread_public_names(sources) == []


def test_unread_public_name_detector():
    sources = {"__init__": "from .a import C\n__all__ = ['C']\n",
               "a": ("def f(n):\n    return f(n - 1)\n"
                     "def g(): pass\n"
                     "class C: pass\n"
                     "class D:\n    def make(self): return D()\n"
                     "def h(): pass\n"),
               "b": "from . import a\nx = a.g\n"}
    assert unread_public_names(sources) == ["a:f", "a:D", "a:h"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_base_error_raised(path):
    # every failure names its kind: a subclass of QBaxterError
    assert bare_base_raises(path.read_text(encoding="utf-8")) == []


def test_bare_base_raise_detector():
    source = ("def f(x):\n"
              "    if x: raise QBaxterError('a')\n"
              "    if x > 1: raise errors.QBaxterError\n"
              "    if x > 2: raise ParameterDomainError('b')\n"
              "    raise\n")
    assert bare_base_raises(source) == [2, 3]
