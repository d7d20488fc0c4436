"""Static checks on the library sources in `src/wtnrank`."""
import ast
from pathlib import Path

import wtnrank as w

SRC = Path(w.__file__).resolve().parent
# the console-script entry: its `argv` default is for the command line
EXEMPT = {("cli.py", "main", "argv")}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    return any(name(d) == "dataclass" for d in cls.decorator_list)


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """(name, position among the call's positional arguments, or None for
    keyword-only) of each parameter of `fn` that has a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0  # self or cls
    first = len(positional) - len(args.defaults)
    params = [(a.arg, k - skip) for k, a in enumerate(positional) if k >= first]
    params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return params


def _field_params(cls: ast.ClassDef) -> list[tuple[str, int | None]]:
    """The dataclass fields of `cls` with a default, as constructor parameters."""
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return [(s.target.id, k) for k, s in enumerate(fields) if s.value is not None]


def _definitions(trees):
    """(file name, callable name, names calls reach it by, defaulted params)
    of every function, method and dataclass constructor in `trees`. A
    constructor is reached by its class name, an `__init__` also by
    `super().__init__`."""
    for file, tree in trees:
        methods = set()
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(fn)
                    callees = (cls.name, fn.name) if fn.name == "__init__" else (fn.name,)
                    yield file, f"{cls.name}.{fn.name}", callees, _defaulted(fn, True)
            if _is_dataclass(cls):
                yield file, cls.name, (cls.name,), _field_params(cls)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn not in methods:
                yield file, fn.name, (fn.name,), _defaulted(fn, False)


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in `trees`, by the name it calls: `f(...)` and `x.f(...)`
    both by `f`; `super().__init__` by `__init__`."""
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):  # **kwargs passes any
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position


def unpassed_defaults(trees) -> list[str]:
    """`file:callable(param)` for each defaulted parameter in `trees`, a list
    of (file name, module AST), that no call in them passes, by position or
    by keyword."""
    calls = _calls(trees)
    found = []
    for file, qualname, callees, params in _definitions(trees):
        sites = [call for callee in callees for call in calls.get(callee, [])]
        for name, position in params:
            if (file, qualname, name) in EXEMPT:
                continue
            if not any(_passes(call, name, position) for call in sites):
                found.append(f"{file}:{qualname}({name})")
    return found


def src_trees():
    """(file name, module AST) of every module in `src/wtnrank`."""
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(SRC.glob("*.py"))]


def test_every_default_is_overridden_somewhere_in_src():
    """A default that no caller in the library overrides is a parameter that
    only tests read: the variation belongs in the tests."""
    assert unpassed_defaults(src_trees()) == []


def _bound_names(node) -> list[str]:
    """The names a module-level statement defines: a function or class, or
    the plain names an assignment stores."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def private_definitions(trees) -> list[tuple[str, str]]:
    """(file name, name) of each module-level private function, class or
    assigned name."""
    return [
        (file, name) for file, tree in trees for node in tree.body for name in _bound_names(node)
        if name.startswith("_") and not name.startswith("__")
    ]


def unreferenced_privates(trees) -> list[str]:
    """`file:name` of each module-level private definition in `trees` that no
    name or attribute read, and no `from ... import`, in them refers to."""
    used = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{file}:{name}" for file, name in private_definitions(trees) if name not in used]


def test_every_private_definition_is_used_in_src():
    """A private helper or constant that the library no longer reads is dead
    code, even if a test still reads it."""
    assert private_definitions(src_trees())  # the scan sees the definitions
    assert unreferenced_privates(src_trees()) == []


SAMPLE = """
from dataclasses import dataclass

@dataclass
class Spec:
    name: str
    size: int = 1
    kind: str = "a"

class Codes:
    def __init__(self, width=2):
        self.width = width

    def code(self, raw, strip=True, *, upper=False):
        return raw

class Wider(Codes):
    def __init__(self):
        super().__init__(3)

def run(x, tol=1e-12, cap=10, **rest):
    Spec("s", kind="b")
    Codes().code("AA", False)
    return run(x, cap=5)

def main(argv=None):
    run(*argv)
"""


def test_the_scan_finds_each_unpassed_default():
    """Positions skip `self`; keywords, `super().__init__` and class names
    reach their targets; `*args` passes every position."""
    found = unpassed_defaults([("cli.py", ast.parse(SAMPLE))])
    assert found == ["cli.py:Spec(size)", "cli.py:Codes.code(upper)"]


PRIVATE_SAMPLE = """
from .other import _imported

_LIMIT = 3
_UNUSED: int = 4

class _Kept:
    pass

class _Dropped:
    pass

def _called():
    return _Kept()

def _read_as_attribute():
    pass

def _only_assigned():
    pass

def _recursive(n):
    return _recursive(n - 1)

def run(module):
    _only_assigned = None
    return _called(), module._read_as_attribute, _LIMIT

def __getattr__(name):
    raise AttributeError(name)
"""


def test_the_scan_finds_each_unreferenced_private():
    """Reads by name, by attribute and by import count as uses; a store does
    not; a function that only calls itself counts as used; dunders are
    exempt."""
    found = unreferenced_privates([("a.py", ast.parse(PRIVATE_SAMPLE))])
    assert found == ["a.py:_UNUSED", "a.py:_Dropped", "a.py:_only_assigned"]


def _written_number(node) -> bool:
    """A number spelled in the source: a numeric literal, signed or not, or
    an `inf` or `nan` name (`np.inf`, `math.nan`, a bare `inf`)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("inf", "nan")


def made_up_solver_counts(trees) -> list[str]:
    """`file:line` of each `ConvergenceError(...)` call in `trees` that passes
    a number spelled in the source as its iteration count or residual."""
    found = []
    for file, tree in trees:
        for call in _calls([(file, tree)]).get("ConvergenceError", []):
            counts = call.args[1:3] + [
                k.value for k in call.keywords if k.arg in ("iterations", "residual")
            ]
            if any(_written_number(value) for value in counts):
                found.append(f"{file}:{call.lineno}")
    return found


def test_no_convergence_error_passes_a_made_up_count():
    """Only an iterative solver has an iteration count and a residual to
    report; a direct solve names its own quantity in the message."""
    assert _calls(src_trees())["ConvergenceError"]  # the scan sees the raise sites
    assert made_up_solver_counts(src_trees()) == []


COUNTS_SAMPLE = """
def solve(it, residual):
    raise ConvergenceError("singular", 0, np.inf)
    raise errors.ConvergenceError("stalled", it, residual)
    raise ConvergenceError("cond", iterations=0, residual=condition)
    raise ConvergenceError("negative", it, -1.0)
    raise ConvergenceError("no counts")
    raise ConvergenceError("keywords", residual=residual, iterations=it)
    raise ConvergenceError("bare", it, inf)
"""


def test_the_scan_finds_each_made_up_count():
    """Positions and keywords both count; a name or an omitted count does not."""
    found = made_up_solver_counts([("a.py", ast.parse(COUNTS_SAMPLE))])
    assert found == ["a.py:3", "a.py:5", "a.py:6", "a.py:9"]
