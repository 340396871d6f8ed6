"""Guard against dead public names and dead fields: every public top-level
function or class of the package, and every field of its dataclasses, must
have a reader, so that API nothing calls is deleted rather than kept."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricfans"

#: the paper's objects, kept without a caller in src/ or perfbench/:
#: relation decomposition, the certificate's numeric instantiation and base
#: term, the flip undoing a flip, -K . C
KEEP = {
    "decompose_relation",
    "evaluate_certificate",
    "base_value",
    "reverse_spec",
    "anticanonical_degree",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(paths):
    """Every identifier read as a name or an attribute in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _traced():
    """The function names in perfbench/spans.py's TRACED, read without
    running the file."""
    for node in _parse(ROOT / "perfbench" / "spans.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return {name for funcs in ast.literal_eval(node.value).values() for name in funcs}
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_every_public_name_has_a_reader():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    public = {
        node.name: path.name
        for path in modules
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert KEEP <= set(public), "a deleted name is still on the keep-list"
    alive = _referenced(list(PACKAGE.glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))) | _traced() | KEEP
    dead = sorted(f"{module}:{name}" for name, module in public.items() if name not in alive)
    assert not dead, f"public names that nothing in the package or perfbench reads: {dead}"


def _is_dataclass(node):
    return any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)


def test_every_dataclass_field_has_a_reader():
    """Fields are matched by name: a field counts as read when an attribute
    of that name is read anywhere, so one that shares its name with a field
    of another class can go unnoticed."""
    fields = {
        f"{node.name}.{item.target.id}": item.target.id
        for path in PACKAGE.glob("*.py")
        for node in _parse(path).body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }
    read = {
        node.attr
        for path in list(PACKAGE.glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute)
    }
    unread = sorted(name for name, field in fields.items() if field not in read)
    assert not unread, f"dataclass fields that nothing in the package or perfbench reads: {unread}"


#: modules whose import would bring floats, randomness or wall-clock time
#: into the package
INEXACT_MODULES = {"random", "numpy", "time"}


def _inexact(node):
    """What in this node breaks the exact-arithmetic rule, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return "float literal"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float() call"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        modules = [node.module]
    else:
        return None
    banned = [m for m in modules if m.split(".")[0] in INEXACT_MODULES]
    return f"import of {banned[0]}" if banned else None


def test_arithmetic_is_exact():
    # integers and Fractions only, and nothing that varies between runs
    found = sorted(
        f"{path.name}:{node.lineno}: {what}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(_parse(path))
        if (what := _inexact(node))
    )
    assert not found, f"inexact or nondeterministic code in the package: {found}"
