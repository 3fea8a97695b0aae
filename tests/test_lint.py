import ast
import importlib
import inspect
import re
import typing
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    # Invariants are checked with explicit raises: `python -O` strips assert statements.
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.rglob("*.py"))) >= 10 and offenders == []


# Every import of another module's private name, as (importer, module, name).
# A new coupling to a private helper is a reviewed decision: add it here.
PRIVATE_IMPORTS = {
    ("experiments", "discrepancy", "_exact_extreme"),
    ("experiments", "generator", "_lane_sums"),
    ("expsum", "curve", "_root_counts_by_a"),
}


def test_private_imports_match_the_allowlist():
    paths = sorted((SRC / "ecss").glob("*.py"))
    found = {
        (path.stem, (node.module or "").removeprefix("ecss."), alias.name)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ecss"))
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert len(paths) >= 10 and found == PRIVATE_IMPORTS


def test_annotations_resolve():
    # typing.get_type_hints raises NameError on an annotation naming a type its module does not bind.
    unresolved = []
    for path in sorted((SRC / "ecss").glob("*.py")):
        module = importlib.import_module(f"ecss.{path.stem}".removesuffix(".__init__"))
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            for attr, member in vars(value).items() if inspect.isclass(value) else [("", value)]:
                member = getattr(member, "__func__", getattr(member, "fget", member))  # methods, properties
                if inspect.isfunction(member):
                    try:
                        typing.get_type_hints(member)
                    except NameError as exc:
                        unresolved.append(f"{module.__name__}.{name}.{attr}: {exc}")
    assert unresolved == []


def _docstrings(tree):
    """The string nodes that are docstrings of the module, a class or a function."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }


def _name_uses(path):
    """(line, identifier) for every name, attribute, imported name and word of a non-docstring string."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            # traced_job spans names given as strings, and ecss/__init__ maps its lazy names from strings
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                yield node.lineno, word


def test_every_module_level_name_has_a_reader():
    # A function or class in src/ecss that nothing in src/, tests/ or perfbench/ names is dead code.
    root = SRC.parent
    uses = {}  # identifier -> {(path, line)}
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")):
        for line, word in _name_uses(path):
            uses.setdefault(word, set()).add((path, line))
    definitions = [
        (path, node)
        for path in sorted((SRC / "ecss").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    unread = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path, node in definitions
        if not any(where != path or not node.lineno <= line <= node.end_lineno
                   for where, line in uses.get(node.name, ()))
    ]
    assert len(definitions) >= 100 and unread == []
