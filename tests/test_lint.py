import ast
import importlib
import inspect
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
