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


def _code_uses(tree):
    """(line, identifier) for every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rpartition(".")[2]


def _name_uses(path):
    """(line, identifier) for every name, attribute, imported name and word of a non-docstring string."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    yield from _code_uses(tree)
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
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


# Public names that nothing in src/ reads outside ecss/__init__.py and their own definition: each is a
# paper quantity or acceptance criterion, or the benchmark harness reads it.  A new one is a reviewed decision.
NO_SRC_CALLER = {
    "bad_count_bracket": "perfbench/checks.py brackets the badpairs f against it",
    "brute_force_bad_wrt_first": "criterion 3, f_s(r) by enumeration; perfbench/traced_job.py spans it",
    "windows_distinct": "the paper's distinct-window hypothesis for any bit source; perfbench/traced_job.py spans it",
    "ec_subset_sum": "the generator term sum_j u(n+j) P_j at one n; perfbench/traced_job.py spans it",
    "ec_subset_sum_stream": "the generator's points V(1..N); perfbench/traced_job.py spans it",
    "bound_crossover": "criterion 10, the N where the window-pair bound beats El Mahassni's",
    "slope_fit": "criterion 9, the decay slope of the mean discrepancy in N",
    "additive_character": "the additive character e_m(z) = exp(2 pi i z / m)",
    "orthogonality_sum": "criterion 7, the orthogonality relation of e_m",
    "dirichlet_l1": "criterion 7, the L1 norm of the Dirichlet kernel, O(m log m)",
    "koksma_szusz_rhs": "the Koksma-Szusz inequality, which bounds the discrepancy by character sums",
    "curve_x_char_sum": "criterion 6, the shifted sum under Bombieri's bound; perfbench/checks.py reads it",
    "avg_square_sum_over_weights": "the weight-space mean square of the curve sum; perfbench/libcall.py calls it",
}


def _defined_names(node):
    """The names a module-level statement binds by a def, a class or a plain assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_public_name_has_a_src_reader_or_a_reason():
    import ecss

    exported = {name for names in ecss._EXPORTS.values() for name in names.split()}
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted((SRC / "ecss").glob("*.py")) if path.name != "__init__.py"}
    spans = {name: (path, node.lineno, node.end_lineno)  # where each name is defined
             for path, tree in trees.items() for node in tree.body for name in _defined_names(node)}
    assert exported <= set(spans)
    read = {
        word
        for path, tree in trees.items()
        for line, word in _code_uses(tree)
        if word in exported and not (spans[word][0] == path and spans[word][1] <= line <= spans[word][2])
    }
    assert exported - read == set(NO_SRC_CALLER)
