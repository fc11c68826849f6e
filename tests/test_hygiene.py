"""Leftovers in the package source, found by ``ast``: an import a module no
longer uses, a module-level private helper nothing calls any more, and a
docstring or a README code span that names a private name the source no
longer has."""

import ast
import re
from pathlib import Path

import idemfree

MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(Path(idemfree.__file__).parent.glob("*.py"))}
README = Path(__file__).parents[1] / "README.md"


def _imported(tree):
    """The names a module binds by its imports, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _loaded(tree):
    """Each name read in the module, with the line it is read on: a bare
    name, an attribute of anything, or a name imported from elsewhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _private_definitions(tree):
    """Each module-level name _x the module defines, with the lines of its
    definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, range(node.lineno, node.end_lineno + 1)


def test_every_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__.py":  # it imports to re-export
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{module}: {name}" for name in _imported(tree) if name not in read]
    assert unused == []


def test_every_private_module_name_is_used():
    reads = {module: list(_loaded(tree)) for module, tree in MODULES.items()}
    unused = []
    for module, tree in MODULES.items():
        for name, lines in _private_definitions(tree):
            if not any(
                read == name and not (other == module and line in lines)
                for other, found in reads.items()
                for read, line in found
            ):
                unused.append(f"{module}: {name}")
    assert unused == []


def _docstrings(tree):
    """The module's docstring and each of its functions' and classes'."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def _named(tree):
    """Each name the module defines or reads: a def, a class, a bare name,
    assigned or read, or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _missing_private(refs, named):
    """Each reference whose dotted name, read up to the first character
    that is neither a word character nor a dot, ends in a private name, not
    a dunder, that is not in named."""
    for ref in refs:
        last = re.match(r"[\w.]*", ref).group().rpartition(".")[2]
        if re.fullmatch(r"_(?!_)\w+", last) and last not in named:
            yield ref


def test_docstrings_name_no_missing_private_name():
    # a double-backticked reference such as ``constants._walk`` or
    # ``construct._block(comp, offset, total)`` must still name something in
    # the source
    named = {name for tree in MODULES.values() for name in _named(tree)}
    stale = [
        f"{module}: {ref}"
        for module, tree in MODULES.items()
        for doc in _docstrings(tree)
        for ref in _missing_private(re.findall(r"``([^`]+)``", doc), named)
    ]
    assert stale == []


def test_readme_names_no_missing_private_name():
    # the same for the README's backticked code spans, its fenced blocks
    # aside, so that a helper that leaves the source leaves the README too;
    # outside the fences the backticks pair up
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    refs = re.findall(r"`([^`]+)`", text)
    assert refs and text.count("`") % 2 == 0
    named = {name for tree in MODULES.values() for name in _named(tree)}
    assert list(_missing_private(refs, named)) == []


def test_verify_docstring_names_every_memo_kind():
    # each string that opens a key passed to ``verify._memo`` names a kind
    # of memo entry, and the module docstring, which says what the memo
    # keeps, names each in double quotes
    tree = MODULES["verify.py"]
    kinds = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_memo":
            key = node.args[1]
            if isinstance(key, ast.Tuple) and isinstance(key.elts[0], ast.Constant) and isinstance(key.elts[0].value, str):
                kinds.add(key.elts[0].value)
    doc = ast.get_docstring(tree)
    assert "part" in kinds
    assert sorted(kind for kind in kinds if f'"{kind}"' not in doc) == []
