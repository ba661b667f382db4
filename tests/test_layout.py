"""src/sasaklab holds the code the CLI runs: every function and class
defined there is referenced somewhere in src/ besides its definition,
every constant of the tolerance ledger is read outside it, and no file
names numpy's random module (``vecops.uniforms`` draws every stream)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sasaklab"

# perfbench/ imports or patches this one, and src/ has no caller for it
KEPT_FOR_PERFBENCH = {"reduction.newton_project"}


def unreferenced_definitions():
    """Module-level functions and classes, and non-dunder methods, whose
    name no Name, Attribute or import in src/ mentions."""
    defs, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defs.extend((path.stem, f"{node.name}.{sub.name}") for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return {f"{mod}.{name}" for mod, name in defs if name.rsplit(".", 1)[-1] not in refs}


def test_every_definition_in_src_has_a_caller_in_src():
    assert unreferenced_definitions() == KEPT_FOR_PERFBENCH


def unread_tolerances():
    """Module-level constants of tolerances.py that no other module of
    src/ reads, as ``tolerances.NAME`` or by a ``from .tolerances`` import."""
    tree = ast.parse((SRC / "tolerances.py").read_text(encoding="utf-8"))
    names = {t.id for node in tree.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "tolerances":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "tolerances"):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "tolerances":
                read.update(alias.name for alias in node.names)
    return names - read


def test_every_tolerance_is_read_in_src():
    assert unread_tolerances() == set()


def test_no_file_in_src_names_numpy_random():
    named = [str(path.relative_to(SRC.parent)) for path in sorted(SRC.parent.rglob("*"))
             if path.is_file() and "__pycache__" not in path.parts
             and any(w in path.read_bytes() for w in (b"np.random", b"numpy.random"))]
    assert named == []
