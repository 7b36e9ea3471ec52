"""Every definition in `src/pillarseg` is reached from the program.

A top-level function or class, or a public method, counts as reached when its
name appears as an identifier (a `Name`, an `Attribute` or an import alias,
never a string) somewhere in `src/` or in the benchmark's `perfbench/*.py`.
Tests do not count: code that only tests reach is deleted, or its scalar form
moves into the tests as an oracle. The check is by bare name, so it can miss
dead code that shares a name with live code, but it never flags live code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pillarseg"

# qualified name -> why it stays although nothing in the program names it
ALLOWED = {
    "losses.box_residuals": "detection head losses, waiting on the detection task",
    "losses.det_losses": "detection head losses, waiting on the detection task",
    "metrics.average_precision": "detection metric, waiting on the detection task",
    "occupancy.traverse_cells_2d": "the tests' one-ray view of the batched traversal",
}


def definitions() -> dict[str, str]:
    """Qualified name -> bare name of every top-level function and class and
    every public method of a top-level class."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            out[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not item.name.startswith("_"):
                        out[f"{module}.{node.name}.{item.name}"] = item.name
    return out


def identifiers() -> set[str]:
    """Every identifier that program code names."""
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname:
                    names.add(node.asname)
    return names


def test_every_definition_is_reached():
    used = identifiers()
    unreached = {qual for qual, name in definitions().items() if name not in used}
    assert sorted(unreached - set(ALLOWED)) == [], "defined but named nowhere in the program"
    # an entry whose name the program now reaches, or that is gone, leaves the list
    assert sorted(set(ALLOWED) - unreached) == [], "allowed but reached or not defined"
