"""The package keeps only what it uses: every public module-level function
and class of `src/ramshift` is named somewhere other than its own
definition, in other code of the package, in a demo or in the benchmark
(whose tracer names its targets as strings, "Class.method").  Neither a
re-export in `__init__.py` nor a test counts as a use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names(node: ast.AST) -> set[str]:
    """Every identifier `node` reads, imports or spells as a dotted string."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(map(str.isidentifier, parts)):
                found.update(parts)
    return found


def test_every_public_name_in_src_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "demos", "benchmarks")
             for path in sorted((ROOT / folder).rglob("*.py")) if path.name != "__init__.py"}
    defined, used = [], set()
    for path, tree in trees.items():
        for node in tree.body:
            # a definition's own body may name it (a recursive call, a
            # method building its class); that is no use
            names = _names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if path.parent.name == "ramshift" and not node.name.startswith("_"):
                    defined.append(f"{path.stem}.{node.name}")
            used |= names
    unused = [name for name in defined if name.split(".")[1] not in used]
    assert not unused, f"public names nothing in src, demos or benchmarks names: {unused}"
