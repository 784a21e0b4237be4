"""The package keeps only what it uses: every public module-level function
and class of `src/ramshift` is named somewhere other than its own
definition, in other code of the package, in a demo or in the benchmark
(whose tracer names its targets as strings, "Class.method").  Neither a
re-export in `__init__.py` nor a test counts as a use.  Likewise every
field of a public dataclass or `NamedTuple` is read, as an attribute or in
a dotted string, somewhere in those folders; passing it to the constructor
is no read."""

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
        found |= _dotted(n)
    return found


def _dotted(node: ast.AST) -> set[str]:
    """The identifiers a string constant spells, "Class.method" style."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if all(map(str.isidentifier, parts)):
            return set(parts)
    return set()


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


def _public_record(node: ast.AST) -> bool:
    """A public class built by `@dataclass` or as a `NamedTuple`."""
    if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
        return False
    marks = [ast.unparse(x) for x in node.bases + node.decorator_list]
    return any(mark == "NamedTuple" or mark.startswith("dataclass") for mark in marks)


def _reads(node: ast.AST) -> set[str]:
    """Every attribute `node` reads and every name it spells in a dotted
    string; a constructor keyword or an assignment is no read."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
        found |= _dotted(n)
    return found


def test_every_field_of_a_public_record_in_src_is_read():
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "demos", "benchmarks")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    fields, read = [], set()
    for path, tree in trees.items():
        read |= _reads(tree)
        if path.parent.name == "ramshift":
            fields += [(f"{path.stem}.{node.name}.{item.target.id}", item.target.id)
                       for node in tree.body if _public_record(node)
                       for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    unread = [name for name, field in fields if field not in read]
    assert not unread, f"record fields nothing in src, demos or benchmarks reads: {unread}"
