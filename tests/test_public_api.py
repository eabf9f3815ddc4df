"""Every exported name is used by the system or documented.

A name in loewy.__all__ passes when it is referenced as a name or an
attribute (not in a string, not in an import) in a package module other
than __init__.py, outside its own def or class; or referenced the same
way in the benchmark scripts; or named in backticks in README.md.  Every
function the benchmark tracer wraps must exist, where it looks for it.
"""

import ast
import importlib.util
import re
from pathlib import Path

import loewy

ROOT = Path(__file__).resolve().parents[1]


def _references(path: Path) -> set[str]:
    """Names and attributes referenced in a file, each outside the def or
    class that defines it."""
    found: set[str] = set()

    def visit(node, enclosing: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def _readme_names() -> set[str]:
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return {word for span in spans for word in re.findall(r"\w+", span)}


def test_every_exported_name_is_used_or_documented():
    used = set()
    for path in sorted((ROOT / "src" / "loewy").glob("*.py")):
        if path.name != "__init__.py":
            used |= _references(path)
    for path in sorted((ROOT / "bench").glob("*.py")):
        used |= _references(path)
    documented = _readme_names()
    exported = [name for name in loewy.__all__ if name != "__version__"]
    orphans = [name for name in exported if name not in used | documented]
    assert not orphans, f"exported, but neither used nor named in README.md: {orphans}"


def test_references_skip_strings_imports_and_own_definition(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from x import imported\n"
        "def own():\n"
        "    return own()\n"
        "def other():\n"
        "    return called(), obj.attr, 'in_string'\n"
    )
    assert _references(source) == {"called", "obj", "attr"}


def test_every_benchmark_trace_target_exists():
    # bench/spans.py reads each target with vars(owner)[attr] in
    # Tracer.install, so a deleted name breaks `bench/run.py --trace 1`.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod_name, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"loewy.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = vars(owner).get(part)
        if owner is None or attr not in vars(owner):
            missing.append(f"loewy.{mod_name}.{path}")
    assert not missing, f"traced by bench/spans.py, but missing: {missing}"
