"""Every function or method in ``src/gentorus`` is read somewhere in
``src/gentorus`` outside its own body, or is allowed: a callable that the
benchmark's recorder (``perfbench/tracer.py``) wraps, a name that its
counters read, or the README's library surface.  Code that only tests use
belongs in ``tests/``.  The recorder is loaded with bytecode writing off.
"""

import ast
import importlib.util
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README_SURFACE = {("gentorus.spinor", "CliffordPoly.terms"), ("gentorus.fourier", "TruncationBox.modes")}


def _tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _counter_names(tracer):
    """The names that the counters read, through the recorder's helpers."""
    names, todo = set(), [measure for _, _, measure in tracer.COUNTERS.values()]
    while todo:
        for name in set(todo.pop().__code__.co_names) - names:
            names.add(name)
            if isinstance(vars(tracer).get(name), types.FunctionType):
                todo.append(vars(tracer)[name])
    return names


def _unreached(allowed, allowed_names):
    """``module.qualname`` of each function or method (dunders aside) whose
    name no other place in the package reads."""
    defs, reads = [], []
    for path in sorted((ROOT / "src" / "gentorus").glob("*.py")):
        module, tree = f"gentorus.{path.stem}", ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                reads.append((node.id if isinstance(node, ast.Name) else node.attr, module, node.lineno))
        todo = [(node, "") for node in tree.body]
        while todo:
            node, prefix = todo.pop()
            if isinstance(node, ast.ClassDef):
                todo += [(child, f"{prefix}{node.name}.") for child in node.body]
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defs.append((module, prefix + node.name, node.name, node.lineno, node.end_lineno))
    return sorted(
        f"{module}.{qualname}" for module, qualname, name, start, end in defs
        if (module, qualname) not in allowed and name not in allowed_names
        and not any(r == name and (m != module or not start <= line <= end) for r, m, line in reads)
    )


def test_every_library_function_is_reached_or_allowed(monkeypatch):
    tracer = _tracer(monkeypatch)
    allowed = {(module, path) for _, module, path in tracer.TARGETS} | README_SURFACE
    assert _unreached(allowed, _counter_names(tracer)) == []

