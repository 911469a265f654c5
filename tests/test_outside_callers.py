"""Names that callers outside the package rely on: the benchmark's tracing
hooks and the library example in README.md; and no exported name or
top-level definition without a caller."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import cacheshare

ROOT = Path(__file__).resolve().parent.parent


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_hooks() -> list[tuple[str, str]]:
    """(module, attribute) of every name `bench/run.py --trace 1` wraps or reads."""
    spans = _bench_spans()
    hooks = [(module, attribute) for module, attribute, _ in spans.SPANNED + spans.COUNTED]
    # the yield counter, the `sim.deliver` span's bit count, and the rebindings
    # the benchmark self-tests assert on
    return hooks + [
        ("cacheshare.model", "enumerate_demands"),
        ("cacheshare.sim", "DeliveryTranscript.total_bits"),
        ("cacheshare.sim", "build_scheme_tradeoff"),
        ("cacheshare.sim", "concat"),
    ]


def _readme_library_example() -> tuple[str, re.Match]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.compile(r"```python\n(.*?)```", re.DOTALL).search(
        text, text.index("## Library use")
    )
    assert block is not None, "no python block under '## Library use'"
    return text, block


def test_every_traced_name_resolves():
    """`bench/run.py --trace 1` wraps these attributes by name; a deleted or
    renamed one would break the traced run while the rest of tier 1 passes."""
    for module_name, attribute in _traced_hooks():
        owner = importlib.import_module(module_name)
        if "." in attribute:
            cls_name, attribute = attribute.split(".")
            owner = getattr(owner, cls_name)
            # methods are wrapped on the class that defines them
            assert attribute in vars(owner), (module_name, cls_name, attribute)
        else:
            assert callable(getattr(owner, attribute, None)), (module_name, attribute)
    sim = importlib.import_module("cacheshare.sim")
    assert sim.build_scheme_tradeoff is cacheshare.tradeoff.build_scheme_tradeoff
    assert sim.concat is cacheshare.bits.concat


def test_readme_library_example_runs(monkeypatch):
    text, block = _readme_library_example()
    # pad with blank lines so a traceback names the README's own line numbers
    code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    monkeypatch.chdir(ROOT)  # the example loads a shipped config by relative path
    exec(compile(code, "README.md", "exec"), {})


def _names_read_in_src() -> set[str]:
    """Every name or attribute read in a `cacheshare` module other than
    `__init__.py`, except inside the top-level statement that binds it, so
    that a function calling itself or a class naming itself does not count."""
    read = set()
    for path in (ROOT / "src" / "cacheshare").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = {statement.name}
            else:
                own = {
                    node.id
                    for node in ast.walk(statement)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                }
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            read |= names - own
    return read


def _callers() -> set[str]:
    """Every name read in `src/` outside its own definition, in the README
    library example, or by a benchmark tracing hook."""
    _, block = _readme_library_example()
    callers = _names_read_in_src() | set(re.findall(r"\w+", block.group(1)))
    return callers | {part for _, attribute in _traced_hooks() for part in attribute.split(".")}


def _registered(definition: ast.FunctionDef | ast.ClassDef) -> bool:
    """A CLI command, registered by its `_command(...)` decorator and called
    through the click group alone."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
        for d in definition.decorator_list
    )


def test_every_top_level_definition_has_a_caller():
    """No code without a caller: each top-level function, class and assigned
    name of a `cacheshare` module, private ones included, has a caller
    (`_callers`). `__init__.py` only re-exports: its names are the exported
    ones of the test below."""
    callers = _callers()
    uncalled = []
    for path in sorted((ROOT / "src" / "cacheshare").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [] if _registered(statement) else [statement.name]
            elif isinstance(statement, ast.Assign):
                names = [
                    node.id
                    for target in statement.targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name)
                ]
            else:
                continue
            uncalled += [f"{path.name}:{name}" for name in names if name not in callers]
    assert uncalled == []


def test_every_exported_name_has_a_caller():
    """No code without a caller: each name `cacheshare` exports, submodules
    aside, has a caller (`_callers`)."""
    callers = _callers()
    exported = [
        name
        for name in cacheshare.__all__
        if not isinstance(getattr(cacheshare, name), types.ModuleType)
    ]
    assert [name for name in exported if name not in callers] == []


def test_every_import_is_read():
    """No import without a reader: each name a `cacheshare` module other than
    `__init__.py` imports (`import a.b` binds `a`) is read in that module.
    `__init__.py` only re-exports; `from __future__` imports bind no name."""
    unread = []
    for path in sorted((ROOT / "src" / "cacheshare").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread += [f"{path.name}:{name}" for name in bound if name not in read]
    assert unread == []
