"""Names that callers outside the package rely on: the benchmark's tracing
hooks and the library example in README.md."""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import cacheshare

ROOT = Path(__file__).resolve().parent.parent


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """`bench/run.py --trace 1` wraps these attributes by name; a deleted or
    renamed one would break the traced run while the rest of tier 1 passes."""
    spans = _bench_spans()
    hooks = [(module, attribute) for module, attribute, _ in spans.SPANNED + spans.COUNTED]
    # the yield counter, the `sim.deliver` span's bit count, and the rebindings
    # the benchmark self-tests assert on
    hooks += [
        ("cacheshare.model", "enumerate_demands"),
        ("cacheshare.sim", "DeliveryTranscript.total_bits"),
        ("cacheshare.sim", "build_scheme_tradeoff"),
        ("cacheshare.sim", "concat"),
    ]
    for module_name, attribute in hooks:
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
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.compile(r"```python\n(.*?)```", re.DOTALL).search(
        text, text.index("## Library use")
    )
    assert block is not None, "no python block under '## Library use'"
    # pad with blank lines so a traceback names the README's own line numbers
    code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    monkeypatch.chdir(ROOT)  # the example loads a shipped config by relative path
    exec(compile(code, "README.md", "exec"), {})
