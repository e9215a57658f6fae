"""The benchmark's layer hooks name callables that exist in crowdrisk.

`perfbench/spans.py` wraps crowdrisk functions by name, and skips a name
that no longer resolves, so its per-layer metrics for that layer read null.
Its counters also read the arguments and results of the hooked calls, and
read null when one of those loses the shape they read.  A refactor that
drops or renames a hooked function, or reshapes what a counter reads,
fails here instead.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DATA = os.path.join(os.path.dirname(__file__), "data")
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def _hook_targets() -> list[str]:
    """The `module:attr` targets of spans.HOOKS, read without importing or caching the file."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = SPANS
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    try:
        with open(SPANS, encoding="utf-8") as fh:
            exec(compile(fh.read(), SPANS, "exec"), module.__dict__)  # noqa: S102 - the repo's own file
    finally:
        del sys.modules[module.__name__]
    return [hook.target for hook in module.HOOKS]


@pytest.mark.parametrize("target", _hook_targets())
def test_hook_target_resolves_to_callable(target):
    module_name, attr_path = target.split(":")
    owner = importlib.import_module(module_name)
    for name in attr_path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_traced_run_reads_every_layer_metric(tmp_path):
    """One traced benchmark child on the bundled sequence: no layer metric is null."""
    child = os.path.join(ROOT, "perfbench", "child.py")
    argv = [sys.executable, child, ROOT, os.path.join(DATA, "synthetic.cfg"),
            os.path.join(DATA, "synthetic_300.det"), "mot",
            str(tmp_path / "out"), str(tmp_path / "rerender"), "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout)["layers"]
    assert [name for name, value in layers.items() if value is None] == []
