"""The benchmark's layer hooks name callables that exist in crowdrisk.

`perfbench/spans.py` wraps crowdrisk functions by name, and skips a name
that no longer resolves, so its per-layer metrics for that layer read null.
A refactor that drops or renames a hooked function fails here instead.
"""

from __future__ import annotations

import importlib
import os
import sys
import types

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


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
