"""The benchmark tracer's targets name live library attributes.

``perfbench/tracer.py`` wraps every ``(module, class, attribute)`` in its
``TARGETS`` and resolves each one with ``getattr`` when it installs, so a
renamed or deleted function breaks every traced benchmark run.  The file is
read with ``ast`` only: nothing of the benchmark is imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [tuple(ast.literal_eval(e) for e in row.elts[:3]) for row in node.value.elts]
    raise AssertionError("perfbench/tracer.py assigns no TARGETS")


def test_every_tracer_target_resolves_in_latslice():
    targets = _targets()
    assert targets
    missing = []
    for mod_name, cls_name, attr in targets:
        owner = importlib.import_module(mod_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(".".join(filter(None, (mod_name, cls_name, attr))))
    assert missing == []
