"""Every function and method the benchmark's tracer wraps still exists.

perfbench/tracer.py names its layers as (module, attribute path) strings; a
refactor that deletes or renames one of them should fail here, not in a
benchmark run."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_resolves():
    layers = _load_tracer().LAYERS
    assert layers
    missing = []
    for (module, path, _) in layers:
        owner = importlib.import_module("wdcolor." + module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append("%s.%s" % (module, path))
                break
        else:
            if not callable(owner):
                missing.append("%s.%s (not callable)" % (module, path))
    assert missing == []
