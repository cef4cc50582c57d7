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


def test_tracer_vacuity_hook_reads_the_check_arguments():
    """The tracer binds verify_weak_diameter's arguments by name (g, ell,
    bound, power, exact) and sizes the host from .vertices and .edges,
    also of graphs that induced() returns."""
    import inspect
    from fractions import Fraction

    from wdcolor import partition
    from wdcolor.graph import WeightedGraph, power_graph, power_graph_vertex_count

    tracer = _load_tracer()
    params = inspect.signature(partition.verify_weak_diameter).parameters
    assert {"g", "ell", "bound", "power", "exact"} <= set(params)

    g = WeightedGraph(range(5), [(i, i + 1, Fraction(5, 2)) for i in range(4)])
    h = g.induced([0, 1, 2, 4])
    assert h.vertices == (0, 1, 2, 4) and len(h.edges) == 2
    host = len(power_graph(h, 1).vertices)
    assert tracer._host_size(h, Fraction(1), None) == power_graph_vertex_count(h, 1) == host

    t = tracer.Tracer()
    before, _ = t._hooks("partition.verify_weak_diameter", partition.verify_weak_diameter)
    c = partition.Coloring.constant(range(host + 5), 1)
    before((h, 1, c), {"bound": host - 1, "exact": False})
    before((h, 1, c), {"bound": host - 2, "exact": False})
    before((h, 1, c), {"bound": host - 1})
    assert t.counts["verify.vacuous"] == 2
    assert t.counts["verify.skipped"] == 1


def test_tracer_sizes_far_part_views():
    """The adhesion recursion checks colourings on far-part views; the
    tracer's host size must read them as it reads the copies."""
    from fractions import Fraction

    from wdcolor.graph import WeightedGraph, power_graph_vertex_count
    from wdcolor.treedec import RootedTreeDecomposition, SubtreeIndex

    tracer = _load_tracer()
    g = WeightedGraph(range(6), [(i, i + 1, Fraction(5, 2)) for i in range(5)])
    td = RootedTreeDecomposition({i: {i, i + 1} for i in range(5)}, [(i, i + 1) for i in range(4)], 0)
    view, _ = SubtreeIndex(g, td).far_part(2, 5)
    copy = g.induced(td.subtree_vertices((1, 2)))
    assert tracer._host_size(view, Fraction(1), None) == power_graph_vertex_count(copy, 1)
    assert tracer._host_size(view, Fraction(3), None) == len(copy) == 4
