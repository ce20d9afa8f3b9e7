import types

import indcubes


def test_star_import_is_every_public_import_and_no_module():
    namespace = {}
    exec("from indcubes import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == indcubes.__all__
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert all(value is getattr(indcubes, name) for name, value in namespace.items())
    # one name from each submodule, and the README's key entry points
    assert {"VertexSubset", "CapacityError", "path_count", "indices_to_subset"} <= namespace.keys()
    assert {"hasse_diagram", "same_labeled_graph", "power_patterns"} <= namespace.keys()
    assert len(namespace) == 41
