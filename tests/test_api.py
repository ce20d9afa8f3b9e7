import re
import types
from pathlib import Path

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
    assert {"hasse_diagram", "fibonacci_cube", "power_patterns"} <= namespace.keys()
    assert not {"PosetDiagram", "diagram_as_graph", "same_labeled_graph"} & namespace.keys()
    assert len(namespace) == 38


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block and "import indcubes" in block.group(1)
    exec(compile(block.group(1), "README.md", "exec"), {})
