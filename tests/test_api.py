import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import indcubes
from indcubes import cli


def readme_block(heading, language):
    """The first `language` code block under the README's `## heading`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


#: The commands of the README's CLI block, each as argv, continued lines joined.
CLI_COMMANDS = [
    shlex.split(line, comments=True)
    for line in readme_block("CLI", "sh").replace("\\\n", " ").splitlines()
]


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
    assert not {"HFibSequence", "hamming"} & namespace.keys()
    assert len(namespace) == 36


SUBMODULES = ("indcubes.counting", "indcubes.cubes", "indcubes.graphs")


def test_every_public_name_is_the_object_its_submodule_defines():
    for name in indcubes.__all__:
        value = getattr(indcubes, name)
        assert value.__module__ in SUBMODULES, name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_dir_lists_every_public_name():
    assert set(indcubes.__all__) <= set(dir(indcubes))


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        indcubes.no_such_name  # noqa: B018


def test_package_import_loads_submodules_on_first_use():
    """`import indcubes` loads no submodule; a public name loads its own
    submodule (and what that one imports) when it is first read."""
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return ' '.join(sorted(m for m in sys.modules if m.startswith('indcubes.')))\n"
        "import indcubes\n"
        "print(loaded())\n"
        "indcubes.power_path\n"
        "print(loaded())\n"
        "indcubes.path_count\n"
        "print(loaded())\n"
    )
    src = str(Path(indcubes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["", "indcubes.graphs", "indcubes.counting indcubes.graphs", ""]


def test_readme_library_block_runs():
    block = readme_block("Library", "python")
    assert "import indcubes" in block
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=" ".join)
def test_readme_cli_block_runs(argv, capsys):
    """Each command of the README's CLI block exits 0 with output. A `verify`
    line is only parsed: running both takes seconds, and CI runs `verify`."""
    assert argv[0] == "indcubes"
    if argv[1] == "verify":
        assert cli.build_parser().parse_args(argv[1:]).command == "verify"
    else:
        assert cli.main(argv[1:]) == 0
        assert capsys.readouterr().out
