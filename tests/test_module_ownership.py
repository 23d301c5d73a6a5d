"""Each module of the package owns its underscore names: no other module
imports one or reads one as an attribute, at module level or inside a
function."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gencube"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _target(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from, or None for the package
    itself (``from . import lp``) and for modules outside the package."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("gencube."):
        return node.module.split(".", 1)[1]
    return None


def foreign_private_uses(source: str, module: str) -> list[str]:
    """Every import of another package module's underscore name, and every
    attribute read of one through a name bound to that module."""
    tree = ast.parse(source)
    bound, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _target(node)
            for alias in node.names:
                if target is None and (node.level == 1 or node.module == "gencube"):
                    if alias.name in MODULES:
                        bound[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        uses.append(f"line {node.lineno}: imports gencube.{alias.name}")
                elif target is not None and target != module and _private(alias.name):
                    uses.append(f"line {node.lineno}: imports {target}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gencube.") and alias.asname:
                    bound[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and bound.get(node.value.id, module) != module and _private(node.attr)):
            uses.append(f"line {node.lineno}: reads {bound[node.value.id]}.{node.attr}")
    return uses


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert foreign_private_uses(path.read_text(), path.stem) == []


def test_the_scan_sees_every_form():
    source = (
        "from .pauli import _PP2\n"
        "from gencube.lp import _S as s\n"
        "from . import lp, _private_module\n"
        "import gencube.spaces as sp\n"
        "def f():\n"
        "    from .simulator import _pair_maps\n"
        "    return lp._VMAT_UNIT, sp._BIT_WEIGHTS, lp.facet_table, _PP2.__class__\n"
    )
    assert foreign_private_uses(source, "gates") == [
        "line 1: imports pauli._PP2",
        "line 2: imports lp._S",
        "line 3: imports gencube._private_module",
        "line 6: imports simulator._pair_maps",
        "line 7: reads lp._VMAT_UNIT",
        "line 7: reads spaces._BIT_WEIGHTS",
    ]
    # a module's own names are its own
    assert foreign_private_uses("from .pauli import _PP2\n", "pauli") == []


# The dense reference is the independent check of the HN sampler: it reads
# no name of the coefficient or sampler side
DENSE_FUNCTIONS = ("simulate_dense", "_noise_weights", "_frozen", "_csign_basis", "_prep_basis",
                   "_clifford_transfer", "_projector_transfer", "_transfer_matrix",
                   "_dense_plan", "_op_qubits")
SAMPLER_SIDE = {"noise_scale_matrix", "conjugation_matrix", "csign", "CLIFFORD_ACTIONS",
                "_CLIFFORD_PERMS", "_CLIFFORD_XORS", "_apply_clifford", "_collapse",
                "_pair_maps", "cube_separable", "slack", "certificates_hold", "lp"}
SAMPLER_PREFIXES = ("pipeline", "_gate_")


def package_imports(source: str) -> list[str]:
    """Every import of the package or of one of its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "gencube"):
            found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "gencube"]
    return found


def sampler_names(source: str, functions) -> list[str]:
    """Every name or attribute of the sampler side read in the bodies of the
    given top-level functions."""
    found = []
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in functions:
            for node in ast.walk(fn):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name in SAMPLER_SIDE or (name or "").startswith(SAMPLER_PREFIXES):
                    found.append(f"{fn.name}, line {node.lineno}: {name}")
    return found


def test_dense_module_imports_nothing_from_the_package():
    assert package_imports((PACKAGE / "dense.py").read_text()) == []


def test_dense_reference_reads_nothing_of_the_sampler_side():
    source = (PACKAGE / "simulator.py").read_text()
    defined = {fn.name for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    assert set(DENSE_FUNCTIONS) <= defined
    assert sampler_names(source, DENSE_FUNCTIONS) == []


def test_the_dense_scans_see_every_form():
    assert package_imports("import numpy as np\nfrom .pauli import PAULIS\n"
                           "from . import lp\nimport gencube.gates\n"
                           "from gencube import simulator\n") == [
        "line 2: from .pauli", "line 3: from .", "line 4: import gencube.gates",
        "line 5: from gencube",
    ]
    source = (
        "def simulate_dense(c):\n"
        "    csigns = {}\n"
        "    return lp.vertex_product_matrix(), pipeline_rows(c), gates.CLIFFORD_ACTIONS\n"
        "def _noise_weights(n):\n"
        "    return _gate_table(slack)\n"
        "def other():\n"
        "    return csign\n"
    )
    # csigns is not csign, and other() is not a dense function
    assert sorted(sampler_names(source, DENSE_FUNCTIONS)) == [
        "_noise_weights, line 5: _gate_table", "_noise_weights, line 5: slack",
        "simulate_dense, line 3: CLIFFORD_ACTIONS", "simulate_dense, line 3: lp",
        "simulate_dense, line 3: pipeline_rows",
    ]
