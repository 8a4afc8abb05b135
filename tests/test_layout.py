"""Module ownership rules of src/wglab, checked on each file's syntax tree.

Only cli serializes JSON, and nothing in the package parses it back; only
majorant packs binary layouts; only local_structure computes the power
map t^k mod m, which every other reader takes from power_residues; only
bitsets packs bits, so the primes stay one byte mask; np.cos and np.sin
are named only in spectral._cos_sin, which the product path's factored
phase tables call on a few exact numerators; spectral and majorant find a
sequence's support only through majorant.support_index; matrix products,
the package's BLAS calls, are made only in spectral._half_grid_product and
spectral._dirichlet_block, so one rule sizes them; each FFT has one call
site: np.fft.rfft in spectral._padded_rfft, np.fft.irfft in
representation._convolve and np.fft.ifft in representation._window_inverse.
"""

import ast
from functools import partial
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wglab"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _imported(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def _names(tree) -> set[str]:
    """Every identifier the module names: variables, attributes, imported
    names and definitions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_modules_found():
    assert {"cli", "majorant", "local_structure", "spectral"} <= set(MODULES)


@pytest.mark.parametrize("module, owner", [("json", "cli"), ("struct", "majorant")])
def test_one_importer(module, owner):
    assert [name for name, tree in MODULES.items() if module in _imported(tree)] == [owner]


def test_power_map_named_only_by_its_owner():
    named = [name for name, tree in MODULES.items() if "_vector_pow_mod" in _names(tree)]
    assert named == ["local_structure"]


def test_bit_packing_only_in_bitsets():
    calls = {"packbits", "unpackbits"}
    assert [name for name, tree in MODULES.items() if calls & _names(tree)] == ["bitsets"]


def _parses_json(node) -> bool:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "json" and node.attr in ("load", "loads")
    if isinstance(node, ast.ImportFrom) and node.module == "json":
        return bool({"load", "loads"} & {alias.name for alias in node.names})
    return False


def test_no_json_parsing():
    assert [name for name, tree in MODULES.items() if any(map(_parses_json, ast.walk(tree)))] == []


def _sites(tree, match) -> list[str | None]:
    """The enclosing function (None at module level) of each node of the
    module that match accepts."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            inner = child.name if defines else func
            if match(child):
                sites.append(inner)
            visit(child, inner)

    visit(tree, None)
    return sites


def _numpy_attr(node, names) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in names
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _names_trig(node) -> bool:
    """np.cos or np.sin, or cos or sin imported from numpy."""
    return _numpy_attr(node, ("cos", "sin")) or (
        isinstance(node, ast.ImportFrom)
        and node.module == "numpy"
        and bool({"cos", "sin"} & {alias.name for alias in node.names})
    )


def test_trig_only_in_cos_sin():
    sites = [(name, func) for name, tree in MODULES.items() for func in _sites(tree, _names_trig)]
    assert sites == [("spectral", "_cos_sin")] * 2


def _scans_values(node) -> bool:
    """An np.count_nonzero or np.flatnonzero call whose arguments name
    values, a sequence's float weights, as a variable or an attribute."""
    scans = ("count_nonzero", "flatnonzero")
    if not (isinstance(node, ast.Call) and _numpy_attr(node.func, scans)):
        return False
    return any(
        (isinstance(sub, ast.Name) and sub.id == "values")
        or (isinstance(sub, ast.Attribute) and sub.attr == "values")
        for arg in node.args
        for sub in ast.walk(arg)
    )


def test_one_support_scan():
    """spectral and majorant find a float sequence's support only through
    majorant.support_index, one compare and one flatnonzero of the mask."""
    sites = [
        (name, func)
        for name in ("spectral", "majorant")
        for func in _sites(MODULES[name], _scans_values)
    ]
    assert sites == [("majorant", "support_index")]


def _multiplies_matrices(node) -> bool:
    """An @ product, in place or not, or a matrix-product function or
    method: np.matmul, np.linalg.matmul, an array's .dot and the like."""
    products = ("matmul", "dot", "vdot", "inner", "tensordot", "einsum")
    return (
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ) or (isinstance(node, ast.Attribute) and node.attr in products)


def test_matrix_products_only_in_the_product_path():
    """_half_grid_product's one product a chunk and the Dirichlet kernel's
    two rank-two products a block."""
    sites = [
        (name, func) for name, tree in MODULES.items() for func in _sites(tree, _multiplies_matrices)
    ]
    assert sorted(sites) == [
        ("spectral", "_dirichlet_block"),
        ("spectral", "_dirichlet_block"),
        ("spectral", "_half_grid_product"),
    ]


def _numpy_fft(node, name=None) -> bool:
    """np.fft.<name>, or any attribute of numpy's fft module when name is None."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "fft"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id in ("np", "numpy")
        and name in (None, node.attr)
    )


def test_one_call_site_per_fft():
    """The sequence's rfft, the kernel's one irfft of a grid and the window
    inverse's batched short ifft; no other transform, and numpy.fft is
    reached only through np."""
    sites = []
    for name, tree in MODULES.items():
        for fft in {node.attr for node in ast.walk(tree) if _numpy_fft(node)}:
            match = partial(_numpy_fft, name=fft)
            sites += [(fft, name, func) for func in _sites(tree, match)]
    assert sorted(sites) == [
        ("ifft", "representation", "_window_inverse"),
        ("irfft", "representation", "_convolve"),
        ("rfft", "spectral", "_padded_rfft"),
    ]
    assert [name for name, tree in MODULES.items() if "numpy.fft" in _imported(tree)] == []
