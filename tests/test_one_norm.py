"""One norm kernel: only `tensor.py` calls `np.linalg.norm` or `np.linalg.svd`.

Every other module takes its norms through `tensor.spectral_norm`, a
windowed one by passing the top level of its validity window, so exact
zeros, windows and level sectors are handled in one place
(`test_window_form.py` keeps the dense window oracle out of the package).
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bosonhopf"
KERNEL = "tensor.py"
BANNED = {"norm", "svd"}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def direct_norms(source: str) -> list:
    """(line, name) of every linalg norm or SVD the source names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BANNED:
            owner = _dotted(node.value)
            if owner == "linalg" or owner.endswith(".linalg"):
                found.append((node.lineno, f"{owner}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, f"numpy.linalg.{a.name}")
                      for a in node.names if a.name in BANNED]
    return sorted(found)


def test_the_guard_sees_every_spelling():
    source = ("import numpy as np\n"
              "from numpy import linalg\n"
              "from numpy.linalg import svd\n"
              "a = np.linalg.norm(x, 2)\n"
              "b = linalg.svd(x, compute_uv=False)\n"
              "c = numpy.linalg.norm\n"
              "d = np.linalg.eigvalsh(x) + np.abs(x).max()\n")
    assert [line for line, _ in direct_norms(source)] == [3, 4, 5, 6]


def test_only_the_tensor_module_takes_norms_directly():
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(SRC.glob("*.py")) if path.name != KERNEL
                 for line, name in direct_norms(path.read_text())]
    assert not offenders, offenders
