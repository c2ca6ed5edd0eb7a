"""One window form: a check states its validity window as a top level.

An identity of raising degree k holds on the states of total level up to
``dim - 1 - k``, and every check passes that top level to
`tensor.spectral_norm`.  The dense window oracle, `tensor.windowed_norm`
over a `tensor.total_window_projector`, serves the tests and the
benchmark's trace targets; this guard keeps every use of it out of the
package outside `tensor.py`.  Importing a name is not a use: `fock` binds
`windowed_norm` so that its trace target resolves.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bosonhopf"
KERNEL = "tensor.py"
BANNED = {"windowed_norm", "total_window_projector"}


def oracle_uses(source: str) -> list:
    """(line, name) of every use of the window oracle in ``source``: a call
    or any other reference, by name, attribute or import alias."""
    tree = ast.parse(source)
    names = set(BANNED)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.asname for a in node.names if a.name in BANNED and a.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BANNED:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_the_guard_sees_every_spelling():
    source = ("from .tensor import windowed_norm\n"
              "from .tensor import total_window_projector as twp\n"
              "a = windowed_norm(x, p)\n"
              "b = tensor.windowed_norm(x, p, sectors)\n"
              "c = fock.windowed_norm(x, p)\n"
              "d = total_window_projector(dim, 2, 1)\n"
              "e = twp(dim, 1, 0)\n"
              "f = map(windowed_norm, mats)\n"
              "g = spectral_norm(x, sectors, dim - 1 - k) + windowed_norms(x)\n")
    assert [line for line, _ in oracle_uses(source)] == [3, 4, 5, 6, 7, 8]


def test_only_the_tensor_module_uses_the_window_oracle():
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(SRC.glob("*.py")) if path.name != KERNEL
                 for line, name in oracle_uses(path.read_text())]
    assert not offenders, offenders
