"""One operator form for the multi-site checks: no dense Kronecker product.

`rmatrix.py` and `HopfTables.check_coassociativity` build every multi-site
operator from its slot factors: as a level-sector operator
(`tensor.SectorOperator.gather`), or one level block at a time in the R rows
that are built level by level, with R's Delta slots from the tables'
Sweedler terms and every ladder power as the previous one times the slot
image.
The dense builders (`delta_matrix` and `terms_matrix` among them) stay in
`tensor.py` and `hopf.py` for the tests' references; this guard keeps them,
and `np.linalg.matrix_power`, out of those checks.

R itself is held only as its level blocks (`RMatrix.op`), and every diagonal
and identity the R rows need is read from or gathered into blocks, so
`rmatrix.py` also names no `to_dense`, `np.diag` or `np.eye`.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bosonhopf"
BANNED = {"kron", "kron_all", "kron_columns", "embed_two_site", "terms_matrix",
          "delta_matrix", "matrix_power"}
# the dense forms of an operator: a sector operator's scatter, a diagonal
# matrix and a dense identity
DENSE_FORMS = {"to_dense", "diag", "eye"}


def dense_builders(tree) -> list:
    """(line, name) of every reference to a dense builder under ``tree``:
    a bare name, an attribute (``np.kron``, ``tensor.kron_all``) or an
    imported name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in BANNED:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BANNED:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in BANNED]
    return sorted(found)


def dense_forms(tree) -> list:
    """(line, name) of every attribute (``op.to_dense``, ``np.diag``,
    ``np.eye``) or imported name of DENSE_FORMS under ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DENSE_FORMS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in DENSE_FORMS]
    return sorted(found)


def _method(tree, cls: str, name: str):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise LookupError(f"{cls}.{name}")


def test_the_guard_sees_every_spelling():
    source = ("import numpy as np\n"
              "from .tensor import kron_columns, spectral_norm\n"
              "from numpy import kron\n"
              "a = np.kron(x, y)\n"
              "b = kron_all(x, y, z)\n"
              "c = tensor.embed_two_site(r, (0, 2), 3, d)\n"
              "d = hopf.terms_matrix(terms, dim)\n"
              "e = kron\n"
              "f = SectorOperator.gather(factors, sectors) @ np.krona\n"
              "g = np.linalg.matrix_power(x, 3)\n"
              "from numpy.linalg import matrix_power\n"
              "h = _slot(rep, tables.delta_matrix)\n"
              "i = terms_matrix\n"
              "j = tables.delta_terms(name) @ np.linalg.matrix_rank(x)\n")
    assert [line for line, _ in dense_builders(ast.parse(source))] == [
        2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13]


def test_the_dense_form_guard_sees_every_spelling():
    source = ("import numpy as np\n"
              "from numpy import eye\n"
              "a = r.op.to_dense()\n"
              "b = np.diag(x)\n"
              "c = np.eye(n)\n"
              "d = mat.diagonal()\n"
              "diag = x\n"
              "e = SectorOperator.identity(sectors)\n"
              "f = np.linalg.eye\n")
    assert [line for line, _ in dense_forms(ast.parse(source))] == [2, 3, 4, 5, 9]


def test_the_r_checks_and_coassociativity_build_no_dense_product():
    rmatrix = ast.parse((SRC / "rmatrix.py").read_text())
    coassoc = _method(ast.parse((SRC / "hopf.py").read_text()),
                      "HopfTables", "check_coassociativity")
    offenders = ([f"rmatrix.py:{line}: {name}" for line, name in dense_builders(rmatrix)]
                 + [f"hopf.py:{line}: {name}" for line, name in dense_builders(coassoc)])
    assert not offenders, offenders


def test_rmatrix_holds_no_dense_form_of_an_operator():
    rmatrix = ast.parse((SRC / "rmatrix.py").read_text())
    offenders = [f"rmatrix.py:{line}: {name}" for line, name in dense_forms(rmatrix)]
    assert not offenders, offenders
