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
`rmatrix.py` also names no `to_dense`, `np.diag` or `np.eye`.  Nor does
`SectorOperator.gather`, which reads each one-site factor's entries from
its blocks and scatters no sector operator back to dense.

Each one-site image is built once, as a sector operator: `fock.build_rep`
forms the rep's images from their weight and diagonal vectors and
`HopfTables._build_atoms` the atoms' images as their products, so neither
names `diag`, `eye` or `from_dense`.  `_build_atoms` states every S and
S^-1 as words (`hopf.word_sum`): it holds no `@` and no image formed by
hand.  A run of every suite reads no dense matrix into a sector operator
and scans none for its level shift.
"""

import ast
import json
import pathlib

from bosonhopf import cli, tensor
from bosonhopf.spec import PARAM_NAMES

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bosonhopf"
BANNED = {"kron", "kron_all", "kron_columns", "embed_two_site", "terms_matrix",
          "delta_matrix", "matrix_power"}
# the dense forms of an operator: a sector operator's scatter, a diagonal
# matrix and a dense identity
DENSE_FORMS = {"to_dense", "diag", "eye"}
# what builds an image densely: a diagonal matrix, a dense identity, or a
# dense matrix read into blocks
DENSE_IMAGES = {"diag", "eye", "from_dense"}


def dense_builders(tree, names) -> list:
    """(line, name) of every reference to one of ``names`` (BANNED, the
    dense builders, or DENSE_IMAGES) under ``tree``: a bare name, an
    attribute (``np.kron``, ``tensor.kron_all``) or an imported name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
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


def _stated(value) -> bool:
    """Whether an S or S^-1 image is a ``word_sum`` call, or another atom's
    image (``.s``, ``.s_inv``), on every branch of a conditional."""
    if isinstance(value, ast.IfExp):
        return _stated(value.body) and _stated(value.orelse)
    if isinstance(value, ast.Call):
        func = value.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) \
            == "word_sum"
    return isinstance(value, ast.Attribute) and value.attr in ("s", "s_inv")


def hand_built_images(tree) -> list:
    """(line, what) of every ``@`` under ``tree``, and of every S or S^-1
    image (an ``s=`` or ``s_inv=`` keyword, or an assignment to ``.s`` or
    ``.s_inv``) that is not stated as words (:func:`_stated`); a tuple
    assignment to one counts as not stated."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        if isinstance(node, ast.keyword) and node.arg in ("s", "s_inv"):
            if not _stated(node.value):
                found.append((node.value.lineno, f"{node.arg}="))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                parts = target.elts if isinstance(target, ast.Tuple) else [target]
                named = [t.attr for t in parts
                         if isinstance(t, ast.Attribute) and t.attr in ("s", "s_inv")]
                if named and (len(parts) > 1 or isinstance(node, ast.AugAssign)
                              or not _stated(node.value)):
                    found.append((node.lineno, f".{named[0]} ="))
    return sorted(found)


def _function(tree, name: str):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise LookupError(name)


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
    assert [line for line, _ in dense_builders(ast.parse(source), BANNED)] == [
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
    offenders = ([f"rmatrix.py:{line}: {name}" for line, name in dense_builders(rmatrix, BANNED)]
                 + [f"hopf.py:{line}: {name}" for line, name in dense_builders(coassoc, BANNED)])
    assert not offenders, offenders


def test_rmatrix_holds_no_dense_form_of_an_operator():
    rmatrix = ast.parse((SRC / "rmatrix.py").read_text())
    offenders = [f"rmatrix.py:{line}: {name}" for line, name in dense_forms(rmatrix)]
    assert not offenders, offenders


def test_the_gather_scatters_no_operator_to_dense():
    source = ast.parse((SRC / "tensor.py").read_text())
    offenders = [f"SectorOperator.gather:{line}: {name}"
                 for line, name in dense_forms(_method(source, "SectorOperator", "gather"))]
    assert not offenders, offenders


def test_the_image_guard_sees_every_spelling():
    source = ("import numpy as np\n"
              "from numpy import diag\n"
              "a = np.diag(x)\n"
              "b = SectorOperator.from_dense(m, s)\n"
              "eye = rep.identity\n"
              "c = np.eye(n)\n"
              "d = SectorOperator.one_site(v, 0)\n"
              "e = mat.diagonal()\n")
    found = dense_builders(ast.parse(source), DENSE_IMAGES)
    assert [line for line, _ in found] == [2, 3, 4, 5, 6]


def test_the_antipode_guard_sees_every_spelling():
    source = ("a = Atom('a', m, s=-gi.matrix @ low)\n"
              "b = Atom('b', m, s=word_sum(t, dim), s_inv=-word_sum(t, dim))\n"
              "atom.s = x.s\n"
              "atom.s_inv = 2.0 * atom.s\n"
              "atom.s, atom.s_inv = word_sum(t, dim), word_sum(u, dim)\n"
              "atom.s_inv = atom.s if u is t else word_sum(u, dim)\n"
              "atom.s_inv = atom.s if u is t else rep.lowering\n"
              "atom.s *= g\n"
              "c = hopf.word_sum(t, dim)\n"
              "atom.matrix = x @ y\n")
    assert hand_built_images(ast.parse(source)) == [
        (1, "@"), (1, "s="), (2, "s_inv="), (4, ".s_inv ="), (5, ".s ="), (7, ".s_inv ="),
        (8, ".s ="), (10, "@")]


def test_the_rep_and_the_atoms_build_their_images_as_sector_operators():
    """No dense image in the rep or the atoms; no ``@`` and no hand-built
    S or S^-1 image in the atoms, whose antipodes are stated as words."""
    hopf_tree = ast.parse((SRC / "hopf.py").read_text())
    build_atoms = _method(hopf_tree, "HopfTables", "_build_atoms")
    builders = {"fock.build_rep": _function(ast.parse((SRC / "fock.py").read_text()),
                                            "build_rep"),
                "HopfTables._build_atoms": build_atoms}
    offenders = [f"{where}:{line}: {name}" for where, tree in builders.items()
                 for line, name in dense_builders(tree, DENSE_IMAGES)]
    offenders += [f"HopfTables._build_atoms:{line}: {what}"
                  for line, what in hand_built_images(build_atoms)]
    assert not offenders, offenders


# one point of each family; B's and Bq's have an integer beta/alpha, so
# their rmatrix and ybe suites run
ONE_POINT = {"B": (2.0, 2.0), "Bq": (2.0, 4.0, 1.3), "Bbar": (1.0, 2.0),
             "Bbarq": (1.0, 1.0, 0.7), "H": (1.0, 0.5, 0.25)}


def test_a_run_of_every_suite_reads_no_dense_matrix(monkeypatch):
    """One point of every family through every suite (those that do not
    apply skip), with SectorOperator.from_dense and tensor._level_shift
    made to raise: neither is called, and every row passes or skips, with
    no error row."""
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} on the run path")
        return call

    monkeypatch.setattr(tensor.SectorOperator, "from_dense", refuse("from_dense"))
    monkeypatch.setattr(tensor, "_level_shift", refuse("_level_shift"))
    rows = []
    for family, params in ONE_POINT.items():
        grid = {name: [value] for name, value in zip(PARAM_NAMES[family], params)}
        scenario = cli.Scenario(family, family, grid, dim=8, suites=tuple(cli.SUITES))
        rows += [json.loads(line)
                 for _, _, line in cli._run_job((scenario, cli.grid_expand(scenario)))]
    assert calls == []
    assert {row["suite"] for row in rows if not row["skipped"]} == set(cli.SUITES)
    bad = [row["identity"] for row in rows if not (row["passed"] or row["skipped"])]
    assert bad == [], bad
