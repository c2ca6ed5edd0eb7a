"""Distinguished elements, realizations, Casimir spectra and the boson <->
Heisenberg generator maps, as lines of the identity corpus.

Every row is a line of ``data/identities.txt``: the graded family's
grade-odd element L+ with its coproduct, antipode and counit, its
characteristic identity and the commutator form of the ladder relation;
the reflection family's number element rebuilt from K; the Casimirs of the
graded family's osp(1|2) and sl(2) realizations; and phi(L), phi'(M) and
the round trip of the generator maps, which exist exactly when
alpha = 2*delta.  A map's rows are its target's defining relations on its
images (the realizations' targets osp12, sl2, ospq12 and slq2; phi's and
phi''s the two families).  Each line runs as its compiled program on
level-sector operators: the point's generator images, parameters and
corpus scalars and, given the Hopf tables, the tables' images.
"""

from __future__ import annotations

from .expr import identities
from .fock import DEFAULT_TOL, FockRep
from .hopf import HopfTables
from .report import windowed_row
from .spec import AlgebraSpec, SpecError
from .tensor import SectorOperator, level_sectors


def _hopf_images(tables: HopfTables) -> dict:
    """Delta(x), S(x) and eps(x) of I and of each generator x of the tables, by leaf name."""
    identity = tables.rep.sector_images["I"]
    out = {"Delta(I)": SectorOperator.identity(level_sectors(tables.rep.dim, 2), complex),
           "S(I)": identity, "eps(I)": 1.0}
    for x in tables.generator_names():
        out[f"Delta({x})"] = tables.delta_image(x)
        out[f"S({x})"] = SectorOperator.from_dense(tables.antipode(x), identity.sectors)
        out[f"eps({x})"] = tables.counit(x)
    return out


def _leaves(rep: FockRep, tables: HopfTables | None = None,
            partner: AlgebraSpec | None = None) -> tuple:
    """(scalars, operators): the parameters and corpus scalars of rep's spec
    and of ``partner`` (a generator map's other family), and rep's generator
    images, with the tables' images given ``tables``, as sector operators."""
    scalars = {}
    for spec in filter(None, (rep.spec, partner)):
        values = identities().scalar_values(spec.family, tuple(spec.param_dict.items()))
        if "lam4" in values and not spec.integer_grade_shift:
            values = {**values, "lam4": 0.0}   # S(g) = ginv: only g^2 = I keeps L+ S-fixed
        scalars.update(spec.param_dict, **values)
    return scalars, {**rep.sector_images, **(_hopf_images(tables) if tables else {})}


def build_realization(rep: FockRep, target: str, partner: AlgebraSpec | None = None,
                      leaves: tuple | None = None) -> dict:
    """The images of ``target``'s generators under the corpus map
    ``target <- rep's family``, as sector operators; ``partner`` gives the
    target's parameters where it is a lab family (phi and phi')."""
    corpus, family = identities(), rep.spec.family
    if (target, family) not in corpus.bindings:
        raise SpecError(f"the corpus has no map {target} <- {family}")
    scalars, ops = leaves or _leaves(rep, partner=partner)
    return dict(zip(corpus.bindings[target, family],
                    corpus.images(target, family).run({**scalars, **ops})))


def _row(rep: FockRep, ident: str, reference: str, entry, leaves: dict, tol: float) -> list:
    """The row of a compiled corpus line on ``leaves``, none when it reads a leaf they lack."""
    if not entry.program.names <= leaves.keys():
        return []
    residual, scale = entry.run(leaves)
    notes = {name: complex(leaves[name]).real for name in entry.notes}
    return [windowed_row(rep.spec, rep.dim, ident, reference, residual, tol,
                         entry.raise_degree, scale, branch_note=notes)]


def _rows(rep: FockRep, prefix: str, tol: float, tables: HopfTables | None = None,
          partner: AlgebraSpec | None = None) -> list:
    """The rows of every corpus line and map of rep's family whose id starts
    with ``prefix``, in corpus order.  A map's rows are its target's
    defining relations on its images."""
    corpus, out = identities(), []
    scalars, ops = leaves = _leaves(rep, tables, partner)
    point = {**scalars, **ops}
    for st in corpus.lines:
        if st.family != rep.spec.family or not st.ident.startswith(prefix):
            continue
        if st.kind == "row":
            out += _row(rep, st.ident, st.reference, corpus.entry(st), point, tol)
        elif st.kind == "map":
            images = {**scalars, "I": ops["I"], **build_realization(rep, st.target, leaves=leaves)}
            for entry in corpus.relations(st.target):
                out += _row(rep, f"{st.ident}.{st.target}.{entry.ident}",
                            entry.statement.reference_on(st), entry, images, tol)
    return out


def run_structure_checks(rep: FockRep, tables: HopfTables | None = None,
                         tol: float = DEFAULT_TOL) -> list:
    """The structure rows of rep's family: the corpus lines and maps whose id
    starts with "structure."; a line that reads the Hopf images needs ``tables``."""
    return _rows(rep, "structure.", tol, tables)


def casimir_spectrum(rep: FockRep, tol: float = DEFAULT_TOL) -> list:
    """The Casimir rows of rep's family: the corpus lines "structure.casimir-*"."""
    return _rows(rep, "structure.casimir", tol)


def iso_phi(b_spec: AlgebraSpec, h_rep: FockRep, tol: float = DEFAULT_TOL) -> list:
    """The graded family's relations on phi's images in a reflection-family
    rep, and phi(L): they pass exactly when alpha = 2*delta."""
    return _rows(h_rep, "iso.", tol, partner=b_spec)


def iso_phi_prime(h_spec: AlgebraSpec, b_rep: FockRep, tol: float = DEFAULT_TOL) -> list:
    """The reflection family's relations on phi''s images in a graded-family
    rep, phi'(M) and the round trip phi' after phi."""
    return _rows(b_rep, "iso.", tol, partner=h_spec)
