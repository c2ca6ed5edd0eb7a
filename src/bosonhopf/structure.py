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

The lines of one suite run for several grid points of one family and dim
at once (the ``*_batch`` functions): the one-site images are the direct
sums of the points' images, so each line and map runs once for all the
points, and each point reads its own parameters and scalars and gets its
own row.  A line that reads a two-site value (``Delta(L+)``) runs at each
point as a batch of one instead, when its point's rows are taken
(:func:`report.rows_at`).
"""

from __future__ import annotations

import functools

from .expr import identities
from .fock import DEFAULT_TOL, FockRep, direct_sum_images
from .hopf import HopfTables
from .report import PointCalls, WindowedLine, rows_at, windowed_values
from .spec import AlgebraSpec, SpecError
from .tensor import SectorOperator, level_sectors


def _one_site_leaves(rep: FockRep, tables: HopfTables | None = None,
                     partner: AlgebraSpec | None = None) -> tuple:
    """(scalars, operators) of one point but its two-site images: the
    parameters and corpus scalars of rep's spec and of ``partner`` (a
    generator map's other family), with eps(x) of the tables, and rep's
    generator images, with S(x) of the tables, as sector operators."""
    scalars = {}
    for spec in filter(None, (rep.spec, partner)):
        values = identities().scalar_values(spec.family, tuple(spec.param_dict.items()))
        if "lam4" in values and not spec.integer_grade_shift:
            values = {**values, "lam4": 0.0}   # S(g) = ginv: only g^2 = I keeps L+ S-fixed
        scalars.update(spec.param_dict, **values)
    ops = rep.images()
    if tables:
        ops["S(I)"], scalars["eps(I)"] = ops["I"], 1.0
        for x in tables.generator_names():
            ops[f"S({x})"] = tables.antipode(x)
            scalars[f"eps({x})"] = tables.counit(x)
    return scalars, ops


def _leaves(rep: FockRep, tables: HopfTables | None = None,
            partner: AlgebraSpec | None = None) -> tuple:
    """(scalars, operators) of one point (:func:`_one_site_leaves`), with
    Delta(x) of I and of each generator x given ``tables``."""
    scalars, ops = _one_site_leaves(rep, tables, partner)
    if tables:
        ops["Delta(I)"] = SectorOperator.identity(level_sectors(rep.dim, 2), complex)
        for x in tables.generator_names():
            ops[f"Delta({x})"] = tables.delta_image(x)
    return scalars, ops


def build_realization(rep: FockRep, target: str, partner: AlgebraSpec | None = None) -> dict:
    """The images of ``target``'s generators under the corpus map
    ``target <- rep's family``, as sector operators; ``partner`` gives the
    target's parameters where it is a lab family (phi and phi')."""
    corpus, family = identities(), rep.spec.family
    if (target, family) not in corpus.bindings:
        raise SpecError(f"the corpus has no map {target} <- {family}")
    scalars, ops = _leaves(rep, partner=partner)
    return dict(zip(corpus.bindings[target, family],
                    corpus.images(target, family).run([scalars], ops)))


def _two_site_rows(rep: FockRep, ident: str, reference: str, entry, tol: float,
                   tables: HopfTables | None, partner: AlgebraSpec | None) -> list:
    """The rows of a corpus line at one point, run as a batch of one on all
    its leaves (:func:`_leaves`), two-site images included."""
    scalars, ops = _leaves(rep, tables, partner)
    return rows_at(_lines([rep.spec], rep.dim, ident, reference, entry, [scalars], ops, tol), 0)


def _lines(specs: list, dim: int, ident: str, reference: str, entry, scalars: list,
           ops: dict, tol: float) -> list:
    """A corpus line's row at each point, run once on ``ops``, the direct
    sums of the points' one-site leaves or one point's leaves; none when
    it reads a leaf they lack."""
    if not entry.program.names <= scalars[0].keys() | ops.keys():
        return []
    residual, scale = entry.run(scalars, ops)
    return [WindowedLine(specs, dim, ident, reference,
                         windowed_values(len(specs), dim, residual, entry.raise_degree, scale),
                         tol, entry.raise_degree,
                         [{name: complex(leaves[name]).real for name in entry.notes}
                          for leaves in scalars])]


def _rows_batch(reps: list, prefix: str, tol: float, tables: list | None = None,
                partners: list | None = None) -> list:
    """The rows of every corpus line and map of the reps' family whose id
    starts with ``prefix``, in corpus order, at reps of one family and dim,
    as the lines of the batch (:func:`report.rows_at`).  A map's rows are
    its target's defining relations on its images.  The one-site lines and
    maps run once on the direct sums of the reps' images; a line that reads
    a two-site value runs at each point alone, when its rows are taken."""
    corpus, family, lines = identities(), reps[0].spec.family, []
    tables, partners = tables or [None] * len(reps), partners or [None] * len(reps)
    leaves = [_one_site_leaves(*point) for point in zip(reps, tables, partners)]
    scalars, ops = [s for s, _ in leaves], direct_sum_images([o for _, o in leaves])
    specs, dim = [rep.spec for rep in reps], reps[0].dim
    for st in corpus.lines:
        if st.family != family or not st.ident.startswith(prefix):
            continue
        if st.kind == "row" and corpus.entry(st).program.two_site:
            lines.append(PointCalls([functools.partial(_two_site_rows, rep, st.ident,
                                                       st.reference, corpus.entry(st), tol,
                                                       table, partner)
                                     for rep, table, partner in zip(reps, tables, partners)]))
        elif st.kind == "row":
            lines += _lines(specs, dim, st.ident, st.reference, corpus.entry(st), scalars, ops, tol)
        elif st.kind == "map":
            images = dict(zip(corpus.bindings[st.target, family],
                              corpus.images(st.target, family).run(scalars, ops)),
                          I=ops["I"])
            for entry in corpus.relations(st.target):
                lines += _lines(specs, dim, f"{st.ident}.{st.target}.{entry.ident}",
                                entry.statement.reference_on(st), entry, scalars, images, tol)
    return lines


def _rows(rep: FockRep, prefix: str, tol: float, tables: HopfTables | None = None,
          partner: AlgebraSpec | None = None) -> list:
    """The rows of :func:`_rows_batch` at one point."""
    return rows_at(_rows_batch([rep], prefix, tol, [tables], [partner]), 0)


def run_structure_checks(rep: FockRep, tables: HopfTables | None = None,
                         tol: float = DEFAULT_TOL) -> list:
    """The structure rows of rep's family: the corpus lines and maps whose id
    starts with "structure."; a line that reads the Hopf images needs ``tables``."""
    return _rows(rep, "structure.", tol, tables)


def run_structure_checks_batch(reps: list, tables: list | None = None,
                               tol: float = DEFAULT_TOL) -> list:
    """:func:`run_structure_checks` at reps of one family and dim at once,
    given their tables or None: the lines of the batch (:func:`report.rows_at`)."""
    return _rows_batch(reps, "structure.", tol, tables)


def casimir_spectrum(rep: FockRep, tol: float = DEFAULT_TOL) -> list:
    """The Casimir rows of rep's family: the corpus lines "structure.casimir-*"."""
    return _rows(rep, "structure.casimir", tol)


def casimir_spectrum_batch(reps: list, tol: float = DEFAULT_TOL) -> list:
    """:func:`casimir_spectrum` at reps of one family and dim at once."""
    return _rows_batch(reps, "structure.casimir", tol)


def iso_phi(b_spec: AlgebraSpec, h_rep: FockRep, tol: float = DEFAULT_TOL) -> list:
    """The graded family's relations on phi's images in a reflection-family
    rep, and phi(L): they pass exactly when alpha = 2*delta."""
    return _rows(h_rep, "iso.", tol, partner=b_spec)


def iso_phi_prime(h_spec: AlgebraSpec, b_rep: FockRep, tol: float = DEFAULT_TOL) -> list:
    """The reflection family's relations on phi''s images in a graded-family
    rep, phi'(M) and the round trip phi' after phi."""
    return _rows(b_rep, "iso.", tol, partner=h_spec)


def iso_batch(partners: list, reps: list, tol: float = DEFAULT_TOL) -> list:
    """:func:`iso_phi` or :func:`iso_phi_prime` at reps of one family and
    dim at once, each with its partner spec: the lines of the batch."""
    return _rows_batch(reps, "iso.", tol, partners=partners)
