"""The identity corpus states every structure, Casimir and iso row once.

A lint walks every statement of ``data/identities.txt``: each line parses
and compiles, each name a line reads is a generator of its family, a
defined name or a parameter, and the structure, casimir and iso suites'
registry ids are exactly the corpus's report ids.  A guard runs those
suites on one point of each family and requires every row's reference to be
the text its corpus line derives, so no ``.py`` file writes a row text.
"""

import json
import os
import pathlib
import subprocess
import sys

from bosonhopf import AlgebraSpec, build_rep, cli
from bosonhopf import expr as ex
from bosonhopf.corpus import statement, statements

ROOT = pathlib.Path(__file__).resolve().parents[1]
POINTS = {"B": (2.0, 2.0), "Bbar": (1.0, 1.0), "Bq": (2.0, 4.0, 1.3),
          "Bbarq": (1.0, 1.0, 0.7), "H": (1.0, 2.0, 0.25)}
CORPUS_SUITES = ("structure", "casimir", "iso")


def _generators(corpus) -> dict:
    """The names each family or target algebra's images go by, I included."""
    gens = {family: {*build_rep(AlgebraSpec(family, params), 4).generator_names(), "I"}
            for family, params in POINTS.items()}
    for target, _ in corpus.bindings:
        gens.setdefault(target, {"I"}).update(corpus.bindings[target, _])
    return gens


def lint(corpus) -> list:
    """Every problem of a compiled corpus: a statement that does not parse or
    compile, or one that reads a name that is no generator of its family, no
    Hopf image of one, no parameter and no corpus scalar."""
    gens, problems = _generators(corpus), []
    scalars = set(ex.PARAMETER_NAMES) | corpus.scalars.keys()

    def allowed(family):
        names = gens.get(family, set())
        return scalars | names | {f"{m}({x})" for m in ex.IMAGE_MAPS for x in names}

    for st in corpus.lines:
        try:
            if st.kind in ("relation", "row"):
                names, family = corpus.entry(st).program.names, st.family
            elif st.kind == "definition":
                names = corpus.compile(ex.parse(st.texts[0], None), family=st.family).names
                family = st.family
            else:
                names, family = corpus.images(st.target, st.family).names, st.family
        except (ex.ParseError, ex.EvalError) as exc:
            problems.append(f"{st.family} {st.ident}: {exc}")
            continue
        unknown = sorted(names - allowed(family))
        if unknown:
            problems.append(f"{st.family} {st.ident} reads {unknown}")
    return problems


def test_every_corpus_line_parses_compiles_and_reads_known_names():
    assert lint(ex.identities()) == []


def test_the_lint_sees_unknown_names_and_unbound_images():
    """A row that reads an undefined name, a map image that names a target
    generator no map binds, and a line that does not parse are each found."""
    corpus = ex.identities()
    bad = (statement("B ; structure.bogus ; 0 ; comm(a, zz) ; 1"),
           statement("B ; structure.unbound ; 0 ; osp12(g) ; 1"),
           statement("H ; structure.broken ; 0 ; comm(b, ; 1"))
    found = lint(ex.Identities(corpus.lines + bad))
    assert [p.split(" reads ")[0].split(":")[0] for p in found] == [
        "B structure.bogus", "B structure.unbound", "H structure.broken"]


def test_the_registry_ids_are_the_corpus_ids():
    """Every registry id of the structure, casimir and iso suites has a
    corpus line or map, and every dotted corpus id is in the registry, with
    the text the corpus gives it."""
    registry = {key: text for name in CORPUS_SUITES
                for key, text in cli.SUITES[name].ids.items()}
    corpus_ids = {st.ident for st in statements() if st.kind in ("row", "map")}
    assert registry.keys() == corpus_ids
    rows = {st.ident: st.reference for st in statements() if st.kind == "row"}
    assert {k: t for k, t in registry.items() if k in rows} == rows
    assert set(cli.SUITES["casimir"].ids) == {"structure.casimir-osp", "structure.casimir-sl2"}


def test_the_registry_reads_the_corpus_only_when_asked():
    """Importing the CLI and parsing a config read no corpus; the structure
    suite's ids read it on first use."""
    code = ("import sys\nfrom bosonhopf.cli import SUITES, parse_config\n"
            "parse_config('scripts/full_grid.ini')\n"
            "before = 'bosonhopf.corpus' in sys.modules\n"
            "ids = list(SUITES['structure'].ids)\n"
            "print(before, 'bosonhopf.corpus' in sys.modules, 'numpy' in sys.modules, len(ids))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert done.stdout.split() == ["False", "True", "False", "12"], done.stderr


def _expected_references() -> dict:
    """(family, row id) -> the reference text its corpus line derives."""
    corpus = ex.identities()
    refs = {(st.family, st.ident): st.reference for st in statements() if st.kind == "row"}
    for st in statements():
        if st.kind == "map":
            for entry in corpus.relations(st.target):
                refs[st.family, f"{st.ident}.{st.target}.{entry.ident}"] = (
                    entry.statement.reference_on(st))
    return refs


def test_every_row_text_is_derived_from_its_corpus_line(tmp_path):
    """The structure, casimir and iso suites on one point of each family
    where they run: each computed row's reference is its corpus line's."""
    config = tmp_path / "points.ini"
    config.write_text("".join(
        f"[scenario {family}]\nfamily = {family}\n"
        + "".join(f"{name} = {value}\n" for name, value
                  in AlgebraSpec(family, params).param_dict.items())
        + f"dim = 6\nsuites = {', '.join(CORPUS_SUITES)}\n\n"
        for family, params in POINTS.items()))
    out = tmp_path / "out.json"
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    rows = [r for r in json.loads(out.read_text())["reports"] if not r["skipped"]]
    refs = _expected_references()
    assert {r["family"] for r in rows} == set(POINTS)
    assert [(r["family"], r["identity"]) for r in rows
            if refs.get((r["family"], r["identity"])) != r["reference"]] == []
    emitted = {(r["family"], r["identity"]) for r in rows}
    assert {(st.family, st.ident) for st in statements() if st.kind == "row"} <= emitted
    assert {(st.family, st.ident) for st in statements() if st.kind == "map"} == {
        (family, ident.rsplit(".", 2)[0]) for family, ident in emitted
        if ident.startswith(("structure.realization.", "iso.phi.", "iso.phi-prime."))}


def test_a_changed_corpus_line_changes_its_row_text(monkeypatch):
    """The row text follows the corpus line: restating a line restates its row."""
    from bosonhopf import structure
    corpus = ex.identities()
    lines = tuple(st._replace(texts=("comm(a, ad) + (2/lam1)*L - (alpha/2)*I",))
                  if st.ident == "structure.bh-form" else st for st in corpus.lines)
    monkeypatch.setattr(structure, "identities", lambda: ex.Identities(lines))
    rep = build_rep(AlgebraSpec("B", (2.0, 2.0)), 6)
    (row,) = [r for r in structure.run_structure_checks(rep) if r.identity == "structure.bh-form"]
    assert row.reference == "comm(a, ad) + (2/lam1)*L - (alpha/2)*I = 0"
    assert row.passed
