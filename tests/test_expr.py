import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonhopf import AlgebraSpec, build_rep
from bosonhopf.fock import rep_generator_images, windowed_norm
from bosonhopf.spec import PARAM_NAMES
from bosonhopf.tensor import total_window_projector
from bosonhopf import expr as ex
from grids import FULL_GRID


# -- strategies for random well-formed trees ----------------------------------

numbers = st.sampled_from([0.0, 1.0, 2.0, 3.5, 0.25])
atoms = st.sampled_from(ex.GENERATOR_ATOMS + ex.PARAMETER_NAMES)

leaf = st.one_of(numbers.map(ex.Num), atoms.map(ex.Name))


def _node(children):
    return st.one_of(
        children.map(ex.Neg),
        st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: ex.BinOp(*t)),
        st.tuples(children, st.integers(0, 3)).map(lambda t: ex.Pow(*t)),
        st.tuples(st.sampled_from(["comm", "acomm", "tensor", "qbracket"]),
                  children, children).map(
            lambda t: ex.Call(t[0], (t[1], t[2]))),
        children.map(lambda c: ex.Call("phase", (c,))),
    )


trees = st.recursive(leaf, _node, max_leaves=24)


@given(tree=trees)
@settings(max_examples=1000, deadline=None)
def test_parse_print_round_trip(tree):
    assert ex.parse(ex.print_expr(tree)) == tree


# -- parser details -----------------------------------------------------------

def test_parse_examples():
    t = ex.parse("acomm(a, ad) - (alpha*N + beta*I)")
    assert isinstance(t, ex.BinOp) and t.op == "-"
    t = ex.parse("comm(N, a) + a")
    assert isinstance(t, ex.BinOp) and t.op == "+"
    t = ex.parse("tensor(g, g)")
    assert isinstance(t, ex.Call) and t.fn == "tensor"


def test_precedence_and_associativity():
    assert ex.parse("a + ad * N") == ex.BinOp(
        "+", ex.Name("a"), ex.BinOp("*", ex.Name("ad"), ex.Name("N")))
    assert ex.parse("a - ad - N") == ex.BinOp(
        "-", ex.BinOp("-", ex.Name("a"), ex.Name("ad")), ex.Name("N"))
    assert ex.parse("a * ad ^ 2") == ex.BinOp(
        "*", ex.Name("a"), ex.Pow(ex.Name("ad"), 2))


def test_parse_error_positions():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("a +\n* ad")
    assert err.value.line == 2 and err.value.column == 1
    assert err.value.expected

    with pytest.raises(ex.ParseError) as err:
        ex.parse("a + zz")
    assert err.value.column == 5

    for text in ("N ^ -1", "N ^ 1.5", "comm(a)", "foo(a, b)", "a )", "(a"):
        with pytest.raises(ex.ParseError):
            ex.parse(text)


def test_parameter_names_are_the_families_parameters():
    """The language accepts as parameters exactly the union of the families'
    parameter names, each once, and binds each to its family's value."""
    union = {name for names in PARAM_NAMES.values() for name in names}
    assert isinstance(ex.PARAMETER_NAMES, tuple)
    assert sorted(ex.PARAMETER_NAMES) == sorted(union)
    for name in union:
        assert ex.parse(name) == ex.Name(name)
    for name in ("gamma", "lambda1", "Q", "alpha2"):
        with pytest.raises(ex.ParseError, match="unknown identifier"):
            ex.parse(name)
    for family, params in (("B", (2, 1)), ("Bbar", (1, 2)), ("Bq", (2, 4, 1.3)),
                           ("Bbarq", (1, 1, 0.7)), ("H", (1, 0.5, 0.25))):
        ctx = _ctx(family, params, 4)
        for name, value in zip(PARAM_NAMES[family], params):
            assert np.allclose(ex.evaluate_text(f"{name} * I", ctx), value * np.eye(4))


# -- evaluator ----------------------------------------------------------------

def _ctx(family, params, dim=8):
    return ex.EvalContext(build_rep(AlgebraSpec(family, params), dim))


def test_evaluate_defining_relation_examples():
    ctx = _ctx("B", (2, 1), 16)
    mat = ex.evaluate_text("acomm(a, ad) - (alpha*N + beta*I)", ctx)
    win = total_window_projector(ctx.rep.dim, 1, 1)
    assert windowed_norm(mat, win) < 1e-10

    hctx = _ctx("H", (1, 0.5, -0.25))
    mat = ex.evaluate_text("comm(b, bd) - (delta*I + nu*K)", hctx)
    win = total_window_projector(hctx.rep.dim, 1, 1)
    assert windowed_norm(mat, win) < 1e-10


def test_qbracket_diagonal_calculus():
    ctx = _ctx("Bq", (2, 1, 1.3), 6)
    from bosonhopf.scalars import q_bracket
    mat = ex.evaluate_text("qbracket(alpha*N + beta*I, q)", ctx)
    expect = np.diag([q_bracket(2 * n + 1, 1.3) for n in range(6)])
    assert np.abs(mat - expect).max() < 1e-12
    with pytest.raises(ex.EvalError):
        ex.evaluate_text("qbracket(a, q)", ctx)


def test_phase_values():
    ctx = _ctx("B", (2, 1), 4)
    mat = ex.evaluate_text("phase(N)", ctx)
    assert np.allclose(np.diag(mat), [1, -1, 1, -1])


def test_tensor_evaluation():
    ctx = _ctx("B", (2, 2), 4)
    mat = ex.evaluate_text("tensor(g, g)", ctx)
    g = ctx.rep.require_grade().to_dense()
    assert np.allclose(mat, np.kron(g, g))


def test_tensor_refuses_sector_operator_leaves():
    """The relation rows' leaves are sector operators; tensor is the eval
    path's dense Kronecker product and says so instead of failing inside it."""
    leaves = build_rep(AlgebraSpec("B", (2, 1)), 4).images()
    program = ex.compile_trees(ex.parse("tensor(a, ad)"))
    with pytest.raises(ex.EvalError, match="dense images of eval only"):
        program.run([{}], leaves)


def test_additive_homomorphism_is_exact():
    ctx = _ctx("B", (2, 1), 6)
    x = ex.parse("acomm(a, ad) * N")
    y = ex.parse("2 * ad * a")
    joint = ex.evaluate(ex.BinOp("+", x, y), ctx)
    split = ex.evaluate(x, ctx) + ex.evaluate(y, ctx)
    assert np.array_equal(joint, split)


def test_scalar_promotion_and_errors():
    ctx = _ctx("B", (2, 1), 4)
    assert np.allclose(ex.evaluate_text("alpha * beta", ctx),
                       2.0 * np.eye(4))
    with pytest.raises(ex.EvalError):
        ex.evaluate_text("a + alpha", ctx)
    with pytest.raises(ex.EvalError):
        ex.evaluate_text("b + bd", ctx)          # wrong family
    with pytest.raises(ex.EvalError):
        ex.evaluate_text("tensor(g, g) + a", ctx)  # mixed arities
    with pytest.raises(ex.EvalError):
        ex.evaluate_text("sigma * I", ctx)        # unbound parameter
    bound = ex.EvalContext(ctx.rep, bindings={"sigma": 3.0})
    assert np.allclose(ex.evaluate_text("sigma * I", bound), 3.0 * np.eye(4))


def test_division_scalar_powers_and_embeddings():
    """/ divides by a scalar, a scalar's ^ takes a scalar exponent, qbracket
    takes a scalar, and left(x), right(x) are x (x) I and I (x) x (their
    product the Kronecker product); each prints and parses back."""
    from bosonhopf.scalars import q_bracket
    ctx = _ctx("Bq", (2, 1, 1.3), 4)
    gens = rep_generator_images(ctx.rep)
    assert np.allclose(ex.evaluate_text("N/2", ctx), gens["N"] / 2)
    assert np.allclose(ex.evaluate_text("q^(alpha/2)*I", ctx), 1.3 * np.eye(4))
    assert np.allclose(ex.evaluate_text("qbracket(alpha, q)*I", ctx),
                       q_bracket(2.0, 1.3) * np.eye(4))
    assert np.allclose(ex.evaluate_text("left(a)*right(ad)", ctx),
                       np.kron(gens["a"], gens["ad"]))
    assert np.allclose(ex.evaluate_text("right(N)", ctx), np.kron(np.eye(4), gens["N"]))
    for text in ("N/2", "q^alpha", "q^(alpha/2)", "left(a)*right(ad)"):
        assert ex.parse(ex.print_expr(ex.parse(text))) == ex.parse(text)
    for text in ("a/N", "a^alpha", "left(tensor(a, a))"):
        with pytest.raises(ex.EvalError):
            ex.evaluate_text(text, ctx)


def test_power_is_matrix_power():
    ctx = _ctx("B", (2, 1), 6)
    a2 = ex.evaluate_text("a ^ 2", ctx)
    a = ctx.rep.lowering.to_dense()
    assert np.allclose(a2, a @ a)
    assert np.allclose(ex.evaluate_text("a ^ 0", ctx), np.eye(6))


# -- the identity corpus ------------------------------------------------------

def test_corpus_covers_every_family():
    families = {entry.family for entry in ex.load_corpus()}
    assert families == {"B", "Bq", "Bbar", "Bbarq", "H"}


def test_corpus_evaluates_on_grid():
    by_family = {}
    for entry in ex.load_corpus():
        by_family.setdefault(entry.family, []).append(entry)
    for family, params in FULL_GRID:
        rep = build_rep(AlgebraSpec(family, params), 8)
        ctx = ex.EvalContext(rep)
        for entry in by_family[family]:
            mat = ex.evaluate(entry.tree, ctx)
            win = total_window_projector(rep.dim, 1, entry.raise_degree)
            res = windowed_norm(mat, win)
            assert res < 1e-10, (family, params, entry.text, res)
