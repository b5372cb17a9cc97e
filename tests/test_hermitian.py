"""Self-dual modules: extraction of the form, the adjoint, unitarity."""

import random

import pytest

from realmod import density, hermitian, linalg
from realmod.equivalence import HermitianSpace, _complex_split, complexify, random_isometric_pair
from realmod.errors import InvariantViolation
from realmod.hermitian import (
    SelfDualRealModule,
    adjoint_oracle,
    conjugate_selfdual,
    dagger,
    dagger_composite_dense,
    externalize_map,
    extract_hermitian,
    hadamard,
    internalize_map,
    is_internal_isometry,
    is_unitary,
    make_selfdual,
    random_hermitian_space,
    random_selfdual,
    random_unitary_word,
    split_eigenspaces,
    standard_selfdual,
)
from realmod.linalg import Matrix, inverse, kron, vec
from realmod.modules import RealHom, random_invertible, random_matrix
from realmod.quantization import quantize, quantize_set, random_realset
from realmod.scalars import I, ONE, Scalar

GRAMS = [
    Matrix.identity(1),
    Matrix.identity(2),
    Matrix.from_rows([[1, I], [-I, 3]]),
    Matrix.from_rows([[1, 0], [0, -1]]),
    Matrix.from_rows([[0, I], [-I, 0]]),
    Matrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 1]]),
]


def test_extraction_inverts_construction():
    for gram in GRAMS:
        h = HermitianSpace(gram.rows, gram)
        s = make_selfdual(h)
        s.check()
        assert extract_hermitian(s).gram == gram


def test_construction_rejects_bad_grams():
    with pytest.raises(InvariantViolation, match="^gram is not conjugate-symmetric$"):
        make_selfdual(HermitianSpace(2, Matrix.from_rows([[1, 1], [0, 1]])))
    with pytest.raises(InvariantViolation, match="^gram is degenerate$"):
        make_selfdual(HermitianSpace(2, Matrix.from_rows([[1, 1], [1, 1]])))


def test_an_operator_of_the_wrong_shape_is_not_a_state():
    h = HermitianSpace(2, Matrix.from_rows([[1, 0], [0, -1]]))
    assert h.is_self_adjoint(Matrix.identity(2))
    assert not h.is_self_adjoint(Matrix.identity(3))
    assert not h.is_self_adjoint(Matrix.zero(2, 1))


def _partner_bases(s, split):
    """(minus, plus): the frame's two column blocks, each space.dim wide."""
    d, half = s.H.dim, split.space.dim
    return split.frame.block(0, 0, d, half), split.frame.block(0, half, d, half)


def test_eigenspace_split_halves_the_dimension():
    rng = random.Random(41)
    for _ in range(15):
        s = random_selfdual(rng, rng.randrange(1, 4))
        split = split_eigenspaces(s)
        assert 2 * split.space.dim == s.H.dim
        minus, plus = _partner_bases(s, split)
        assert s.icplx @ plus == I * plus
        assert s.icplx @ minus == -I * minus


def _structures_with_splits():
    rng = random.Random(53)
    built = ([make_selfdual(HermitianSpace(gram.rows, gram)) for gram in GRAMS]
             + [random_selfdual(rng, n) for n in (0, 0, 1, 1, 2, 2, 3, 3)]
             + [quantize_set(random_realset(rng, size, free=True)) for size in (2, 4, 6, 6)])
    yield from ((s, split_eigenspaces(s)) for s in built)
    for n in (2, 4, 6):  # the complexified (g, J) module, whose split the space keeps
        space = random_isometric_pair(rng, n)
        split = _complex_split(space)
        yield SelfDualRealModule(complexify(space), space.g, inverse(space.g), space.J), split


def test_the_split_keeps_each_gram_inverse(monkeypatch):
    # a standard model's split keeps the space the model was built from, whose
    # check inverted its gram, and eliminates nothing: icplx - iI is read off
    # and the frame is the identity.  A quantized model extracts the identity
    # gram, a permutation.  Every other split eliminates the gram it extracts
    rng = random.Random(73)
    spaces = [HermitianSpace(gram.rows, gram) for gram in GRAMS] + [HermitianSpace(0, Matrix.zero(0, 0))]
    standard = [make_selfdual(h) for h in spaces] + [quantize(n) for n in (1, 2, 3)]
    moved = [random_selfdual(rng, n) for n in (0, 1, 2, 3)] + [
        quantize_set(random_realset(rng, size, free=True)) for size in (4, 6)]
    eliminated = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda rows: eliminated.append(rows) or rref(rows))
    for k, s in enumerate(standard + moved):
        eliminated.clear()
        space = split_eigenspaces(s).space
        assert eliminated == [] or k >= len(standard)
        assert space.gram_inv == inverse(space.gram)
    for h, s in zip(spaces, standard):
        assert extract_hermitian(s) is h


def test_a_space_takes_no_claimed_inverse():
    gram = Matrix.identity(1)
    with pytest.raises(TypeError):
        HermitianSpace(1, gram, gram)


def test_each_structure_is_its_standard_model_moved_by_its_frame():
    # `SelfDualRealModule.check` tests each law once and relies on the laws it
    # tests for the rest: the equivariant coev, the two-sided snake, the
    # eigenspaces halving the dimension and the pairing vanishing on the
    # like-signed blocks; together they make the frame carry the standard
    # model onto s
    for s, split in _structures_with_splits():
        assert conjugate_selfdual(make_selfdual(split.space), split.frame) == s
        p, c, inv = s.pairing, s.coev, s.H.inv
        assert inv @ c.conj() @ inv.transpose() == c
        assert (p @ c).is_identity() and (c @ p).is_identity()
        assert 2 * split.space.dim == s.H.dim
        minus, plus = _partner_bases(s, split)
        assert s.icplx @ plus == I * plus and s.icplx @ minus == -I * minus
        zero = Matrix.zero(split.space.dim, split.space.dim)
        assert plus.transpose() @ p @ plus == zero
        assert minus.transpose() @ p @ minus == zero


def test_extraction_is_invariant_under_transport():
    rng = random.Random(42)
    for _ in range(12):
        n = rng.randrange(1, 4)
        h = random_hermitian_space(rng, n)
        s = make_selfdual(h)
        t = random_invertible(rng, 2 * n)
        moved = conjugate_selfdual(s, t)
        moved.check()
        got = extract_hermitian(moved)
        assert got.gram.conj_transpose() == got.gram


def test_a_memo_changes_neither_equality_nor_hash():
    for gram in GRAMS[:4]:
        s = make_selfdual(HermitianSpace(gram.rows, gram))
        fresh = SelfDualRealModule(s.H, s.pairing, s.coev, s.icplx)
        split_eigenspaces(s)
        assert s._memo and not fresh._memo
        assert s == fresh and fresh == s
        assert hash(s) == hash(fresh)
        assert "_memo" not in repr(s)
    one, two = (make_selfdual(HermitianSpace(1, Matrix.identity(1) * k)) for k in (1, 2))
    assert one != two


def test_pairing_and_coev_are_dim_by_dim_matrices():
    s = standard_selfdual(1)
    assert s.pairing.shape == s.coev.shape == (2, 2)
    with pytest.raises(InvariantViolation, match="^pairing must be dim x dim$"):
        SelfDualRealModule(s.H, vec(s.pairing).transpose(), s.coev, s.icplx)


def test_each_builder_checks_its_structure_once(monkeypatch):
    calls = []
    check = SelfDualRealModule.check
    monkeypatch.setattr(SelfDualRealModule, "check", lambda s: calls.append(s) or check(s))
    rng = random.Random(50)
    s = make_selfdual(random_hermitian_space(rng, 2))
    moved = conjugate_selfdual(s, random_invertible(rng, 4))
    q = quantize(2)
    assert calls == [s, moved, q]
    for built in (s, moved, q):  # every consumer reads the kept split
        extract_hermitian(built)
        dagger(Matrix.identity(built.H.dim // 2), built, built)
    assert len(calls) == 3


def test_the_zero_space_round_trips():
    zero = HermitianSpace(0, Matrix.zero(0, 0))
    s = make_selfdual(zero)
    assert extract_hermitian(s) == zero
    assert dagger(Matrix.zero(0, 0), s, s) == Matrix.zero(0, 0)


def test_dagger_is_conjugate_transpose_for_the_standard_form():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randrange(1, 4)
        s = standard_selfdual(n)
        g = random_matrix(rng, n, n)
        assert dagger(g, s, s) == g.conj_transpose()


def test_dagger_matches_gram_adjoint_oracle():
    rng = random.Random(44)
    for _ in range(15):
        n = rng.randrange(1, 4)
        h1 = random_hermitian_space(rng, n)
        h2 = random_hermitian_space(rng, n)
        s1, s2 = make_selfdual(h1), make_selfdual(h2)
        g = random_matrix(rng, n, n)
        assert dagger(g, s1, s2) == adjoint_oracle(g, h1, h2)


def test_dagger_unitary_and_channel_assert_the_gram_oracle(monkeypatch):
    # `_adjoint` compares every dagger with the oracle, so a wrong oracle
    # fails each caller: the `dagger`, `unitary` and `channel` commands
    s = standard_selfdual(2)
    oracle = hermitian.adjoint_oracle
    monkeypatch.setattr(hermitian, "adjoint_oracle", lambda g, h1, h2: Scalar(2) * oracle(g, h1, h2))
    for call in (lambda: dagger(hadamard(), s, s), lambda: is_unitary(hadamard(), s, s),
                 lambda: density.channel(hadamard(), Matrix.from_rows([[1, 0], [0, 0]]), s)):
        with pytest.raises(InvariantViolation, match="^dagger violates the adjoint law$"):
            call()


def _literal_composite(g, s1, s2):
    """The dualization composite as the literal triple Kronecker product,
    the id1 leg carried through every factor; the reference the contracted
    `dagger_composite_dense` must equal."""
    hom = hermitian._internalize_raw(g, s1, s2)
    id1, id2 = Matrix.identity(s1.H.dim), Matrix.identity(s2.H.dim)
    composite = (kron(id1, vec(s2.pairing).transpose()) @ kron(id1, kron(hom, id2))
                 @ kron(vec(s1.coev), id2))
    return externalize_map(composite, s2, s1)


def _stored(m):
    return sum(len(row) for row in m.raw)


def test_dagger_agrees_with_the_dense_tensor_composite(monkeypatch):
    """The adjoint computed by reshaping equals the one assembled from Kronecker
    products of the pairing, coevaluation, and the map, on standard and
    conjugated models of every pair of dimensions up to 3, and that composite
    equals the literal triple product; none of the factors it builds is as
    large as the literal middle factor id1 (x) G (x) id2."""
    rng = random.Random(45)
    built = []
    monkeypatch.setattr(hermitian, "kron", lambda a, b: built.append(kron(a, b)) or built[-1])
    for model in (lambda n: make_selfdual(random_hermitian_space(rng, n)), lambda n: random_selfdual(rng, n)):
        for n1 in range(4):
            for n2 in range(4):
                s1, s2 = model(n1), model(n2)
                g = random_matrix(rng, n2, n1)
                expect = dagger(g, s1, s2)
                assert _literal_composite(g, s1, s2) == expect
                built.clear()
                assert dagger_composite_dense(g, s1, s2) == expect
                if n1 and n2:
                    hom = hermitian._internalize_raw(g, s1, s2)
                    id1, id2 = Matrix.identity(s1.H.dim), Matrix.identity(s2.H.dim)
                    assert max(map(_stored, built)) < _stored(kron(id1, kron(hom, id2)))


def test_internalize_map_between_spaces_of_different_dimension():
    rng = random.Random(55)
    for n1, n2 in ((1, 2), (2, 1), (2, 3), (3, 1)):
        s1, s2 = random_selfdual(rng, n1), random_selfdual(rng, n2)
        h1, h2 = extract_hermitian(s1), extract_hermitian(s2)
        g = random_matrix(rng, n2, n1)
        hom = internalize_map(g, s1, s2)
        assert isinstance(hom, RealHom)
        assert hom.mat.shape == (2 * n2, 2 * n1)
        assert externalize_map(hom.mat, s1, s2) == g
        assert dagger(g, s1, s2) == adjoint_oracle(g, h1, h2)


def test_dagger_is_involutive_and_contravariant():
    rng = random.Random(46)
    for _ in range(10):
        n = rng.randrange(1, 4)
        h1 = random_hermitian_space(rng, n)
        h2 = random_hermitian_space(rng, n)
        h3 = random_hermitian_space(rng, n)
        s1, s2, s3 = make_selfdual(h1), make_selfdual(h2), make_selfdual(h3)
        f = random_matrix(rng, n, n)
        g = random_matrix(rng, n, n)
        assert dagger(dagger(f, s1, s2), s2, s1) == f
        assert dagger(g @ f, s1, s3) == dagger(f, s1, s2) @ dagger(g, s2, s3)


def test_adjoint_law_on_all_basis_pairs():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randrange(1, 4)
        h = random_hermitian_space(rng, n)
        s = make_selfdual(h)
        g = random_matrix(rng, n, n)
        d = dagger(g, s, s)
        for a in range(n):
            for b in range(n):
                ea = Matrix.column([ONE if k == a else Scalar() for k in range(n)])
                eb = Matrix.column([ONE if k == b else Scalar() for k in range(n)])
                assert h.pair(ea, d @ eb) == h.pair(g @ ea, eb)


def test_gate_table():
    s = standard_selfdual(2)
    had = hadamard()
    ph = Matrix.diagonal([ONE, I])  # the phase gate
    assert (had @ had).is_identity()
    assert is_unitary(had, s, s)
    assert is_unitary(ph, s, s)
    assert is_unitary(had @ ph @ had, s, s)
    assert not is_unitary(Matrix.from_rows([[1, 1], [0, 1]]), s, s)
    assert not is_unitary(Scalar(2) * Matrix.identity(2), s, s)
    assert not is_unitary(Matrix.from_rows([[1, 0], [0, 0]]), s, s)
    # an isometry into a larger space is not unitary
    embed = Matrix.column([1, 0])
    assert is_internal_isometry(embed, standard_selfdual(1), s)
    assert not is_unitary(embed, standard_selfdual(1), s)


def test_unitary_verdict_needs_no_rank(monkeypatch):
    # dagger(g) g = id already makes a square g invertible; past the memoized
    # eigen split the verdict runs no elimination at all, so no rank either
    s = standard_selfdual(2)
    split_eigenspaces(s)

    def no_rank(rows):
        raise AssertionError("is_unitary computed a rank")

    monkeypatch.setattr(linalg, "_rref", no_rank)
    assert is_unitary(hadamard(), s, s)
    assert not is_unitary(Matrix.from_rows([[1, 1], [0, 1]]), s, s)


def test_unitary_words_are_unitary():
    rng = random.Random(48)
    for _ in range(15):
        n = rng.randrange(1, 4)
        s = standard_selfdual(n)
        w = random_unitary_word(rng, n)
        assert is_unitary(w, s, s)
        assert dagger(w, s, s) == inverse(w)


def test_isometry_verdicts_agree_between_routes():
    rng = random.Random(49)
    hits = 0
    for _ in range(40):
        n = rng.randrange(1, 3)
        h = random_hermitian_space(rng, n)
        s = make_selfdual(h)
        g = random_matrix(rng, n, n)
        if is_internal_isometry(g, s, s):
            hits += 1
    # random maps are almost never isometries; the check is the agreement
    # of the two routes, asserted inside is_internal_isometry
    assert hits <= 2


def test_pseudo_unitary_for_an_indefinite_form():
    h = HermitianSpace(2, Matrix.from_rows([[1, 0], [0, -1]]))
    s = make_selfdual(h)
    boost = Scalar(3).inv() * Matrix.from_rows([[5, 4], [4, 5]])
    assert is_unitary(boost, s, s)
