"""Graded bases, maps, complexes, decomposition and homology."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bockstein.gamma import GammaAlgebra
from bockstein.graded import (ComplexError, FieldHomology, GradedBasis,
                              GradedChainComplex, GradedMap, WindowError,
                              _verify_decomposition, decompose, dual_basis,
                              dualize, homology, induced_map)
from bockstein.lie import DgLie, PbwAlgebra, abelian
from bockstein.scalars import Matrix, PrimeField, ZpLocal
from oracles import dense_decompose, mod_p_homology_dims
from test_lie import dgl_presentations

Z3 = ZpLocal(3)
F3 = PrimeField(3)


def F(x):
    return Fraction(x)


def complex_from_blocks(ring, names, blocks, n_max):
    basis = GradedBasis(names, n_max)
    d = GradedMap(basis, basis, -1, ring)
    for n, grid in blocks.items():
        d.set_block(n, Matrix(ring, basis.dim(n - 1), basis.dim(n),
                              [[ring.of(x) for x in row] for row in grid]))
    return GradedChainComplex(basis, d, ring)


def random_complex(ring, rng, n_max=4, max_dim=3, span=9):
    """Random finite free complex: built upper-triangular in a filtration so
    that d∘d = 0 holds by conjugating a valid differential."""
    names = {n: [f"e{n}_{i}" for i in range(rng.randint(0, max_dim))]
             for n in range(n_max + 1)}
    basis = GradedBasis(names, n_max)
    d = GradedMap(basis, basis, -1, ring)
    # canonical-form differential: match columns to rows injectively with
    # p-power coefficients, then conjugate by random invertible maps
    blocks = {}
    for n in range(1, n_max + 1):
        rows, cols = basis.dim(n - 1), basis.dim(n)
        m = Matrix.zeros(ring, rows, cols)
        used = set()
        for j in range(cols):
            if rng.random() < 0.4:
                continue
            free = [i for i in range(rows) if i not in used]
            if not free:
                break
            i = rng.choice(free)
            # avoid chaining: a row used as a bottom can't be a top above;
            # enforced by zeroing columns whose index was a bottom in n+1
            m.a[i][j] = ring.of(ring.p ** rng.randint(0, 2))
            used.add(i)
        blocks[n] = m
    # kill d∘d by zeroing column j of d_{n+1} when e_j is a bottom of d_n...
    # simpler: only allow a column in degree n+1 to hit rows not used as
    # bottoms by d_n tops; redo greedily
    tops = {n: set() for n in range(n_max + 2)}
    for n in range(n_max, 0, -1):
        m = blocks[n]
        for j in range(m.cols):
            if j in tops[n + 1]:
                for i in range(m.rows):
                    m.a[i][j] = ring.zero
            for i in range(m.rows):
                if not ring.is_zero(m.a[i][j]):
                    tops[n].add(i)
    for n in range(1, n_max + 1):
        d.set_block(n, blocks[n])
    C = GradedChainComplex(basis, d, ring)
    # conjugate by random unimodular change of basis per degree
    g = {}
    for n in range(n_max + 1):
        dim = basis.dim(n)
        t = Matrix.identity(ring, dim)
        for _ in range(2 * dim):
            i, j = rng.randrange(dim or 1), rng.randrange(dim or 1)
            if dim and i != j:
                c = ring.of(rng.randint(-span, span))
                for r in range(dim):
                    t.a[r][j] += c * t.a[r][i]
        g[n] = t
    d2 = GradedMap(basis, basis, -1, ring)
    for n in range(1, n_max + 1):
        d2.set_block(n, g[n - 1].inverse() * d.block(n) * g[n])
    return GradedChainComplex(basis, d2, ring)


class TestBasisAndMaps:
    def test_window_enforced(self):
        with pytest.raises(WindowError):
            GradedBasis({5: ["x"]}, 4)

    def test_block_shape_checked(self):
        b = GradedBasis({0: ["a"], 1: ["x", "y"]}, 1)
        f = GradedMap(b, b, -1, Z3)
        with pytest.raises(ComplexError):
            f.set_block(1, Matrix.zeros(Z3, 2, 2))

    def test_compose_degrees(self):
        b = GradedBasis({0: ["a"], 1: ["x"], 2: ["u"]}, 2)
        f = GradedMap(b, b, -1, Z3)
        f.set_block(1, Matrix(Z3, 1, 1, [[F(2)]]))
        f.set_block(2, Matrix(Z3, 1, 1, [[F(5)]]))
        ff = f.compose(f)
        assert ff.degree == -2
        assert ff.block(2).a == [[F(10)]]

    def test_dualize_signs(self):
        # sign convention: block at n picks up (-1)^{deg(f)·n}; the double
        # dual is then (-1)^{deg(f)} times the original map.
        b = GradedBasis({0: ["a"], 1: ["x"], 2: ["u"]}, 2)
        db = dual_basis(b)
        f = GradedMap(b, b, -1, Z3)
        f.set_block(1, Matrix(Z3, 1, 1, [[F(2)]]))
        f.set_block(2, Matrix(Z3, 1, 1, [[F(7)]]))
        fd = dualize(f, db, db)
        assert fd.degree == 1
        assert fd.block(0).a == [[F(-2)]]      # (-1)^{(-1)·1} · 2
        assert fd.block(1).a == [[F(7)]]       # (-1)^{(-1)·2} · 7
        fdd = dualize(fd, b, b)
        neg = GradedMap(b, b, -1, Z3)
        for n, m in f.blocks.items():
            neg.set_block(n, m.scaled(F(-1)))
        assert fdd == neg


@st.composite
def keyed_algebras(draw):
    """UL on 1-3 abelian generators of degree 1-4 or on x(1), y(2), z(3)
    with [x,y] = z, or Γ on 1-3 generators, over Z_(3), F_3, Z_(5) or F_5
    with nmax ≤ 9: bases keyed by PBW monomials or by Γ words."""
    ring = draw(st.sampled_from([Z3, F3, ZpLocal(5), PrimeField(5)]))
    n_max = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["abelian", "bracket", "gamma"]))
    if kind == "bracket":
        return PbwAlgebra(DgLie(ring, n_max, [("x", 1), ("y", 2), ("z", 3)],
                                {(0, 1): {2: 1}}))
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    gens = [(f"g{i}", d) for i, d in enumerate(degrees)]
    if kind == "gamma":
        return GammaAlgebra(ring, n_max, gens)
    return PbwAlgebra(abelian(ring, n_max, gens))


class TestSparseConversion:
    @settings(max_examples=200, deadline=None)
    @given(keyed_algebras(), st.sampled_from([-1, 0, 1]), st.data())
    def test_image_and_set_columns_match_dense_route(self, A, degree, data):
        # set_columns against from_columns of to_vector; image against
        # to_vector -> apply -> from_vector
        ring, basis = A.ring, A.basis

        def element(n):
            cs = data.draw(st.lists(st.integers(-3, 3), min_size=A.dim(n),
                                    max_size=A.dim(n)))
            return basis.from_vector(n, [ring.of(c) for c in cs], ring)

        sparse = GradedMap(basis, basis, degree, ring)
        dense = GradedMap(basis, basis, degree, ring)
        for n in range(max(0, -degree), basis.n_max + 1 - max(0, degree)):
            cols = [element(n + degree) for _ in range(A.dim(n))]
            sparse.set_columns(n, cols)
            if cols:
                dense.set_block(n, Matrix.from_columns(
                    ring, A.dim(n + degree),
                    [basis.to_vector(n + degree, c, ring) for c in cols]))
        assert sparse.blocks.keys() == dense.blocks.keys()
        assert sparse == dense
        for n in range(basis.n_max + 1):
            x = element(n)
            want = basis.from_vector(
                n + degree, dense.apply(n, basis.to_vector(n, x, ring)), ring)
            assert sparse.image(n, x) == want

    def test_key_outside_its_degree_raises(self):
        A = PbwAlgebra(abelian(Z3, 6, [("x", 2)]))
        f = GradedMap(A.basis, A.basis, 0, Z3)
        x2 = {(0, 0): Z3.one}              # x^2 sits in degree 4
        with pytest.raises(ComplexError):
            A.basis.to_vector(2, x2, Z3)
        with pytest.raises(ComplexError):
            f.set_columns(2, [x2])
        with pytest.raises(ComplexError):
            f.image(2, x2)


def test_complex_rejects_d_squared_nonzero():
    # d∘d(c1) = 2·a0 + 5·a1 and d∘d(e) = b0 + b1: degree 2 is named first,
    # then the first source and target basis vectors
    with pytest.raises(ComplexError,
                       match=r"^d∘d ≠ 0 at degree 2: d\(d\(c1\)\) has "
                             r"coefficient 2 on a0$"):
        complex_from_blocks(
            Z3, {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"], 3: ["e"]},
            {1: [[0, 2], [3, 2]], 2: [[0, 1], [0, 1]], 3: [[0], [1]]},
            n_max=3)


def z_to_z_times_p(k=1):
    """0 -> Z --p^k--> Z -> 0 in degrees 1, 0."""
    return complex_from_blocks(Z3, {0: ["x"], 1: ["y"]},
                               {1: [[3 ** k]]}, n_max=2)


class TestDecomposition:
    def test_single_elementary_piece(self):
        C = z_to_z_times_p(2)
        dec = decompose(C)
        elem = [pc for pc in dec.pieces if pc.kind == "elementary"]
        assert len(elem) == 1 and elem[0].exponent == 2
        assert sum(1 for pc in dec.pieces if pc.kind == "free") == 0

    def test_homology_torsion(self):
        H = homology(z_to_z_times_p(2))
        assert H.betti(0) == 0 and H.torsion_exponents(0) == [2]
        assert H.betti(1) == 0 and H.torsion_exponents(1) == []
        assert H.mod_p_dim(0) == 1 and H.mod_p_dim(1) == 1

    def test_window_cut(self):
        H = homology(z_to_z_times_p())
        with pytest.raises(WindowError):
            H.betti(2)     # top window degree untrusted
        with pytest.raises(WindowError):
            H.betti(-1)

    def test_two_step_chain(self):
        # Z --1--> Z --0--> Z --3--> Z, degrees 3..0; middle map must stay 0
        C = complex_from_blocks(
            Z3, {0: ["a"], 1: ["b"], 2: ["c"], 3: ["d"]},
            {1: [[3]], 3: [[1]]}, n_max=3)
        H = homology(C)
        assert H.torsion_exponents(0) == [1]
        assert H.betti(1) == 0 and H.betti(2) == 0
        assert H.mod_p_dim(1) == 1

    def test_random_complexes_match_rank_nullity(self):
        rng = random.Random(42)
        for _ in range(30):
            C = random_complex(Z3, rng)
            H = homology(C)
            dims = mod_p_homology_dims(C, 3)
            for n in range(C.n_max):
                assert H.mod_p_dim(n) == dims[n], f"degree {n}"

    @pytest.mark.parametrize("n_max, max_dim", [(4, 3), (8, 8)],
                             ids=["small", "large"])
    def test_representative_coordinates_inverse(self, n_max, max_dim):
        rng = random.Random(3)
        C = random_complex(Z3, rng, n_max=n_max, max_dim=max_dim)
        dec = decompose(C)
        for n in range(C.n_max + 1):
            for j in range(C.dim(n)):
                rep = dec.representative(n, j)
                coords = dec.coordinates(n, rep)
                assert coords == [Z3.one if i == j else Z3.zero
                                  for i in range(C.dim(n))]


RINGS = [Z3, ZpLocal(5), F3, PrimeField(5)]


def assert_matches_dense(C):
    """decompose(C) equals the dense reference entry for entry."""
    dec = decompose(C)
    pieces, P, Pinv = dense_decompose(C)
    assert dec.pieces == pieces
    for n in range(C.n_max + 1):
        dim = C.dim(n)
        assert Matrix.from_sparse_columns(C.ring, dim, dec.P[n]).a == P[n].a
        assert Matrix.from_sparse_columns(
            C.ring, dim, dec.Pinv[n]).transpose().a == Pinv[n].a


class TestSparseKernel:
    @pytest.mark.parametrize("n_max, max_dim, examples",
                             [(4, 4, 150), (10, 60, 3)],
                             ids=["small", "large"])
    def test_random_complexes_match_dense_reference(self, n_max, max_dim,
                                                    examples):
        @settings(max_examples=examples, deadline=None)
        @given(st.sampled_from(RINGS), st.integers(0, 2 ** 32))
        def check(ring, seed):
            assert_matches_dense(random_complex(
                ring, random.Random(seed), n_max=n_max, max_dim=max_dim))
        check()

    @settings(max_examples=60, deadline=None)
    @given(dgl_presentations())
    def test_ul_complexes_match_dense_reference(self, L):
        # sparse blocks with many ties in valuation: the pivot tie-break
        # decides the basis, hence the class names
        A = PbwAlgebra(L)
        assert_matches_dense(A.as_complex())
        if not L.ring.is_field:
            d = A.differential().reduce_mod_p()
            assert_matches_dense(GradedChainComplex(A.basis, d, d.ring))

    @pytest.mark.parametrize("n, j", [(0, 0), (1, 0), (2, 0)])
    def test_corrupted_P_fails_verification(self, n, j):
        # degree 0 and cycles are caught by P^-1·P = 1, the rest by d·P
        C = complex_from_blocks(Z3, {0: ["a"], 1: ["b", "c"], 2: ["e"]},
                                {1: [[3, 1]], 2: [[1], [-3]]}, n_max=2)
        dec = decompose(C)
        _verify_decomposition(dec)
        col = dec.P[n][j]
        i = min(col)
        col[i] = col[i] + 1
        with pytest.raises(ComplexError, match=f"failed at degree {n}"):
            _verify_decomposition(dec)


class TestFieldHomology:
    def test_dims_and_classes(self):
        # over F_3: x --0--> y (d = 3 = 0), so H = F_3 in both degrees
        basis = GradedBasis({0: ["x"], 1: ["y"]}, 1)
        d = GradedMap(basis, basis, -1, F3)
        d.set_block(1, Matrix(F3, 1, 1, [[0]]))
        H = FieldHomology(basis, d)
        assert H.dim(0) == 1 and H.dim(1) == 1
        assert H.class_of(0, [2]) == [2]

    def test_boundaries_vanish_in_homology(self):
        basis = GradedBasis({0: ["x", "y"], 1: ["u"]}, 1)
        d = GradedMap(basis, basis, -1, F3)
        d.set_block(1, Matrix(F3, 2, 1, [[1], [2]]))
        H = FieldHomology(basis, d)
        assert H.dim(0) == 1 and H.dim(1) == 0
        assert H.class_of(0, [1, 2]) == [0]

    def test_not_a_cycle_raises(self):
        basis = GradedBasis({0: ["x"], 1: ["u"]}, 1)
        d = GradedMap(basis, basis, -1, F3)
        d.set_block(1, Matrix(F3, 1, 1, [[1]]))
        H = FieldHomology(basis, d)
        with pytest.raises(ComplexError):
            H.class_of(1, [1])

    def test_induced_identity(self):
        basis = GradedBasis({0: ["x", "y"], 1: ["u"]}, 1)
        d = GradedMap(basis, basis, -1, F3)
        d.set_block(1, Matrix(F3, 2, 1, [[1], [0]]))
        H = FieldHomology(basis, d)
        ident = GradedMap(basis, basis, 0, F3)
        for n in (0, 1):
            ident.set_block(n, Matrix.identity(F3, basis.dim(n)))
        ind = induced_map(ident, H, H, 1)
        for n in (0, 1):
            assert ind[n] == Matrix.identity(F3, H.dim(n))

    def test_random_complexes_and_duals(self):
        # random Z_(3) complexes reduced mod 3, and their degree +1 duals
        rng = random.Random(11)
        for _ in range(100):
            C = random_complex(Z3, rng)
            dims = mod_p_homology_dims(C, 3)
            d = C.d.reduce_mod_p()
            db = dual_basis(C.basis)
            for basis, dmap in ((C.basis, d), (db, dualize(d, db, db))):
                H = FieldHomology(basis, dmap)
                for n in range(C.n_max):
                    assert H.dim(n) == dims[n], f"degree {n}"
                for n in range(C.n_max + 1):
                    for j in range(H.dim(n)):
                        assert H.class_of(n, H.representative(n, j)) == \
                            [1 if i == j else 0 for i in range(H.dim(n))]
                    src = n - dmap.degree
                    if not 0 <= src <= C.n_max:
                        continue
                    x = [rng.randrange(3) for _ in range(basis.dim(src))]
                    assert H.class_of(n, dmap.apply(src, x)) == \
                        [0] * H.dim(n)
