"""Graded bases, maps, complexes, decomposition and homology."""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bockstein import scalars
from bockstein.cli import builtin_dgl
from bockstein.dglfile import parse_dgl
from bockstein.gamma import GammaAlgebra
from bockstein.graded import (ComplexError, FieldHomology, GradedBasis,
                              GradedChainComplex, GradedMap, Piece,
                              WindowError, _verify_decomposition, decompose,
                              dual_basis, dualize, homology, induced_map)
from bockstein.lie import DgLie, PbwAlgebra, abelian
from bockstein.scalars import Matrix, PrimeField, ZpLocal
from oracles import (certify_piece_counts, dense, dense_decompose,
                     from_vector, mod_p_homology_dims, sparse, to_vector)
from test_lie import dgl_presentations

Z3 = ZpLocal(3)
F3 = PrimeField(3)


def F(x):
    return Fraction(x)


def golden_lie(name, n_max=None):
    """A golden input: a built-in example or a `tests/golden` DGL file,
    in its own window or in n_max."""
    if name in ("example1", "example2", "model"):
        L = builtin_dgl(name)[0]
    else:
        L = parse_dgl((Path(__file__).parent / "golden"
                       / f"{name}.dgl").read_text())
    return L if n_max is None else L.replace(n_max=n_max)


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

    def test_names_are_made_on_first_use(self):
        # the name function runs per key on its first read, not at
        # construction, and once; bases compare by their keys and window
        made = []

        def name(key):
            made.append(key)
            return f"k{key}"

        b = GradedBasis({0: [0], 1: [1, 2]}, 1, name)
        assert made == []
        assert b.name(1, 1) == "k2"
        assert made == [2]
        assert b.names(1) == ["k1", "k2"] and b.names(0) == ["k0"]
        assert made == [2, 1, 0]
        assert GradedBasis({0: ["x"]}, 0).names(0) == ["x"]
        assert b == GradedBasis({0: [0], 1: [1, 2]}, 1)
        assert b != GradedBasis({0: [0], 1: [2, 1]}, 1, name)
        assert b != GradedBasis({0: [0], 1: [1, 2]}, 2, name)

    def test_column_count_checked(self):
        b = GradedBasis({0: ["a"], 1: ["x", "y"]}, 1)
        f = GradedMap(b, b, -1, Z3)
        with pytest.raises(ComplexError, match="has 1 columns, expected 2"):
            f.set_columns(1, [{"a": 1}])
        with pytest.raises(ComplexError, match="is not a basis element"):
            f.set_columns(1, [{"a": 1}, {"x": 1}])

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

    def test_setting_a_degree_replaces_its_block(self):
        # through either setter, a new block replaces the old one, and an
        # all-zero block leaves nothing behind
        b = GradedBasis({0: ["x"], 1: ["y"]}, 1)
        f = GradedMap(b, b, -1, Z3)
        f.set_block(1, Matrix(Z3, 1, 1, [[2]]))
        f.set_block(1, Matrix.zeros(Z3, 1, 1))
        g = GradedMap(b, b, -1, Z3)
        g.set_columns(1, [{"x": 2}])
        g.set_columns(1, [{}])
        for m in (f, g):
            assert m.block(1).a == [[0]]
            assert m.image(1, {"y": 1}) == {}
            assert m.is_zero()
            assert m == GradedMap(b, b, -1, Z3)
        g.set_columns(1, [{"x": 2}])
        g.set_columns(1, [{"x": 1}])
        assert g.image(1, {"y": 1}) == {"x": 1}


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
        # to_vector -> Matrix.apply -> from_vector.  Then the column
        # arithmetic of GradedMap (apply, compose, +, ==, differs_at,
        # is_zero, reduce_mod_p, dualize) against dense Matrix arithmetic
        # on the blocks, the reference
        ring, basis, n_max = A.ring, A.basis, A.basis.n_max
        window = range(n_max + 1)

        def element(n):
            cs = data.draw(st.lists(st.integers(-3, 3), min_size=A.dim(n),
                                    max_size=A.dim(n)))
            return from_vector(basis, n, [ring.of(c) for c in cs], ring)

        def random_maps(deg):
            """The same random map, set by columns and by dense blocks."""
            by_cols = GradedMap(basis, basis, deg, ring)
            by_blocks = GradedMap(basis, basis, deg, ring)
            for n in range(max(0, -deg), n_max + 1 - max(0, deg)):
                cols = [element(n + deg) for _ in range(A.dim(n))]
                by_cols.set_columns(n, cols)
                if cols:
                    by_blocks.set_block(n, Matrix.from_columns(
                        ring, A.dim(n + deg),
                        [to_vector(basis, n + deg, c, ring) for c in cols]))
            return by_cols, by_blocks

        f, dense_f = random_maps(degree)
        assert f.blocks.keys() == dense_f.blocks.keys()
        assert f == dense_f
        for n in window:
            x = element(n)
            v = to_vector(basis, n, x, ring)
            want = dense_f.block(n).apply(v)
            assert f.image(n, x) == from_vector(basis, n + degree, want, ring)
            assert dense(f.apply(n, sparse(v)), len(want)) == want

        h = random_maps(degree)[0]
        g = random_maps(data.draw(st.sampled_from([-1, 0, 1])))[0]
        neg = GradedMap(basis, basis, degree, ring)
        for n, m in f.blocks.items():
            neg.set_block(n, m.scaled(ring.neg(ring.one)))
        fg = f.compose(g)
        for n in window:
            mid = n + g.degree
            if 0 <= mid <= n_max:
                assert fg.block(n) == f.block(mid) * g.block(n)
            else:
                assert fg.block(n).is_zero()
            assert (f + h).block(n) == f.block(n) + h.block(n)
            if not ring.is_field:
                assert (f.reduce_mod_p().block(n)
                        == f.block(n).reduce_mod_p())
        differ = [n for n in window if f.block(n) != h.block(n)]
        assert f.differs_at(h) == min(differ, default=None)
        assert (f == h) == (not differ)
        assert f.is_zero() == all(f.block(n).is_zero() for n in window)
        assert (f + neg).is_zero()
        assert (f + neg) == GradedMap(basis, basis, degree, ring)

        db = dual_basis(basis)
        fd = dualize(f, db, db)
        for n in window:
            if 0 <= n + degree <= n_max:
                want = f.block(n).transpose()
                if (degree * n) % 2:
                    want = want.scaled(ring.neg(ring.one))
                assert fd.block(n + degree) == want

    def test_key_outside_its_degree_raises(self):
        A = PbwAlgebra(abelian(Z3, 6, [("x", 2)]))
        f = GradedMap(A.basis, A.basis, 0, Z3)
        x2 = {(0, 0): Z3.one}              # x^2 sits in degree 4
        with pytest.raises(ComplexError):
            A.basis.to_column(2, x2, Z3)
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
            everyone = list(range(C.dim(n)))
            for j in range(C.dim(n)):
                rep = dec.representative(n, j)
                assert dec.coordinates(n, rep, everyone) == {j: Z3.one}


RINGS = [Z3, ZpLocal(5), F3, PrimeField(5)]


def assert_matches_dense(C):
    """decompose(C) equals the dense reference entry for entry: P exactly,
    P^-1 (kept over F_p) as the reference's P^-1 reduced mod p."""
    dec = decompose(C)
    pieces, P, Pinv = dense_decompose(C)
    assert dec.pieces == pieces
    fp = C.ring.residue_field()
    for n in range(C.n_max + 1):
        dim = C.dim(n)
        assert Matrix.from_sparse_columns(C.ring, dim, dec.P[n]).a == P[n].a
        assert (Matrix.from_sparse_columns(fp, dim, dec.Pinv[n]).a
                == Pinv[n].reduce_mod_p().a)


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

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(RINGS), st.integers(0, 2 ** 32))
    def test_coordinates_match_dense_reference(self, ring, seed):
        # the reader on a random subset of the new basis in a random order
        # against the dense P^-1 reduced mod p, applied to a random chain,
        # restricted to that subset and renumbered by its order
        rng = random.Random(seed)
        C = random_complex(ring, rng, n_max=4, max_dim=4)
        dec = decompose(C)
        Pinv = dense_decompose(C)[2]
        p = ring.p
        for n in range(C.n_max + 1):
            dim = C.dim(n)
            chosen = rng.sample(range(dim), rng.randint(0, dim))
            positions = [None] * dim
            for h, i in enumerate(chosen):
                positions[i] = h
            col = {j: ring.of(F(rng.randint(-2 * p, 2 * p))
                              / rng.choice([1, 2, 4]))
                   for j in range(dim) if rng.random() < 0.7}
            col = {j: x for j, x in col.items() if x}
            rows = Pinv[n].reduce_mod_p().a
            want = [sum(rows[i][j] * ring.reduce_mod_p(x)
                        for j, x in col.items()) % p for i in chosen]
            assert dec.coordinates(n, col, positions) == sparse(want), n

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

    @pytest.mark.parametrize("name", ["example1", "example2",
                                      "nonabelian16"])
    def test_integral_entries_stay_ints(self, name):
        # the fast path: an integral Z_(p) entry is an int, never a
        # Fraction.  Results would stay correct without it, only slow.
        if name == "nonabelian16":
            golden = Path(__file__).parent / "golden" / "nonabelian16.dgl"
            L = parse_dgl(golden.read_text())
        else:
            L = builtin_dgl(name)[0]
        assert L.ring.p == 3
        A = PbwAlgebra(L)
        d = A.differential()
        entries = [x for n in range(L.n_max + 1)
                   for col in d.sparse_columns(n) for x in col.values()]
        assert entries and all(type(x) is int for x in entries)
        dec = decompose(A.as_complex())
        # a pivot scaled by a unit u ≠ ±1 puts true quotients such as 1/2
        # into P (through the column operations); those alone are Fractions
        entries = [x for n in dec.P for line in dec.P[n]
                   for x in line.values()]
        assert entries and all(type(x) is int or x.denominator != 1
                               for x in entries)
        # P^-1 is kept over F_p: no Fraction, no zero, nothing unreduced
        entries = [x for n in dec.Pinv for line in dec.Pinv[n]
                   for x in line.values()]
        assert entries and all(type(x) is int and 1 <= x < L.ring.p
                               for x in entries)

    def test_inverse_only_for_scaled_pivot_rows_with_other_entries(self):
        # a pivot p^v·u with u ≠ 1 is set to p^v in closed form; u^-1 over
        # Z_(p) is computed only to scale the pivot row's other entries,
        # once, right after the unit is found (P^-1 is scaled mod p)
        class CountingZp(ZpLocal):
            def __init__(self, p):
                super().__init__(p)
                object.__setattr__(self, "events", [])

            def unit_part(self, a):
                u = super().unit_part(a)
                if u != 1:
                    self.events.append(("scaled", u))
                return u

            def inv(self, a):
                self.events.append(("inv", a))
                return super().inv(a)

        def events(C):
            C.ring.events.clear()
            decompose(C)
            return C.ring.events

        golden = Path(__file__).parent / "golden" / "nonabelian16.dgl"
        L = parse_dgl(golden.read_text())
        assert L.n_max == 16
        ev = events(PbwAlgebra(L.replace(ring=CountingZp(3))).as_complex())
        scaled = [i for i, e in enumerate(ev) if e[0] == "scaled"]
        inverted = [i for i, e in enumerate(ev) if e[0] == "inv"]
        assert all(i - 1 in scaled and ev[i - 1][1] == ev[i][1]
                   for i in inverted)
        assert 0 < len(inverted) < len(scaled)
        # d e = 2·3·a, a pivot alone in its row: scaled, never inverted;
        # d f = 2·3·a and d g = 3a, a pivot whose row holds 3: inverted once
        alone = complex_from_blocks(
            CountingZp(3), {0: ["a"], 1: ["e"]}, {1: [[6]]}, n_max=1)
        assert events(alone) == [("scaled", 2)]
        shared = complex_from_blocks(
            CountingZp(3), {0: ["a"], 1: ["f", "g"]}, {1: [[6, 3]]},
            n_max=1)
        assert events(shared) == [("scaled", 2), ("inv", 2)]

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

    @pytest.mark.parametrize("n, i", [(0, 0), (1, 0), (1, 1), (2, 0)])
    def test_corrupted_Pinv_fails_verification(self, n, i):
        # P^-1 is kept mod p: an entry moved by 1 breaks P^-1·P = 1 over F_p
        C = complex_from_blocks(Z3, {0: ["a"], 1: ["b", "c"], 2: ["e"]},
                                {1: [[3, 1]], 2: [[1], [-3]]}, n_max=2)
        dec = decompose(C)
        row = dec.Pinv[n][i]
        k = min(row)
        row[k] = (row[k] + 1) % 3
        if not row[k]:
            del row[k]
        with pytest.raises(ComplexError, match=f"failed at degree {n}"):
            _verify_decomposition(dec)

    @pytest.mark.parametrize("n, j, caught", [(0, 0, 1), (1, 0, 1),
                                              (2, 0, 2)])
    def test_P_corrupted_by_p_fails_verification(self, n, j, caught):
        # an entry of P moved by p is invisible to P^-1·P = 1 over F_p, so
        # d·P = P·D over Z_(p) must catch it: at its own degree, or one up
        # where P[0] enters D
        C = complex_from_blocks(Z3, {0: ["a"], 1: ["b", "c"], 2: ["e"]},
                                {1: [[3, 1]], 2: [[1], [-3]]}, n_max=2)
        dec = decompose(C)
        col = dec.P[n][j]
        i = min(col)
        col[i] = col[i] + 3
        with pytest.raises(ComplexError, match=f"failed at degree {caught}"):
            _verify_decomposition(dec)

    def test_pivot_search_work_follows_the_pivots(self, monkeypatch):
        # the search goes through the heap (every row with an entry is
        # pushed), and each step pushes the rows it changed and pops what
        # went stale, so the heap work follows the pivots (about 8
        # operations per pivot here), not the rows left at each step
        C = PbwAlgebra(golden_lie("nonabelian16", n_max=24)).as_complex()
        calls = []
        for name in ("heappush", "heappop"):
            op = getattr(scalars, name)
            monkeypatch.setattr(scalars, name,
                                lambda *a, op=op: calls.append(1) or op(*a))
        pivots = sum(pc.kind == "elementary" for pc in decompose(C).pieces)
        assert pivots == 2195
        assert pivots <= len(calls) <= 16 * pivots


class TestPieceCertificate:
    @pytest.mark.parametrize("name, n_max", [
        ("example1", None), ("example2", None), ("model", None),
        ("four4", None), ("twist3", None), ("nonabelian16", None),
        ("nonabelian16", 40)])
    def test_golden_decompositions_pass(self, name, n_max):
        C = PbwAlgebra(golden_lie(name, n_max)).as_complex()
        certify_piece_counts(C, decompose(C).pieces)

    def test_wrong_piece_lists_fail(self):
        # the model has free, exponent-0 and torsion pieces
        C = PbwAlgebra(golden_lie("model")).as_complex()
        pieces = decompose(C).pieces
        unit = next(i for i, pc in enumerate(pieces)
                    if pc.kind == "elementary" and pc.exponent == 0)
        torsion = next(i for i, pc in enumerate(pieces) if pc.exponent > 0)
        free = next(i for i, pc in enumerate(pieces) if pc.kind == "free")

        def edit(i, *new):
            return pieces[:i] + list(new) + pieces[i + 1:]

        with pytest.raises(AssertionError, match="exponent-0 pieces"):
            certify_piece_counts(C, edit(unit, replace(pieces[unit],
                                                       exponent=1)))
        for i in (unit, torsion, free):
            with pytest.raises(AssertionError, match="pieces cover"):
                certify_piece_counts(C, edit(i))
        # a torsion piece read as two free ones covers the same basis with
        # the same exponent-0 count, but one elementary piece too few
        pc = pieces[torsion]
        with pytest.raises(AssertionError, match="elementary pieces"):
            certify_piece_counts(C, edit(
                torsion, Piece("free", pc.top_degree, pc.top_index),
                Piece("free", pc.top_degree - 1, pc.bottom_index)))


class TestFieldHomology:
    def test_dims_and_classes(self):
        # over F_3: x --0--> y (d = 3 = 0), so H = F_3 in both degrees
        basis = GradedBasis({0: ["x"], 1: ["y"]}, 1)
        d = GradedMap(basis, basis, -1, F3)
        d.set_block(1, Matrix(F3, 1, 1, [[0]]))
        H = FieldHomology(basis, d)
        assert H.dim(0) == 1 and H.dim(1) == 1
        assert H.class_of(0, {0: 2}) == {0: 2}

    def test_boundaries_vanish_in_homology(self):
        basis = GradedBasis({0: ["x", "y"], 1: ["u"]}, 1)
        d = GradedMap(basis, basis, -1, F3)
        d.set_block(1, Matrix(F3, 2, 1, [[1], [2]]))
        H = FieldHomology(basis, d)
        assert H.dim(0) == 1 and H.dim(1) == 0
        assert H.class_of(0, {0: 1, 1: 2}) == {}

    def test_not_a_cycle_raises(self):
        basis = GradedBasis({0: ["x"], 1: ["u"]}, 1)
        d = GradedMap(basis, basis, -1, F3)
        d.set_block(1, Matrix(F3, 1, 1, [[1]]))
        H = FieldHomology(basis, d)
        with pytest.raises(ComplexError):
            H.class_of(1, {0: 1})

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
            assert ind[n] == [{j: 1} for j in range(H.dim(n))]

    def test_induced_map_keeps_one_table_per_degree(self):
        # H_0 = <x, y>, H_1 = 0: the two classes of degree 0, read twice
        # through the one position map of their degree
        basis = GradedBasis({0: ["x", "y", "z"], 1: ["u"]}, 1)
        d = GradedMap(basis, basis, -1, F3)
        d.set_sparse_columns(1, [{2: 1}])
        H = FieldHomology(basis, d)
        ident = GradedMap(basis, basis, 0, F3)
        for n in (0, 1):
            ident.set_sparse_columns(n, [{j: 1} for j in range(basis.dim(n))])
        for _ in range(2):
            assert induced_map(ident, H, H, 1) == {0: [{0: 1}, {1: 1}],
                                                   1: []}

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
                            {j: 1}
                    src = n - dmap.degree
                    if not 0 <= src <= C.n_max:
                        continue
                    x = [rng.randrange(3) for _ in range(basis.dim(src))]
                    assert H.class_of(n, dmap.apply(src, sparse(x))) == {}
