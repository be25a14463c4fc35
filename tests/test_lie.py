"""DGL validation, PBW bases, products, coproducts, primitives."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bockstein.dglfile import parse_dgl
from bockstein.graded import homology
from bockstein.lie import DgLie, LieError, PbwAlgebra, abelian
from bockstein.scalars import Matrix, PrimeField, ZpLocal, accumulate
from oracles import (coproduct_by_products, dense, derive_by_straightening,
                     from_vector, jacobi_violations, sparse, straighten,
                     tensor_mul, to_vector, ul_d_by_leibniz, ul_primitives,
                     ul_tensor_d_by_leibniz)

Z3 = ZpLocal(3)
F3 = PrimeField(3)


def example1(ring=Z3, n=1, n_max=12):
    """L_ab(e, f), |e| = 2n-1, |f| = 2n, ∂f = p·e."""
    return DgLie(ring, n_max, [("e", 2 * n - 1), ("f", 2 * n)],
                 {}, {1: {0: ring.p}})


# Two non-abelian shapes, each with a bracket the straightening must use:
# [x,y] = z on x(1), y(2), z(3), and the odd self-bracket [x,x] = z on
# x(1), z(2).
NON_ABELIAN = [([("x", 1), ("y", 2), ("z", 3)], {(0, 1): {2: 1}}),
               ([("x", 1), ("z", 2)], {(0, 0): {1: 1}})]


@st.composite
def ul_presentations(draw):
    """DgLie arguments (ring, nmax, generators, brackets) over Z_(3), F_3,
    Z_(5) or F_5 with nmax ≤ 12: a non-abelian shape or 2-4 abelian
    generators of degree 1-6."""
    ring = draw(st.sampled_from([Z3, F3, ZpLocal(5), PrimeField(5)]))
    n_max = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(NON_ABELIAN + [None]))
    if shape is not None:
        return (ring, n_max) + shape
    degrees = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    return ring, n_max, [(f"g{i}", d) for i, d in enumerate(degrees)], {}


@st.composite
def dgl_presentations(draw):
    """Valid DGLs with a nonzero ∂ over Z_(3), F_3, Z_(5) or F_5, nmax ≤ 10:
    one or two torsion pairs e(m), f(m+1) with ∂f = c·e; x(1), y(2), z(3),
    w(4) with [x,y] = z and ∂w = c·z; x(1), z(2), u(3) with [x,x] = z and
    ∂u = c·z; or h(2), a(1), k(3), g(3), m(4) with [a,h] = k, [a,g] = m,
    ∂g = c·h and ∂m = -c·k, where the image h of g must pass a, which it
    brackets with."""
    ring = draw(st.sampled_from([Z3, F3, ZpLocal(5), PrimeField(5)]))
    n_max = draw(st.integers(1, 10))
    c = draw(st.sampled_from([1, 2, 3, 9, -5]))
    shape = draw(st.sampled_from(["pairs", "xyzw", "xzu", "hakgm"]))
    if shape == "hakgm":
        return DgLie(ring, n_max,
                     [("h", 2), ("a", 1), ("k", 3), ("g", 3), ("m", 4)],
                     {(1, 0): {2: 1}, (1, 3): {4: 1}}, {3: {0: c}, 4: {2: -c}})
    if shape == "xyzw":
        return DgLie(ring, n_max, [("x", 1), ("y", 2), ("z", 3), ("w", 4)],
                     {(0, 1): {2: 1}}, {3: {2: c}})
    if shape == "xzu":
        return DgLie(ring, n_max, [("x", 1), ("z", 2), ("u", 3)],
                     {(0, 0): {1: 1}}, {2: {1: c}})
    gens, diff = [], {}
    for m in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)):
        k = len(gens)
        diff[k + 1] = {k: c}
        gens += [(f"e{k}", m), (f"f{k}", m + 1)]
    return DgLie(ring, n_max, gens, {}, diff)


def random_element(data, A, n):
    """A random element of degree n drawn through hypothesis."""
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=A.dim(n),
                                max_size=A.dim(n)))
    return from_vector(A.basis, n, [A.ring.of(c) for c in coeffs], A.ring)


@st.composite
def derivation_images(draw, A):
    """A degree, -1 or +1, and generator images of that degree: sums of
    monomials of at most two letters (the shapes of cce's d0 and d1), with
    the empty monomial for a degree-1 generator at degree -1."""
    degree = draw(st.sampled_from([-1, 1]))
    images = {}
    for g, n in enumerate(A.L.degrees):
        monos = [m for m in A.monomials(n + degree) if len(m) <= 2] \
            if 0 <= n + degree <= A.n_max else []
        chosen = draw(st.lists(st.sampled_from(monos), max_size=3,
                               unique=True)) if monos else []
        images[g] = {m: A.ring.of(draw(st.sampled_from([1, 2, -1, 3, -5])))
                     for m in chosen}
    return degree, images


@st.composite
def random_presentations(draw):
    """DgLie arguments with random brackets and ∂ over Z_(3), F_3 or Z_(5):
    2-4 generators of degree 1-3, mostly invalid."""
    ring = draw(st.sampled_from([Z3, F3, ZpLocal(5)]))
    degrees = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    gens = range(len(degrees))
    targets = st.dictionaries(st.sampled_from(gens),
                              st.sampled_from([1, 2, -1, 3]), max_size=2)
    brackets = draw(st.dictionaries(st.tuples(st.sampled_from(gens),
                                              st.sampled_from(gens)),
                                    targets, max_size=5))
    diff = draw(st.dictionaries(st.sampled_from(gens), targets, max_size=2))
    return (ring, 8, [(f"g{i}", n) for i, n in enumerate(degrees)],
            brackets, diff)


TRIANGLE = [("a", 1), ("b1", 2), ("b2", 2), ("c", 3)]

# The invalid presentations of TestValidation, as DgLie arguments.
INVALID = [
    (Z3, 8, [("x", 2), ("y", 2), ("z", 4)], {(0, 1): {2: 1}, (1, 0): {2: 1}}),
    (Z3, 8, [("x", 2), ("y", 2), ("z", 3)], {(0, 1): {2: 1}}),
    (Z3, 12, [("x", 1), ("y", 2), ("z", 3)], {(0, 0): {1: 1}, (0, 1): {2: 1}}),
    (Z3, 12, [("x", 2), ("y", 3), ("z", 5), ("w", 4)], {(0, 1): {2: 1}},
     {2: {3: 1}}),
    (Z3, 8, TRIANGLE, {}, {3: {1: 1, 2: 1}, 1: {0: 1}, 2: {0: 2}}),
]


def _no_recheck(self):
    raise AssertionError("validate() recomputed a known verdict")


class TestValidation:
    def test_abelian_valid(self):
        assert abelian(Z3, 6, [("e", 1), ("f", 2)]).validate() == []

    def test_example1_valid(self):
        assert example1().validate() == []

    def test_nonpositive_degree(self):
        L = abelian(Z3, 6, [("x", 0)])
        assert any("degree 0" in v for v in L.validate())

    def test_anticommutativity_violation(self):
        # [x,y] = z but [y,x] = z too: for |x| = |y| = 1 the sign rule
        # demands [y,x] = +[x,y]... take even degrees so it demands -[x,y]
        L = DgLie(Z3, 8, [("x", 2), ("y", 2), ("z", 4)],
                  {(0, 1): {2: 1}, (1, 0): {2: 1}})
        assert any("anti-commutativity" in v for v in L.validate())

    def test_bracket_degree_mismatch(self):
        L = DgLie(Z3, 8, [("x", 2), ("y", 2), ("z", 3)],
                  {(0, 1): {2: 1}})
        assert any("degree mismatch" in v for v in L.validate())

    def test_jacobi_violation(self):
        # odd x with [x,x] = y and [x,y] = z: Jacobi on (x,x,x) forces
        # 3[x,y] = 0, which fails over Z_(3)
        L = DgLie(Z3, 12, [("x", 1), ("y", 2), ("z", 3)],
                  {(0, 0): {1: 1}, (0, 1): {2: 1}})
        assert any("Jacobi" in v for v in L.validate())

    def test_heisenberg_valid(self):
        # [x, y] = z, z central: Jacobi holds
        L = DgLie(Z3, 12, [("x", 2), ("y", 2), ("z", 4)],
                  {(0, 1): {2: 1}})
        assert L.validate() == []

    def test_derivation_violation(self):
        # ∂z = x but ∂ of [x,y] = z not matching [∂x,y] ± [x,∂y] = 0
        L = DgLie(Z3, 12, [("x", 2), ("y", 3), ("z", 5), ("w", 4)],
                  {(0, 1): {2: 1}}, {2: {3: 1}})
        assert any("derivation" in v for v in L.validate())

    def test_dd_nonzero(self):
        L = DgLie(Z3, 6, [("a", 1), ("b", 2), ("c", 3)], {},
                  {2: {1: 1}, 1: {0: 1}})
        assert any("∂∂" in v for v in L.validate())

    def test_verdict_is_computed_once(self, monkeypatch):
        L = example1()
        assert L.validate() == []
        monkeypatch.setattr(DgLie, "_check_axioms", _no_recheck)
        assert L.validate() == []

    def test_replace_passes_a_clean_verdict_on(self, monkeypatch):
        # a Z_(p) verdict holds over F_p, at another p and in another window
        L = example1()
        assert L.validate() == []
        monkeypatch.setattr(DgLie, "_check_axioms", _no_recheck)
        for copy in (L.replace(ring=F3), L.replace(ring=ZpLocal(5)),
                     L.replace(n_max=30)):
            assert copy.validate() == []

    def test_invalid_verdict_is_not_passed_on(self):
        # ∂c = b1 + b2, ∂b1 = a, ∂b2 = 2a: ∂∂c = 3a, nonzero over Z_(3) in
        # any window, zero over F_3
        L = DgLie(Z3, 8, TRIANGLE, {}, {3: {1: 1, 2: 1}, 1: {0: 1}, 2: {0: 2}})
        bad = L.validate()
        assert any("∂∂c" in v for v in bad)
        assert L.validate() == bad
        assert L.replace(n_max=10).validate() == bad
        assert L.replace(ring=F3).validate() == []

    def test_fp_verdict_is_not_lifted(self):
        # the same presentation is valid over F_3, but its residues taken
        # back to Z_(3) are not
        L = DgLie(F3, 8, TRIANGLE, {}, {3: {1: 1, 2: 1}, 1: {0: 1}, 2: {0: 2}})
        assert L.validate() == []
        assert any("∂∂c" in v for v in L.replace(ring=Z3).validate())

    @pytest.mark.parametrize("presentation", INVALID)
    def test_jacobi_skip_keeps_the_verdict_invalid(self, presentation):
        L = DgLie(*presentation)
        assert L.validate()
        assert [v for v in L.validate() if v.startswith("Jacobi")] == \
            jacobi_violations(L)

    @settings(max_examples=200, deadline=None)
    @given(random_presentations())
    def test_jacobi_skip_keeps_the_verdict(self, presentation):
        # skipping the triples whose inner brackets all vanish leaves the
        # Jacobi lines, in content and order, as the full triple loop
        L = DgLie(*presentation)
        assert [v for v in L.validate() if v.startswith("Jacobi")] == \
            jacobi_violations(L)

    def test_lie_complex_matches(self):
        C = example1(n_max=4).as_complex()
        H = homology(C)
        assert H.torsion_exponents(1) == [1]
        assert H.betti(2) == 0


class TestPbwBasis:
    def test_polynomial_on_even(self):
        A = PbwAlgebra(abelian(Z3, 10, [("f", 2)]))
        for k in range(6):
            assert A.dim(2 * k) == 1
            assert A.dim(2 * k + 1) == 0
        assert A.monomial_name((0, 0, 0)) == "f^3"

    def test_exterior_on_odd(self):
        A = PbwAlgebra(abelian(Z3, 10, [("e", 3)]))
        assert A.dim(3) == 1 and A.dim(6) == 0
        e = A.gen(0)
        assert A.mul(e, e) == {}

    def test_example1_dims(self):
        # Λ(e) ⊗ Z_(p)[f]: dims 1 in degrees 0, 2k, 2k+1
        A = PbwAlgebra(example1())
        for n in range(13):
            assert A.dim(n) == 1       # basis: f^k and e·f^k

    def test_hilbert_series_formula(self):
        # dims match the truncated product: even gens polynomial, odd exterior
        rng = random.Random(5)
        for _ in range(10):
            gens = [(f"g{i}", rng.randint(1, 4)) for i in range(rng.randint(1, 3))]
            n_max = 9
            A = PbwAlgebra(abelian(Z3, n_max, gens))
            coeffs = [1] + [0] * n_max
            for _, dg in gens:
                if dg % 2:
                    new = list(coeffs)
                    for n in range(n_max, dg - 1, -1):
                        new[n] += coeffs[n - dg]
                    coeffs = new
                else:
                    for n in range(dg, n_max + 1):
                        coeffs[n] += coeffs[n - dg]
            for n in range(n_max + 1):
                assert A.dim(n) == coeffs[n]


class TestProduct:
    def test_straightening_heisenberg(self):
        L = DgLie(Z3, 12, [("x", 2), ("y", 2), ("z", 4)], {(0, 1): {2: 1}})
        A = PbwAlgebra(L)
        x, y = A.gen(0), A.gen(1)
        # yx = xy - z  (even degrees: commutator = [y,x] = -z)
        assert A.mul(y, x) == {(0, 1): Fraction(1), (2,): Fraction(-1)}
        # associativity on a sample
        assert A.mul(A.mul(y, x), y) == A.mul(y, A.mul(x, y))

    def test_odd_square_bracket(self):
        # |e| = 1 odd with [e,e] = 2f: e² = ½[e,e] = f
        L = DgLie(Z3, 8, [("e", 1), ("f", 2)], {(0, 0): {1: 2}})
        assert L.validate() == []
        A = PbwAlgebra(L)
        e = A.gen(0)
        assert A.mul(e, e) == {(1,): Fraction(1)}

    def test_koszul_sign(self):
        A = PbwAlgebra(abelian(Z3, 8, [("e", 1), ("g", 3)]))
        e, g = A.gen(0), A.gen(1)
        assert A.mul(g, e) == {(0, 1): Fraction(-1)}

    def test_associativity_random(self):
        # super Heisenberg: odd x, y with [x,y] = z, central even w
        L = DgLie(Z3, 12, [("x", 1), ("y", 1), ("z", 2), ("w", 2)],
                  {(0, 1): {2: 1}})
        assert L.validate() == []
        A = PbwAlgebra(L)
        rng = random.Random(9)
        elems = []
        for _ in range(4):
            n = rng.randint(1, 4)
            vec = [Fraction(rng.randint(-2, 2)) for _ in range(A.dim(n))]
            elems.append(from_vector(A.basis, n, vec, A.ring))
        for a, b, c in itertools.permutations(elems, 3):
            assert A.mul(A.mul(a, b), c) == A.mul(a, A.mul(b, c))

    @settings(max_examples=150, deadline=None)
    @given(dgl_presentations(), st.data())
    def test_product_matches_straightening(self, L, data):
        # mul and element insert one letter at a time at the right end; the
        # oracle orders whole words by adjacent swaps.  The word for element
        # has letters in any order, with repeats, and an odd letter's
        # square spliced in
        A = PbwAlgebra(L)
        ring = A.ring
        gens = range(L.n_gens())
        word = data.draw(st.lists(st.sampled_from(gens), max_size=5))
        odd = [g for g in gens if L.degrees[g] % 2]
        if odd:
            pos = data.draw(st.integers(0, len(word)))
            word[pos:pos] = [data.draw(st.sampled_from(odd))] * 2
        c = data.draw(st.sampled_from([1, 2, -1, 3, -5]))
        assert A.element({tuple(word): c}) == accumulate(
            ring, {}, straighten(A, word), ring.of(c))
        a, b = (random_element(data, A, data.draw(st.integers(0, A.n_max)))
                for _ in range(2))
        want = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                if A.monomial_degree(ma + mb) <= A.n_max:
                    accumulate(ring, want, straighten(A, ma + mb),
                               ring.mul(ca, cb))
        assert A.mul(a, b) == want

    def test_no_table_grows_with_products(self):
        # mul, element and algebra_map keep nothing per word: every
        # container the algebra holds keeps its size over many products
        golden = Path(__file__).parent / "golden" / "nonabelian16.dgl"
        A = PbwAlgebra(parse_dgl(golden.read_text()))
        A.differential()

        def sizes():
            return {k: len(v) for k, v in vars(A).items()
                    if isinstance(v, (dict, list, set, tuple))}

        before = sizes()
        rng = random.Random(7)
        gens = range(A.L.n_gens())
        for _ in range(20):
            a, b = (from_vector(A.basis, n, [A.ring.of(rng.randint(-2, 2))
                                             for _ in range(A.dim(n))],
                                A.ring)
                    for n in (rng.randint(1, 6), rng.randint(1, 6)))
            A.mul(a, b)
            A.element({tuple(rng.choices(gens, k=5)): 1})
        A.algebra_map(A, {g: A.gen(g) for g in gens})
        assert sizes() == before


    def test_algebra_map_calls_no_mul(self, monkeypatch):
        # algebra_map extends by f(head·g) = f(head)·f(g), f(head) read
        # from the column already built: no `mul`, which sums monomial
        # degrees again for every product, and no table of images
        golden = Path(__file__).parent / "golden" / "nonabelian16.dgl"
        A = PbwAlgebra(parse_dgl(golden.read_text()).replace(n_max=12))
        images = {g: A.gen(g) for g in range(A.L.n_gens())}
        images[0] = A.element({(0,): 2})
        mul, calls = PbwAlgebra.mul, []

        def spy(self, a, b):
            calls.append((a, b))
            return mul(self, a, b)

        monkeypatch.setattr(PbwAlgebra, "mul", spy)
        f = A.algebra_map(A, images)
        assert calls == []
        monkeypatch.undo()
        for n in range(A.n_max + 1):
            for mono in A.monomials(n):
                want = {(): A.ring.one}
                for g in mono:
                    want = A.mul(want, images[g])
                assert f.image(n, {mono: A.ring.one}) == want, mono


class TestDifferential:
    def test_derivation_on_powers(self):
        A = PbwAlgebra(example1(n_max=10))
        f2 = A.element({(1, 1): 1})
        # ∂(f²) = (∂f)f + f(∂f) = 2·3·ef
        assert A.d_elem(f2) == {(0, 1): Fraction(6)}

    def test_differential_is_built_once(self):
        A = PbwAlgebra(example1(n_max=10))
        assert A.differential() is A.differential()
        assert A.as_complex().d is A.differential()

    @settings(max_examples=150, deadline=None)
    @given(dgl_presentations(), st.data())
    def test_d_matches_leibniz_oracle(self, L, data):
        A = PbwAlgebra(L)
        n1, n2 = (data.draw(st.integers(0, A.n_max)) for _ in range(2))
        a = random_element(data, A, n1)
        assert A.d_elem(a) == ul_d_by_leibniz(A, a)
        b = accumulate(A.ring, dict(a), random_element(data, A, n2),
                       A.ring.one)
        assert A.d_elem(b) == ul_d_by_leibniz(A, b)
        t = {(m1, m2): c for m1, c in a.items()
             for m2 in data.draw(st.lists(st.sampled_from(
                 [m for n in range(A.n_max + 1) for m in A.monomials(n)]),
                 max_size=3))}
        assert A.tensor_d(t) == ul_tensor_d_by_leibniz(A, t)

    @settings(max_examples=150, deadline=None)
    @given(dgl_presentations(), st.data())
    def test_derivation_matches_straightening(self, L, data):
        # each column extends θ(head) by the last letter g, θ(head)·g ±
        # head·θ(g); the oracle replaces each letter of the whole word and
        # straightens every substituted word whole
        A = PbwAlgebra(L)
        degree, images = data.draw(derivation_images(A))
        theta = A.derivation(degree, images)
        for n in range(max(0, -degree), A.n_max + 1 - max(0, degree)):
            assert theta.sparse_columns(n) == [
                A.basis.to_column(n + degree, derive_by_straightening(
                    A, mono, degree, images), A.ring)
                for mono in A.monomials(n)], n

    def test_peak_memory_of_d(self):
        # building d by insertion keeps no table of straightened words;
        # straightening each substituted word through a table kept for the
        # algebra's life, as before one-letter insertion, peaked at about
        # 5 MB here
        golden = Path(__file__).parent / "golden" / "nonabelian16.dgl"
        A = PbwAlgebra(parse_dgl(golden.read_text()).replace(n_max=24))
        tracemalloc.start()
        try:
            A.differential()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_complex_squares_to_zero(self):
        A = PbwAlgebra(example1(n_max=10))
        C = A.as_complex()   # constructor checks d∘d = 0
        H = homology(C)
        # H_{2k+1} = Z/3^{1+v3(k+1)}
        assert H.torsion_exponents(1) == [1]
        assert H.torsion_exponents(3) == [1]
        assert H.torsion_exponents(5) == [2]   # k = 2, k+1 = 3
        assert H.torsion_exponents(7) == [1]
        assert H.betti(4) == 0

    def test_nonabelian_dd_zero(self):
        L = DgLie(Z3, 10, [("x", 2), ("y", 2), ("z", 4), ("u", 3)],
                  {(0, 1): {2: 1}}, {2: {}})
        A = PbwAlgebra(L)
        A.as_complex()

    def test_inclusion_is_chain_map(self):
        from bockstein.bss import is_chain_map
        L = example1(n_max=8)
        A = PbwAlgebra(L)
        inc = A.inclusion_of_lie()
        assert is_chain_map(inc, L.as_complex(), A.as_complex()) is None


class TestCoproduct:
    def test_generator_primitive(self):
        A = PbwAlgebra(example1(n_max=8))
        assert A.coproduct((0,)) == {((0,), ()): Fraction(1),
                                     ((), (0,)): Fraction(1)}

    def test_binomial_theorem(self):
        # Δ(f^k) = Σ C(k,j) f^j ⊗ f^{k-j}
        from math import comb
        A = PbwAlgebra(abelian(Z3, 12, [("f", 2)]))
        for k in range(1, 7):
            got = A.coproduct((0,) * k)
            want = {((0,) * j, (0,) * (k - j)): Fraction(comb(k, j))
                    for j in range(k + 1)}
            assert got == want

    def test_coassociativity(self):
        L = DgLie(Z3, 8, [("x", 1), ("y", 2), ("z", 3)], {(0, 1): {2: 1}})
        A = PbwAlgebra(L)
        ring = A.ring
        for n in range(1, 9):
            for mono in A.monomials(n):
                lhs, rhs = {}, {}
                for (m1, m2), c in A.coproduct(mono).items():
                    for (a, b), c2 in A.coproduct(m1).items():
                        key = (a, b, m2)
                        lhs[key] = lhs.get(key, ring.zero) + c * c2
                    for (a, b), c2 in A.coproduct(m2).items():
                        key = (m1, a, b)
                        rhs[key] = rhs.get(key, ring.zero) + c * c2
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs, mono

    def test_coproduct_multiplicative_random(self):
        L = DgLie(Z3, 8, [("x", 1), ("y", 2), ("z", 3)], {(0, 1): {2: 1}})
        A = PbwAlgebra(L)
        rng = random.Random(4)
        for _ in range(10):
            n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
            a, b = (from_vector(A.basis, n, [Fraction(rng.randint(-2, 2))
                                             for _ in range(A.dim(n))], Z3)
                    for n in (n1, n2))
            assert (A.coproduct_elem(A.mul(a, b))
                    == tensor_mul(A, A.coproduct_elem(a),
                                  A.coproduct_elem(b)))

    @settings(max_examples=200, deadline=None)
    @given(ul_presentations())
    def test_closed_form_matches_products(self, presentation):
        # the oracle multiplies out Π(g⊗1 + 1⊗g) in UL ⊗ UL
        A = PbwAlgebra(DgLie(*presentation))
        for n in range(A.n_max + 1):
            for mono in A.monomials(n):
                assert A.coproduct(mono) == coproduct_by_products(A, mono), \
                    mono

    @settings(max_examples=150, deadline=None)
    @given(dgl_presentations(), st.data())
    def test_coproduct_is_a_chain_map(self, L, data):
        # (d⊗1 ± 1⊗d)∘Δ = Δ∘d, which lets the page coproduct check
        # survival on the UL chain instead of on UL ⊗ UL
        A = PbwAlgebra(L)
        x = random_element(data, A, data.draw(st.integers(0, A.n_max)))
        assert A.tensor_d(A.coproduct_elem(x)) == \
            A.coproduct_elem(A.d_elem(x))


class TestPrimitives:
    def test_lowest_degree_all_primitive(self):
        A = PbwAlgebra(abelian(Z3, 6, [("x", 1), ("y", 1)]))
        assert len(ul_primitives(A, 1)) == 2

    def test_fp_power_primitive(self):
        # over F_3, f^3 is primitive, f^2 is not
        A = PbwAlgebra(abelian(F3, 12, [("f", 2)]))
        assert len(ul_primitives(A, 4)) == 0
        prim6 = ul_primitives(A, 6)
        assert len(prim6) == 1
        assert from_vector(A.basis, 6, prim6[0], F3) == {(0, 0, 0): 1}

    def test_over_zp_no_power_primitives(self):
        A = PbwAlgebra(abelian(Z3, 12, [("f", 2)]))
        for n in (4, 6, 8):
            assert len(ul_primitives(A, n)) == 0

    def test_lie_in_primitives(self):
        L = DgLie(Z3, 8, [("x", 1), ("y", 2), ("z", 3)], {(0, 1): {2: 1}})
        A = PbwAlgebra(L)
        for i in range(3):
            n = L.degrees[i]
            vec = to_vector(A.basis, n, A.gen(i), Z3)
            prim = ul_primitives(A, n)
            M = Matrix.from_columns(Z3, A.dim(n), prim)
            assert M.solve(vec) is not None

    def test_d_preserves_primitives(self):
        A = PbwAlgebra(example1(n_max=10))
        d = A.differential()
        for n in range(2, 10):
            prim = ul_primitives(A, n)
            tgt = ul_primitives(A, n - 1)
            M = Matrix.from_columns(Z3, A.dim(n - 1), tgt)
            for v in prim:
                img = d.apply(n, sparse(v))
                if img:
                    assert M.solve(dense(img, A.dim(n - 1))) is not None


class TestFunctoriality:
    def test_u_of_composition(self):
        A = PbwAlgebra(abelian(Z3, 8, [("x", 1), ("y", 2)]))
        ring = A.ring
        phi = {0: A.gen(0), 1: A.element({"y": 2})}
        psi = {0: A.element({"x": -1}), 1: A.gen(1)}
        Uphi = A.algebra_map(A, phi)
        Upsi = A.algebra_map(A, psi)
        comp = {0: A.element({"x": -1}), 1: A.element({"y": 2})}
        assert A.algebra_map(A, comp) == Upsi.compose(Uphi)

    def test_algebra_map_nontrivial_image(self):
        # b ↦ b + c³ on UL_ab(b, c), |b| = 6, |c| = 2 over F_3
        A = PbwAlgebra(abelian(F3, 12, [("b", 6), ("c", 2)]))
        f = A.algebra_map(A, {0: A.element({"b": 1, (1, 1, 1): 1}),
                              1: A.gen(1)})
        assert f.image(6, A.gen(0)) == A.element({"b": 1, (1, 1, 1): 1})
