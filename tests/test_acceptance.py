"""Acceptance suite: the seven headline guarantees, one test per criterion.

Each test asserts one end-to-end claim of the package and prints a single
PASS line on success; a failed criterion shows up as an ordinary pytest
failure on the matching test.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from bockstein.bss import bockstein_pages
from bockstein.cce import cochains, free_cochain_algebra, verify_quasi_iso
from bockstein.gamma import GammaAlgebra, pairing_matrix
from bockstein.graded import FieldHomology
from bockstein.lie import DgLie, PbwAlgebra, abelian
from bockstein.scalars import PrimeField, ZpLocal
from bockstein.structure import (StructureError, differential_restricts_to_lie,
                                 hopf_morphism, is_lie_type)
from oracles import (bss_beta_ranks, bss_page_dims, mod_p_homology_dims,
                     shuffle)
from test_graded import random_complex
from test_structure import envelope_report

Z3 = ZpLocal(3)
F3 = PrimeField(3)


def _two_generator_dims(odd: int, even: int, top: int) -> list:
    """Hilbert series of the free graded-commutative algebra on one odd
    and one even generator, through degree top."""
    dims = [0] * (top + 1)
    for i in (0, 1):
        for j in range(top // even + 1):
            n = i * odd + j * even
            if n <= top:
                dims[n] += 1
    return dims


def test_criterion_1_rank_one_torsion_tower():
    # sphere-like DGL with one torsion pair: L = (e, f), |e| = 2n-1,
    # |f| = 2n, ∂f = p·e, at p = 3, n = 1, window degrees 0..19
    t0 = time.time()
    p, n = 3, 1
    L = DgLie(Z3, 2 * n * p ** 2 + 2, [("e", 2 * n - 1), ("f", 2 * n)],
              {}, {1: {0: p}})
    ul = PbwAlgebra(L)
    result = bockstein_pages(ul.as_complex(), 3)
    for r in (1, 2):
        page = result.page(r + 1)
        bot, top = 2 * n * p ** r - 1, 2 * n * p ** r
        # E^{r+1} is free graded-commutative on exactly two generators,
        # one in each of those degrees
        want = _two_generator_dims(bot, top, page.n_max)
        for m in range(page.n_max + 1):
            assert page.dim(m) == want[m], (r + 1, m)
        # and β^{r+1} pairs them: the class at the even degree hits the
        # class at the odd degree
        assert page.dim(top) == page.dim(bot) == 1
        assert page.beta.block(top).rank() == 1
        assert page.classes[top][0].exponent == r + 1
        assert page.classes[bot][0].exponent == r + 1
    # the Lie algebra itself has a single exponent-1 pair: E^2(L) = 0
    result_l = bockstein_pages(L.as_complex(), 2)
    assert all(not cl for cl in result_l.page(2).classes.values())
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 1: torsion tower pages of U(e,f; ∂f=3e) "
          f"in {elapsed:.2f}s")


def test_criterion_2_small_cochain_model():
    # L = (e, f), |e| = 2n-1, |f| = 2n, ∂f = e, p = 3, n = 1: the dual
    # cochain algebra is quasi-isomorphic to the free model on
    # generators in degrees 2np and 2np+1
    p, n = 3, 1
    nmax = 4 * n * p + 1
    tgt = free_cochain_algebra(F3, nmax, [("x", 2 * n), ("y", 2 * n + 1)],
                               {"x": {"y": 1}})
    src = free_cochain_algebra(F3, nmax,
                               [("x1", 2 * n * p), ("y1", 2 * n * p + 1)], {})
    ok, info = verify_quasi_iso({"x1": {(0,) * p: 1},
                                 "y1": {(0,) * (p - 1) + (1,): 1}},
                                src, tgt, window=4 * n * p)
    assert ok, info
    # H(UL; F_3) through degree 12 has the Hilbert series of the
    # enveloping algebra of an abelian Lie algebra on degrees 5 and 6
    L = DgLie(Z3, 13, [("e", 2 * n - 1), ("f", 2 * n)], {}, {1: {0: 1}})
    alg = PbwAlgebra(L)
    H = FieldHomology(alg.basis, alg.differential().reduce_mod_p())
    model = PbwAlgebra(abelian(F3, 13, [("e1", 2 * n * p - 1),
                                        ("f1", 2 * n * p)]))
    for m in range(13):
        assert H.dim(m) == model.dim(m), m
    print("PASS criterion 2: H(U(e,f; ∂f=e); F_3) is the enveloping "
          "algebra on degrees 5 and 6, via an explicit quasi-isomorphism")


def test_criterion_3_frobenius_twist_detection():
    # U L_ab(a, b, c), |a| = 5, |b| = 6, |c| = 2: over F_3 the Hopf
    # automorphism b -> b + c^3 exists but is not of Lie type
    ul = PbwAlgebra(abelian(F3, 18, [("a", 5), ("b", 6), ("c", 2)]))
    twist = {"a": {"a": 1}, "c": {"c": 1}, "b": {"b": 1, (2, 2, 2): 1}}
    chk = is_lie_type(hopf_morphism(ul, ul, twist))
    assert not chk.verdict
    assert chk.witness == ("b", {"b": 1, "c^3": 1})
    assert chk.dual_witness == ("gamma", ((2, 1),), 3)
    ident = {"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1}}
    assert is_lie_type(hopf_morphism(ul, ul, ident)).verdict
    # over Z_(3) the twist is not even a coalgebra morphism
    ul_z = PbwAlgebra(abelian(Z3, 18, [("a", 5), ("b", 6), ("c", 2)]))
    with pytest.raises(StructureError):
        hopf_morphism(ul_z, ul_z, twist)
    print("PASS criterion 3: b -> b + c^3 rejected as non-Lie-type with "
          "a divided-power witness; identity accepted")


def test_criterion_4_two_route_agreement():
    # matrix route (generator images are single letters) vs dual route
    # (the dualized map respects divided powers); a disagreement raises
    # StructureError inside the checkers
    rng = random.Random(20260826)
    checked = 0
    for _ in range(60):
        # random coalgebra derivations of degree -1, possibly hitting a
        # primitive p-th power
        degs = sorted(rng.choice([1, 2, 2, 3, 4, 5, 6])
                      for _ in range(rng.randint(2, 4)))
        alg = PbwAlgebra(abelian(F3, 10,
                                 [(f"g{i}", d) for i, d in enumerate(degs)]))
        images = {}
        for i, d in enumerate(degs):
            img = {}
            for j, dj in enumerate(degs):
                if dj == d - 1 and rng.random() < 0.7:
                    img[(j,)] = F3.of(rng.randint(0, 2))
                if dj % 2 == 0 and 3 * dj == d - 1 and rng.random() < 0.5:
                    img[(j, j, j)] = F3.one
            images[i] = {k: v for k, v in img.items() if v}
        d_op = alg.derivation(-1, images)
        chk = differential_restricts_to_lie(alg, d_op)
        expected = all(len(m) == 1 for img in images.values() for m in img)
        assert chk.verdict == expected
        checked += 1
    for _ in range(60):
        # random Hopf endomorphisms, possibly twisting by a p-th power
        degs = sorted(rng.choice([1, 2, 2, 3, 4, 5, 6])
                      for _ in range(rng.randint(2, 4)))
        alg = PbwAlgebra(abelian(F3, 10,
                                 [(f"g{i}", d) for i, d in enumerate(degs)]))
        images = {}
        for i, d in enumerate(degs):
            img = {}
            for j, dj in enumerate(degs):
                if dj == d and rng.random() < 0.8:
                    img[(j,)] = F3.of(rng.randint(0, 2))
                if dj % 2 == 0 and 3 * dj == d and rng.random() < 0.5:
                    img[(j, j, j)] = F3.one
            images[i] = {k: v for k, v in img.items() if v}
        phi = hopf_morphism(alg, alg, images)
        chk = is_lie_type(phi)
        expected = all(len(m) == 1 for img in images.values() for m in img)
        assert chk.verdict == expected
        checked += 1
    assert checked >= 100
    print(f"PASS criterion 4: matrix and dual routes agree on "
          f"{checked} random derivations and Hopf endomorphisms")


def test_criterion_5_pages_match_lattice_oracle():
    # page dimensions and β ranks against the independent subquotient
    # lattice oracle, plus E^1 = mod-p homology
    rng = random.Random(1105)
    checked = 0
    for _ in range(100):
        C = random_complex(Z3, rng, n_max=3, max_dim=3)
        assert sum(C.dim(n) for n in range(C.n_max + 1)) <= 12
        bss = bockstein_pages(C, 3)
        mod_p = mod_p_homology_dims(C, 3)
        dims = {r: bss_page_dims(C, r) for r in (1, 2, 3, 4)}
        for n in range(C.n_max):
            assert bss.page(1).dim(n) == mod_p[n], n
        for r in (1, 2, 3):
            page = bss.page(r)
            for n in range(C.n_max):
                assert page.dim(n) == dims[r][n], (r, n)
            ranks = bss_beta_ranks(C, r, dims[r], dims[r + 1])
            for n in range(1, C.n_max):
                assert page.beta.block(n).rank() == ranks[n], (r, n)
        checked += 1
    assert checked >= 100
    print(f"PASS criterion 5: page dims and β ranks of {checked} random "
          "complexes match the lattice oracle; E^1 is mod-p homology")


def test_criterion_6_axiom_suites():
    # (a) divided-power axioms with all exponents through p^2 = 9
    for ring in (Z3, F3):
        G = GammaAlgebra(ring, 18, [("u", 2), ("v", 2)])
        u, v = G.gen(0), G.gen(1)
        mix = G.mul(u, u)
        for j in range(10):
            for k in range(10):
                if 2 * (j + k) <= 18:
                    lhs = G.mul(G.divided_power(u, j), G.divided_power(u, k))
                    c = ring.of(Fraction(math.comb(j + k, j)))
                    rhs = {w: ring.mul(c, x)
                           for w, x in G.divided_power(u, j + k).items()
                           if not ring.is_zero(ring.mul(c, x))}
                    assert lhs == rhs, ("binomial", ring, j, k)
                if j and k and 2 * j * k <= 18:
                    lhs = G.divided_power(G.divided_power(u, k), j)
                    c = ring.of(Fraction(math.factorial(j * k),
                                         math.factorial(j)
                                         * math.factorial(k) ** j))
                    rhs = {w: ring.mul(c, x)
                           for w, x in G.divided_power(u, j * k).items()
                           if not ring.is_zero(ring.mul(c, x))}
                    assert lhs == rhs, ("composition", ring, j, k)
        uv = dict(u)
        uv.update({w: ring.of(2) for w in v})
        for k in range(10):
            if 2 * k > 18:
                continue
            total = {}
            for j in range(k + 1):
                term = G.mul(G.divided_power(u, j),
                             G.divided_power({w: ring.of(2) for w in v},
                                             k - j))
                for w, c in term.items():
                    s = ring.add(total.get(w, ring.zero), c)
                    if ring.is_zero(s):
                        total.pop(w, None)
                    else:
                        total[w] = s
            assert G.divided_power(uv, k) == total, ("additivity", ring, k)
    # (b) shuffle product is associative and commutative
    rng = random.Random(6)
    G = GammaAlgebra(Z3, 12, [("u", 1), ("v", 2), ("w", 3)])
    letter_words = [(), (0,), (1,), (2,), (1, 1), (0, 2), (2, 0), (0, 1, 1)]
    for _ in range(20):
        a, b, c = (rng.choice(letter_words) for _ in range(3))
        ab = shuffle(G, a, b)
        da = sum(G.degrees[i] for i in a)
        db = sum(G.degrees[i] for i in b)
        sign = -1 if (da * db) % 2 else 1
        ba = {w: sign * x for w, x in shuffle(G, b, a).items()}
        assert ab == {w: x for w, x in ba.items() if x}
        lhs = {}
        for w, x in ab.items():
            for w2, y in shuffle(G, w, c).items():
                lhs[w2] = lhs.get(w2, 0) + x * y
        rhs = {}
        for w, x in shuffle(G, b, c).items():
            for w2, y in shuffle(G, a, w).items():
                rhs[w2] = rhs.get(w2, 0) + x * y
        assert ({w: c for w, c in lhs.items() if c}
                == {w: c for w, c in rhs.items() if c})
    # (c) the monomial/word pairing is nondegenerate in every degree
    gens = [("u", 1), ("v", 2), ("w", 3), ("x", 4)]
    Gp = GammaAlgebra(Z3, 9, gens)
    lam = PbwAlgebra(abelian(Z3, 9, gens))
    for n in range(1, 10):
        m = pairing_matrix(Z3, lam, Gp, n)
        assert m.rows == m.cols == Gp.dim(n)
        m.inverse()
    # (d) the cochain differential d0 + d1 squares to zero, including
    # on non-abelian input
    corpus = [
        abelian(Z3, 8, [("e", 1), ("f", 2)]),
        DgLie(Z3, 10, [("e", 1), ("f", 2)], {}, {1: {0: 3}}),
        DgLie(Z3, 10, [("x", 1), ("y", 1), ("z", 2)], {(0, 1): {2: 1}}),
        DgLie(Z3, 9, [("x", 1), ("y", 1), ("z", 2), ("w", 3)],
              {(0, 1): {2: 1}}, {3: {2: 3}}),
    ]
    for L in corpus:
        co = cochains(L)
        dd = co.d.compose(co.d)
        for n in range(L.n_max - 1):
            assert dd.block(n).is_zero(), (L.names, n)
    print("PASS criterion 6: divided-power axioms through exponent 9, "
          "shuffle laws, nondegenerate pairing, and (d0+d1)^2 = 0")


def test_criterion_7_pages_are_enveloping_algebras():
    # every computed page of U(L) is the enveloping algebra of its
    # primitives, β^r preserves primitives, and Lie classes land in them
    rep = envelope_report(DgLie(Z3, 20, [("e", 1), ("f", 2)], {},
                                {1: {0: 3}}), 3)
    assert rep.ok, rep.failures
    rep = envelope_report(abelian(Z3, 14, [("a", 5), ("b", 6), ("c", 2)]), 2)
    assert rep.ok, rep.failures
    rng = random.Random(97)
    checked = 0
    for p, count, lows in ((3, 14, (3, 5, 7)), (5, 6, (9, 11, 13))):
        ring = ZpLocal(p)
        window = 2 * p * p
        for _ in range(count):
            gens, diff = [], {}
            for _ in range(rng.randint(1, 2)):
                a = rng.choice(lows)
                i = len(gens)
                gens += [(f"e{i}", a), (f"f{i}", a + 1)]
                diff[i + 1] = {i: p ** rng.randint(1, 2)}
            if rng.random() < 0.5:
                gens.append((f"z{len(gens)}", rng.choice(lows)))
            L = DgLie(ring, window + 1, gens, {}, diff)
            rep = envelope_report(L, 2)
            assert rep.ok, (p, gens, rep.failures)
            checked += 1
    assert checked == 20
    print(f"PASS criterion 7: enveloping-algebra page structure on both "
          f"named examples and {checked} random torsion DGLs at p = 3, 5")
