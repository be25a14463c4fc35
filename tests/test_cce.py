"""Cochain and chain functors on DGLs; quasi-isomorphism checking."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from bockstein.cce import (CochainAlgebra, chains, cochains,
                           free_cochain_algebra, verify_quasi_iso)
from bockstein.gamma import GammaAlgebra, pairing_matrix
from bockstein.cli import main
from bockstein.graded import ComplexError, FieldHomology, check_square_zero
from bockstein import lie
from bockstein.lie import DgLie, PbwAlgebra, abelian
from bockstein.scalars import Matrix, PrimeField, ZpLocal
from oracles import cce_parts, gamma_expand, lambda_gamma_pairing
from test_graded import golden_lie
from test_lie import dgl_presentations, example1

Z3 = ZpLocal(3)
F3 = PrimeField(3)


class TestCochains:
    def test_abelian_zero_differential(self):
        L = abelian(Z3, 8, [("e", 1), ("f", 2)])
        co = cochains(L)
        assert co.d.is_zero()

    def test_prop_model_shape(self):
        # (L_ab(e,f), ∂f = e) over F_3 gives (Λ(x,y), dx = y), |x| = 2n
        L = DgLie(F3, 10, [("e", 1), ("f", 2)], {}, {1: {0: 1}})
        co = cochains(L)
        lam = co.algebra
        # x = vf (degree 3 = |f|+1? no: |ve| = 2, |vf| = 3)
        ve, vf = lam.L.index["ve"], lam.L.index["vf"]
        # d(ve) = ±vf since ∂f = e; d(vf) = 0
        assert co.d.image(2, lam.gen(ve)) in ({(vf,): 1}, {(vf,): 2})
        assert co.d.image(3, lam.gen(vf)) == {}

    def test_d0_sign_rule(self):
        # ⟨d0 v, sx⟩ = (-1)^{|v|}⟨v, s∂x⟩ on Example 1 over Z_(3), which
        # has no bracket, so d is d0
        L = example1(n_max=8)
        co = cochains(L)
        lam = co.algebra
        ve, vf = lam.L.index["ve"], lam.L.index["vf"]
        img = co.d.image(2, lam.gen(ve))
        # |ve| = 2, ∂f = 3e: d0(ve) = (+1)·3·vf
        assert img == {(vf,): Fraction(3)}

    def test_d1_bracket_dual(self):
        # [a,b] = c with |a| = |b| = 1: d1(vc) pairs to ±va·vb; the odd
        # self-bracket [x,x] = z pairs against sx·sx = 2γ²(sx).  Neither
        # DGL has a differential, so d is d1
        for gens, (a, b) in (([("a", 1), ("b", 1), ("c", 2)], (0, 1)),
                             ([("x", 1), ("z", 2)], (0, 0))):
            z = len(gens) - 1
            L = DgLie(Z3, 8, gens, {(a, b): {z: 1}})
            co = cochains(L)
            lam = co.algebra
            img = co.d.image(3, lam.gen(z))
            assert set(img) == {(a, b)}
            # cross-check the defining identity by pairing back
            sg = GammaAlgebra(Z3, 8, [("s" + name, d + 1)
                                      for name, d in gens])
            prod = sg.mul(sg.gen(a), sg.gen(b))     # sa·sb
            exp = {w: Z3.of(c) for gw, cc in prod.items()
                   for w, c in ((w, cc * m)
                                for w, m in gamma_expand(sg, gw).items())}
            lhs = Z3.zero
            for mono, c in img.items():
                lhs = Z3.add(lhs, Z3.mul(c, lambda_gamma_pairing(
                    Z3, sg.degrees, mono, exp)))
            # rhs = (-1)^{|sb|}⟨vc, s[a,b]⟩ = (+1)·1   (|sb| = 2)
            assert lhs == Z3.one

    def test_jacobi_required(self):
        # invalid bracket data never reaches d²: PbwAlgebra rejects it first
        from bockstein.lie import LieError
        L = DgLie(Z3, 12, [("x", 1), ("y", 2), ("z", 3)],
                  {(0, 0): {1: 1}, (0, 1): {2: 1}})
        with pytest.raises(LieError):
            cochains(L)

    def test_nonabelian_d_squared_zero(self):
        # super Heisenberg with a compatible differential
        L = DgLie(Z3, 10, [("x", 1), ("y", 1), ("z", 2)],
                  {(0, 1): {2: 1}})
        co = cochains(L)
        dd = co.d.compose(co.d)
        for n in range(8):
            assert dd.block(n).is_zero()

    @pytest.mark.parametrize("ring", [Z3, F3])
    def test_d_is_dense_d0_plus_d1(self, ring):
        # d is built from the merged generator images in one pass; it must
        # equal the blockwise sum of its linear and quadratic parts, each
        # built as its own derivation by the oracle.  The second DGL has
        # an odd self-bracket [x,x] = z (halved in d1)
        for L in (DgLie(ring, 9, [("x", 1), ("y", 1), ("z", 2), ("w", 3)],
                        {(0, 1): {2: 1}}, {3: {2: 1}}),
                  DgLie(ring, 10, [("x", 1), ("z", 2), ("w", 3)],
                        {(0, 0): {1: 1}}, {2: {1: 1}})):
            co = cochains(L)
            _, d0, d1 = cce_parts(L)
            assert not d0.is_zero() and not d1.is_zero()
            assert co.d == d0 + d1

    @settings(max_examples=100, deadline=None)
    @given(dgl_presentations())
    def test_d_matches_the_two_part_oracle(self, L):
        # over Z_(p) and F_p, with brackets, odd self-brackets and ∂ that
        # an image must straighten past: d equals the oracle's d0 + d1,
        # signs read off Γ(sL), on the same basis of ΛV
        co = cochains(L)
        lam, d0, d1 = cce_parts(L)
        assert co.algebra.basis == lam.basis
        assert co.d == d0 + d1

    def test_one_derivation_and_no_gamma_algebra(self, monkeypatch):
        # the sign of d1 is closed form, so no Γ(sL) is built; cochains()
        # keeps d's generator images and enumerates no monomial of ΛV, and
        # the first read of d builds it as one derivation of ΛV, not d0
        # and d1 added up, and keeps it
        built = {"gamma": 0, "derivation": 0, "basis": 0}
        gamma_init, derivation = GammaAlgebra.__init__, PbwAlgebra.derivation
        monomials = lie.ordered_monomials

        def spy_gamma(self, *args):
            built["gamma"] += 1
            gamma_init(self, *args)

        def spy_derivation(self, *args):
            built["derivation"] += 1
            return derivation(self, *args)

        def spy_monomials(*args):
            built["basis"] += 1
            return monomials(*args)

        monkeypatch.setattr(GammaAlgebra, "__init__", spy_gamma)
        monkeypatch.setattr(PbwAlgebra, "derivation", spy_derivation)
        monkeypatch.setattr(lie, "ordered_monomials", spy_monomials)
        co = cochains(DgLie(Z3, 9, [("x", 1), ("y", 1), ("z", 2), ("w", 3)],
                            {(0, 1): {2: 1}}, {3: {2: 1}}))
        assert isinstance(co, CochainAlgebra)
        assert built == {"gamma": 0, "derivation": 0, "basis": 0}
        assert not co.d.is_zero()
        assert built == {"gamma": 0, "derivation": 1, "basis": 1}
        assert co.d is co.d
        assert built["derivation"] == 1

    def test_minimality_detector(self):
        # d0 entries divisible by p iff ∂ entries divisible by p; Example 1
        # has no bracket, so d is d0
        L = example1(n_max=8)           # ∂f = 3e
        co = cochains(L)
        for n, m in co.d.blocks.items():
            for row in m.a:
                for c in row:
                    assert Z3.is_zero(c) or Z3.valuation(c) >= 1


class TestChains:
    def test_abelian_zero(self):
        L = abelian(Z3, 8, [("e", 1), ("f", 2)])
        ch = chains(L)
        assert ch.d.is_zero()

    def test_example1_d0(self):
        # ∂0(sf) = ±3·se in Γ(se, sf)
        L = example1(n_max=8)
        ch = chains(L)
        g = ch.algebra
        sf = g.names.index("sf")
        se = g.names.index("se")
        img = ch.d.image(3, g.gen(sf))
        (word, coeff), = img.items()
        assert word == ((se, 1),)
        assert Z3.valuation(coeff) == 1 and abs(coeff) == 3

    def test_chain_complex_valid_nonabelian(self):
        L = DgLie(Z3, 10, [("x", 1), ("y", 1), ("z", 2)],
                  {(0, 1): {2: 1}}, {})
        ch = chains(L)
        ch.as_complex()

    def test_pairing_intertwines(self):
        # ⟨a, ∂ω⟩ = (-1)^{|a|}⟨d a, ω⟩ entrywise; the second DGL has an odd
        # self-bracket [x,x] = z, so d1 pairs against γ²(sx) = (sx·sx)/2
        for L in (DgLie(Z3, 9, [("x", 1), ("y", 1), ("z", 2), ("w", 3)],
                        {(0, 1): {2: 1}}, {3: {2: 3}}),
                  DgLie(Z3, 9, [("x", 1), ("z", 2)], {(0, 0): {1: 1}})):
            co = cochains(L)
            ch = chains(L, co)
            lam, g = co.algebra, ch.algebra
            assert not cce_parts(L)[2].is_zero()
            for n in range(1, 9):
                A_n = pairing_matrix(Z3, lam, g, n)
                A_prev = pairing_matrix(Z3, lam, g, n - 1)
                lhs = A_prev * ch.d.block(n)
                rhs = (co.d.block(n - 1).transpose() * A_n)
                if (n - 1) % 2:
                    rhs = rhs.scaled(Fraction(-1))
                assert lhs == rhs

    def test_mod_p_chains_vanish(self):
        # zero bracket and p | ∂: chains ⊗ F_p has zero differential
        L = example1(n_max=8)
        ch = chains(L)
        for n, m in ch.d.blocks.items():
            for row in m.reduce_mod_p().a:
                assert all(x == 0 for x in row)


def lambda_xy_model(n=1, n_max=10):
    """(Λ(x,y), dx = y) over F_3 with |x| = 2n."""
    return free_cochain_algebra(F3, n_max, [("x", 2 * n), ("y", 2 * n + 1)],
                                {"x": {"y": 1}})


def test_window_map_squares_to_zero_and_matches_the_report(capsys):
    # the report reads d on the generators alone, and construction checks
    # d∘d on them; here d is built on all of ΛV in the window of
    # nonabelian16 at nmax 40, d∘d = 0 checked across it, and its
    # generator columns read against the report
    path = str(Path(__file__).parent / "golden" / "nonabelian16.dgl")
    assert main(["--json", "cochains", path, "--nmax", "40"]) == 0
    report = json.loads(capsys.readouterr().out)["d"]
    co = cochains(golden_lie("nonabelian16", 40))
    lam, d = co.algebra, co.d       # check_square_zero runs here
    assert d.degrees()[-1] == 39
    columns = {}
    for i, (name, deg) in enumerate(zip(lam.L.names, lam.L.degrees)):
        if deg + 1 <= lam.n_max:
            img = d.image(deg, lam.gen(i))
            columns[name] = " + ".join(f"{c} {lam.monomial_name(m)}"
                                       for m, c in sorted(img.items())) or "0"
    assert columns == report and any(v != "0" for v in report.values())


def test_generator_check_agrees_with_the_window_check():
    # random generator images over F_3, many with d∘d ≠ 0 on one or more
    # generators: the check on generators at construction and
    # check_square_zero on the window map, built apart from it, pass or
    # raise the same message
    verdicts = []
    for seed in range(20):
        rng = random.Random(seed)
        gens = [(f"g{i}", rng.randint(1, 4)) for i in range(rng.randint(3, 6))]
        lam = PbwAlgebra(abelian(F3, rng.randint(6, 9), gens))
        spec = {}
        for i, (_, deg) in enumerate(gens):
            monos = lam.monomials(deg + 1)
            if monos and rng.random() < 0.6:
                spec[i] = {m: rng.randint(1, 2)
                           for m in rng.sample(monos, min(len(monos),
                                                          rng.randint(1, 2)))}
        images = lam.images(lam.L, spec)

        def verdict(check):
            try:
                check()
            except ComplexError as exc:
                return str(exc)
            return None

        window = verdict(lambda: check_square_zero(
            lam.derivation(1, images)))
        assert verdict(lambda: CochainAlgebra(lam, images)) == window
        verdicts.append(window)
    assert verdicts.count(None) >= 3
    assert len(set(verdicts) - {None}) >= 10


def test_free_cochain_algebra_rejects_d_squared_nonzero():
    # dx = y, dy = z: d∘d(x) = z, the first entry that breaks
    with pytest.raises(ComplexError,
                       match=r"^d∘d ≠ 0 at degree 2: d\(d\(x\)\) has "
                             r"coefficient 1 on z$"):
        free_cochain_algebra(F3, 8, [("x", 2), ("y", 3), ("z", 4)],
                             {"x": {"y": 1}, "y": {"z": 1}})


class TestVerifyQuasiIso:
    def test_identity(self):
        tgt = lambda_xy_model()
        ok, rep = verify_quasi_iso({"x": {"x": 1}, "y": {"y": 1}}, tgt, tgt)
        assert ok, rep

    def test_prop_model(self):
        # (Λ(x1,y1), 0) -> (Λ(x,y), dx=y): x1 ↦ x³, y1 ↦ x²y at p = 3
        tgt = lambda_xy_model(n=1, n_max=9)
        src = free_cochain_algebra(F3, 9, [("x1", 6), ("y1", 7)], {})
        ok, rep = verify_quasi_iso(
            {"x1": {(0, 0, 0): 1}, "y1": {(0, 0, 1): 1}}, src, tgt)
        assert ok, rep

    def test_wrong_power_rejected(self):
        # y1 ↦ x·y is not even a cochain map from (Λ(x1,y1), 0)
        tgt = lambda_xy_model(n=1, n_max=9)
        src = free_cochain_algebra(F3, 9, [("x1", 6), ("y1", 5)], {})
        ok, reason = verify_quasi_iso(
            {"x1": {(0, 0, 0): 1}, "y1": {(0, 1): 1}}, src, tgt)
        assert not ok

    def test_not_a_cochain_map_at_window_edge(self):
        # u ↦ x but dx = y ≠ 0 = m(du): the failure sits at degree window
        tgt = free_cochain_algebra(F3, 8, [("x", 2), ("y", 3)],
                                   {"x": {"y": 1}})
        src = free_cochain_algebra(F3, 8, [("u", 2)], {})
        assert verify_quasi_iso({"u": {"x": 1}}, src, tgt, window=2) == \
            (False, "not a cochain map at degree 2")

    def test_window_bounds_cochain_map_check(self):
        # v ↦ z with dz = w breaks the cochain condition only in degree 4
        tgt = free_cochain_algebra(F3, 8, [("x", 2), ("z", 4), ("w", 5)],
                                   {"z": {"w": 1}})
        src = free_cochain_algebra(F3, 8, [("u", 2), ("v", 4)], {})
        images = {"u": {"x": 1}, "v": {"z": 1}}
        for window in (2, 3):
            ok, rep = verify_quasi_iso(images, src, tgt, window=window)
            assert ok and rep["window"] == window, rep
        assert verify_quasi_iso(images, src, tgt, window=4) == \
            (False, "not a cochain map at degree 4")

    def test_specs_by_name_and_by_element_build_equal_maps(self,
                                                             monkeypatch):
        # generator images named by generator, or given as element dicts
        # keyed by index, build the same d and the same cochain map
        def tgt(d_images):
            return free_cochain_algebra(
                F3, 8, [("x", 2), ("z", 4), ("w", 5)], d_images)

        by_name, by_elem = tgt({"z": {"w": 1}}), tgt({1: {(2,): 1}})
        assert by_name.d == by_elem.d and not by_name.d.is_zero()
        src = free_cochain_algebra(F3, 8, [("u", 2), ("v", 4)], {})
        maps, algebra_map = [], PbwAlgebra.algebra_map

        def record(self, target, gen_images):
            maps.append(algebra_map(self, target, gen_images))
            return maps[-1]

        monkeypatch.setattr(PbwAlgebra, "algebra_map", record)
        for images in ({"u": {"x": 1}, "v": {"z": 1}},
                       {0: {(0,): 1}, 1: {(1,): 1}}):
            assert verify_quasi_iso(images, src, by_name, window=3) == \
                (True, {"window": 3, "dims": {0: 1, 1: 0, 2: 1, 3: 0}})
        assert len(maps) == 2 and maps[0] == maps[1]
        assert not maps[0].is_zero()

    def test_cochains_vs_chains_dims(self):
        # Γ(sL) and ΛV have equal dimensions in every degree (dual bases)
        L = DgLie(Z3, 9, [("x", 1), ("y", 1), ("z", 2)], {(0, 1): {2: 1}})
        co = cochains(L)
        ch = chains(L, co)
        for n in range(10):
            assert co.algebra.dim(n) == ch.algebra.dim(n)
