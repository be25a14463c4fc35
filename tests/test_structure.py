"""Two-route Lie-restriction detectors, page Hopf structure, and the
enveloping-algebra shape of Bockstein pages."""

import json
import random
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bockstein import cli, structure
from bockstein.bss import bockstein_pages, bss_of_morphism
from bockstein.dglfile import parse_dgl
from bockstein.graded import ComplexError, Decomposition, WindowError
from bockstein.lie import DgLie, PbwAlgebra, abelian, run_length, splits
from bockstein.scalars import FpSpan, Matrix, PrimeField, ZpLocal, accumulate
from bockstein.structure import (PageAlgebra, StructureError, TensorSquareBss,
                                 _envelope_dims, differential_restricts_to_lie,
                                 hopf_morphism, is_lie_type,
                                 verify_envelope_pages)
from oracles import (class_pairs, coalgebra_failure_by_monomials, dense,
                     envelope_dims_by_products, page_coords,
                     page_pairs_by_delta, page_pairs_by_snf)
from test_graded import golden_lie
from test_lie import dgl_presentations, ul_presentations

Z3 = ZpLocal(3)
F3 = PrimeField(3)


class TestRestriction:
    def test_zero_differential(self):
        alg = PbwAlgebra(abelian(Z3, 8, [("e", 1), ("f", 2)]))
        chk = differential_restricts_to_lie(alg)
        assert chk.verdict and chk.witness is None

    def test_abelian_restricting(self):
        L = DgLie(Z3, 8, [("e", 1), ("f", 2)], {}, {1: {0: 3}})
        chk = differential_restricts_to_lie(PbwAlgebra(L))
        assert chk.verdict

    def test_nonabelian_restricting(self):
        # dual route must be insensitive to the bracket
        L = DgLie(Z3, 8, [("x", 1), ("y", 1), ("z", 2), ("w", 3)],
                  {(0, 1): {2: 1}}, {3: {2: 1}})
        chk = differential_restricts_to_lie(PbwAlgebra(L))
        assert chk.verdict

    def test_frobenius_perturbation_detected(self):
        # over F_3, x^3 is primitive but not in the Lie part; both
        # detectors must reject, the dual one with a γ witness
        L = abelian(F3, 12, [("x", 2), ("b", 7)])
        alg = PbwAlgebra(L)
        d = alg.derivation(-1, {1: {(0, 0, 0): F3.one}})
        chk = differential_restricts_to_lie(alg, d)
        assert not chk.verdict
        assert chk.witness[0] == "b" and "x^3" in chk.witness[1]
        assert chk.dual_witness[0] == "gamma" and chk.dual_witness[2] == 3

    def test_non_derivation_rejected(self):
        alg = PbwAlgebra(abelian(Z3, 8, [("e", 1), ("f", 2)]))
        d = alg.differential()
        m = d.block(3).copy()
        m.a[0][0] = Z3.one          # corrupt a composite-monomial column
        d.set_block(3, m)
        with pytest.raises(StructureError):
            differential_restricts_to_lie(alg, d)

    def test_non_primitive_image_rejected(self):
        # over Z_(3) the decomposable x^3 is not primitive, so the input
        # is not a coalgebra derivation at all
        L = abelian(Z3, 12, [("x", 2), ("b", 7)])
        alg = PbwAlgebra(L)
        d = alg.derivation(-1, {1: {(0, 0, 0): Z3.one}})
        with pytest.raises(StructureError):
            differential_restricts_to_lie(alg, d)

    def test_random_agreement(self):
        # detector agreement is asserted inside the call; a disagreement
        # raises StructureError
        rng = random.Random(7)
        for _ in range(12):
            degs = sorted(rng.choice([1, 2, 2, 3, 4, 5, 6])
                          for _ in range(rng.randint(2, 3)))
            gens = [(f"g{i}", d) for i, d in enumerate(degs)]
            alg = PbwAlgebra(abelian(F3, 10, gens))
            images = {}
            for i, d in enumerate(degs):
                img = {}
                for j, dj in enumerate(degs):
                    if dj == d - 1 and rng.random() < 0.7:
                        img[(j,)] = F3.of(rng.randint(0, 2))
                # sometimes smuggle in a primitive p-th power
                for j, dj in enumerate(degs):
                    if dj % 2 == 0 and 3 * dj == d - 1 and rng.random() < 0.5:
                        img[(j, j, j)] = F3.one
                images[i] = {k: v for k, v in img.items() if v}
            d_op = alg.derivation(-1, images)
            chk = differential_restricts_to_lie(alg, d_op)
            expected = all(len(m) == 1 for img in images.values()
                           for m in img)
            assert chk.verdict == expected

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(structure, "is_gamma_derivation",
                            lambda theta, G: (False, ("w",)))
        L = DgLie(Z3, 8, [("e", 1), ("f", 2)], {}, {1: {0: 3}})
        with pytest.raises(StructureError) as err:
            differential_restricts_to_lie(PbwAlgebra(L))
        assert str(err.value) == (
            "internal error: matrix and dual restriction detectors "
            "disagree (matrix=True, dual witness=('w',))")


def ul_abc(ring, n_max=14):
    """U L_ab(a, b, c) with |a| = 5, |b| = 6, |c| = 2."""
    return PbwAlgebra(abelian(ring, n_max, [("a", 5), ("b", 6), ("c", 2)]))


class TestHopfMorphism:
    def test_identity(self):
        alg = ul_abc(F3)
        phi = hopf_morphism(alg, alg,
                            {"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1}})
        chk = is_lie_type(phi)
        assert chk.verdict

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(structure, "is_gamma_morphism",
                            lambda fd, g_tgt, g_src: (True, None))
        alg = ul_abc(F3, n_max=18)
        phi = hopf_morphism(alg, alg, {"a": {"a": 1}, "c": {"c": 1},
                                       "b": {"b": 1, (2, 2, 2): 1}})
        with pytest.raises(StructureError) as err:
            is_lie_type(phi)
        assert str(err.value) == (
            "internal error: matrix and dual Lie-type detectors disagree "
            "(matrix=False, dual witness=None)")

    def test_frobenius_twist_not_lie_type(self):
        alg = ul_abc(F3, n_max=18)
        phi = hopf_morphism(alg, alg, {"a": {"a": 1}, "c": {"c": 1},
                                       "b": {"b": 1, (2, 2, 2): 1}})
        chk = is_lie_type(phi)
        assert not chk.verdict
        assert chk.witness[0] == "b" and "c^3" in chk.witness[1]
        assert chk.dual_witness[0] == "gamma" and chk.dual_witness[2] == 3

    def test_twist_rejected_over_local_ring(self):
        # over Z_(3) the binomial middle terms of Δ(c^3) survive, so
        # b ↦ b + c^3 is not even a coalgebra morphism
        alg = ul_abc(Z3, n_max=18)
        with pytest.raises(StructureError):
            hopf_morphism(alg, alg, {"a": {"a": 1}, "c": {"c": 1},
                                     "b": {"b": 1, (2, 2, 2): 1}})

    def test_bracket_relation_enforced(self):
        src = PbwAlgebra(DgLie(Z3, 8, [("x", 1), ("y", 1), ("z", 2)],
                               {(0, 1): {2: 1}}))
        tgt = PbwAlgebra(abelian(Z3, 8, [("x", 1), ("y", 1), ("z", 2)]))
        # forgetting the bracket cannot be an algebra morphism
        with pytest.raises(StructureError):
            hopf_morphism(src, tgt,
                          {"x": {"x": 1}, "y": {"y": 1}, "z": {"z": 1}})

    @settings(max_examples=300, deadline=None)
    @given(ul_presentations(), st.integers(0, 2 ** 16))
    def test_generator_check_matches_monomial_loop(self, presentation, seed):
        # once the relations hold, the coalgebra verdict and message on
        # generators are those of Δ∘f = (f⊗f)∘Δ on every basis monomial
        alg = PbwAlgebra(DgLie(*presentation))
        images = random_generator_images(alg, random.Random(seed))
        try:
            hopf_morphism(alg, alg, images)
            got = None
        except StructureError as exc:
            got = str(exc)
            if got.startswith("not an algebra morphism"):
                return
        f = alg.algebra_map(alg, images)
        assert got == coalgebra_failure_by_monomials(alg, alg, f)

    def test_lie_morphism_and_composition(self):
        src = ul_abc(F3)
        phi = hopf_morphism(src, src, {"a": {"a": 1},
                                       "b": {"b": 2}, "c": {"c": 1}})
        assert is_lie_type(phi).verdict
        comp = {}
        for i, img in phi.gen_images.items():
            acc = {}
            for mono, c in img.items():
                accumulate(F3, acc, phi.f.image(src.monomial_degree(mono),
                                                {mono: c}), F3.one)
            comp[i] = acc
        assert is_lie_type(hopf_morphism(src, src, comp)).verdict


def random_generator_images(alg, rng):
    """Per generator in the window, a random mix of the generators of its
    degree (primitive), p-th powers of even generators (primitive over
    F_p only) and other monomials of its degree (mostly not primitive)."""
    ring, degrees = alg.ring, alg.L.degrees
    images = {}
    for i, d in enumerate(degrees):
        if d > alg.n_max:
            continue
        lin = [(j,) for j, dj in enumerate(degrees) if dj == d]
        powers = [(j,) * ring.p for j, dj in enumerate(degrees)
                  if dj % 2 == 0 and dj * ring.p == d]
        other = [m for m in alg.monomials(d)
                 if len(m) > 1 and m not in powers]
        img = {}
        for pool, chance in ((lin, 0.8), (powers, 0.5), (other, 0.5)):
            for mono in pool:
                if rng.random() < chance:
                    c = ring.of(rng.randint(-3, 3))
                    if not ring.is_zero(c):
                        img[mono] = c
        images[i] = alg.element(img)
    return images


def example1_ul(n_max=12):
    L = DgLie(Z3, n_max, [("e", 1), ("f", 2)], {}, {1: {0: 3}})
    return PbwAlgebra(L)


class TestPageAlgebra:
    def test_first_page_is_mod_p_reduction(self):
        # p | ∂, so E^1 carries the product of UL ⊗ F_3
        alg = example1_ul()
        result = bockstein_pages(alg.as_complex(), 1)
        pa = PageAlgebra(alg, result, 1)
        # each degree is 1-dimensional with representative a PBW monomial;
        # products of classes are classes of products
        prod = pa.product(1, {0: 1}, 2, {0: 1})
        target = alg.basis.to_column(3, alg.mul(alg.gen(0), alg.gen(1)),
                                     alg.ring)
        assert prod == result.class_of_chain(1, 3, target)

    def test_product_well_defined(self):
        alg = example1_ul()
        result = bockstein_pages(alg.as_complex(), 2)
        pa = PageAlgebra(alg, result, 2)
        ring = alg.ring
        # perturb a representative by 9·z and by a boundary d(3·x):
        # the page-2 class of the product must not move
        rep = result.page(2).classes[5][0].rep
        base = pa.product(5, {0: 1}, 6, {0: 1})
        pert = accumulate(ring, dict(rep), {0: ring.of(9)}, ring.one)
        bnd = result.complex.d.apply(
            6, {i: ring.of(3) for i in range(alg.dim(6))})
        accumulate(ring, pert, bnd, ring.one)
        e1 = alg.basis.from_column(5, pert)
        e2 = pa._rep_elem(6, {0: 1})
        vec = alg.basis.to_column(11, alg.mul(e1, e2), ring)
        assert result.class_of_chain(2, 11, vec) == base

    def test_coproduct_of_primitive(self):
        alg = example1_ul()
        result = bockstein_pages(alg.as_complex(), 1)
        pa = PageAlgebra(alg, result, 1)
        co = pa.coproduct(2, {0: 1})
        pairs = class_pairs(pa, 2)
        nonzero = {pairs[i] for i in co}
        # u ⊗ 1 + 1 ⊗ u only
        assert nonzero == {(0, 0, 0), (2, 0, 0)}

    def test_beta_leibniz(self):
        alg = example1_ul(n_max=14)
        result = bockstein_pages(alg.as_complex(), 2)
        for r in (1, 2):
            pa = PageAlgebra(alg, result, r)
            page = result.page(r)
            degs = [n for n in page.degrees() if 1 <= n <= 6]
            for n1 in degs:
                for n2 in degs:
                    if n1 + n2 > pa.window:
                        continue
                    v1 = dict.fromkeys(range(page.dim(n1)), 1)
                    v2 = dict.fromkeys(range(page.dim(n2)), 1)
                    assert pa.beta_leibniz(n1, v1, n2, v2)


def _snf_primitives(pa, tensor, n):
    """Kernel of the reduced coproduct with columns from the SNF route."""
    alg = pa.alg
    cols = []
    for cl in pa.page.classes.get(n, []):
        red = {k: v for k, v in alg.coproduct_elem(
            alg.basis.from_column(n, cl.rep)).items()
            if k[0] and k[1]}
        cols.append(page_pairs_by_snf(pa, tensor, n, red))
    if not cols:
        return []
    return Matrix.from_sparse_columns(pa.fp, len(class_pairs(pa, n)),
                                      cols).kernel_basis()


XYZW = [("x", 1), ("y", 1), ("z", 2), ("w", 3)]
Z5 = ZpLocal(5)


CLOSED_FORM_INPUTS = [
    pytest.param(DgLie(Z3, 12, [("e", 1), ("f", 2)], {}, {1: {0: 3}}), 2,
                 id="example1"),
    pytest.param(DgLie(Z3, 11, [("e", 1), ("f", 2), ("g", 2)], {},
                       {1: {0: 3}}), 2, id="efg"),
    pytest.param(DgLie(Z3, 8, XYZW, {(0, 1): {2: 1}}, {3: {2: 3}}), 2,
                 id="xyzw-3z"),
    pytest.param(DgLie(Z3, 8, XYZW, {(0, 1): {2: 1}}, {3: {2: 1}}), 2,
                 id="xyzw-z"),
    pytest.param(DgLie(Z3, 10, [("x", 1), ("z", 2)], {(0, 0): {1: 1}}), 2,
                 id="xx-z"),
    pytest.param(DgLie(Z5, 12, [("e", 1), ("f", 2)], {}, {1: {0: 25}}), 3,
                 id="p5-25"),
]


class TestClosedFormCoproduct:
    """The Künneth readout off UL's decomposition against the Smith form of
    UL ⊗ UL, on every class of every computed page."""

    @pytest.mark.parametrize("L, r_max", CLOSED_FORM_INPUTS)
    def test_matches_snf_route(self, L, r_max):
        alg = PbwAlgebra(L)
        result = bockstein_pages(alg.as_complex(), r_max)
        tensor = TensorSquareBss(alg, r_max)
        for r in range(1, r_max + 1):
            pa = PageAlgebra(alg, result, r)
            for n in range(pa.window + 1):
                dim = pa.page.dim(n)
                for i in range(dim):
                    t = alg.coproduct_elem(pa._rep_elem(n, {i: 1}))
                    assert pa.coproduct(n, {i: 1}) == \
                        page_pairs_by_snf(pa, tensor, n, t), (r, n, i)
                assert [dense(v, dim) for v in pa.primitives(n)] == (
                    _snf_primitives(pa, tensor, n) if n >= 1 else []), (r, n)

    def test_non_surviving_chain_rejected(self):
        # the one survival check of the page coproduct, on the UL chain:
        # d f = 3·e is not divisible by 9
        alg = example1_ul()
        result = bockstein_pages(alg.as_complex(), 2)
        f = alg.basis.to_column(2, {(1,): Z3.one}, Z3)
        with pytest.raises(ComplexError):
            result.check_survival(2, 2, f)
        # primitives and coproduct run it on the class representative: with
        # ∂f = 3e, [g] at page 2 represented by g + f does not survive
        alg = PbwAlgebra(DgLie(Z3, 8, [("e", 1), ("f", 2), ("g", 2)], {},
                               {1: {0: 3}}))
        result = bockstein_pages(alg.as_complex(), 2)
        pa = PageAlgebra(alg, result, 2)
        [cl] = result.page(2).classes[2]
        cl.rep = alg.basis.to_column(2, {(1,): Z3.one, (2,): Z3.one}, Z3)
        with pytest.raises(ComplexError):
            pa.primitives(2)
        with pytest.raises(ComplexError):
            pa.coproduct(2, {0: 1})

    def test_degree_above_window_rejected(self):
        alg = example1_ul()
        pa = PageAlgebra(alg, bockstein_pages(alg.as_complex(), 1), 1)
        with pytest.raises(WindowError):
            pa.coproduct(pa.window + 1, {})

    def test_corrupted_representative_rejected(self):
        alg = example1_ul()
        result = bockstein_pages(alg.as_complex(), 1)
        cl = result.page(1).classes[4][0]
        cl.rep = {i: Z3.mul(Z3.of(3), c) for i, c in cl.rep.items()}
        with pytest.raises(StructureError):
            PageAlgebra(alg, result, 1)


GOLDEN = Path(__file__).parent / "golden"


def golden_dgl(name, n_max):
    return parse_dgl((GOLDEN / name).read_text()).replace(n_max=n_max)


def _read_monomials(alg, result):
    """Monomials with a coefficient prime to p in some class representative
    of some computed page: the ones the page coproduct splits."""
    ring = alg.ring
    return {alg.basis.keys(n)[k]
            for page in result.pages
            for n, cls in page.classes.items() for cl in cls
            for k, x in cl.rep.items() if ring.reduce_mod_p(x)}


def _even_run_of_p(alg, mono):
    # a run g^m, g even and m ≥ p: some C(m, j) with 0 < j < m is 0 mod p
    return any(m >= alg.ring.p and alg.L.degrees[g] % 2 == 0
               for g, m in run_length(mono))


def _two_odd_letters(alg, mono):
    # odd letters split apart pick up the Koszul sign
    return sum(alg.L.degrees[g] % 2 for g in mono) >= 2


SPLIT_CASES = {      # name: (L, r_max, the case its splits reach)
    "p3-even-runs": (DgLie(Z3, 14, [("e", 1), ("f", 2), ("g", 2)], {},
                           {1: {0: 9}}), 3, _even_run_of_p),
    "p5-even-runs": (DgLie(Z5, 14, [("e", 1), ("f", 2), ("g", 2)], {},
                           {1: {0: 5}}), 2, _even_run_of_p),
    "two-odd-letters": (DgLie(Z3, 10, [("a", 1), ("b", 2), ("c", 1),
                                       ("d", 3)], {(0, 2): {1: 1}},
                              {3: {1: 3}}), 2, _two_odd_letters),
}


def twist(pa, n, col):
    """A column of degree-n page pairs under τ(x⊗y) = (-1)^{|x||y|} y⊗x:
    the pair (a, i, j) goes to (n−a, j, i)."""
    dim, offset = pa.page.dim, [0]
    for a in range(n + 1):
        offset.append(offset[-1] + dim(a) * dim(n - a))
    out = {}
    for k, x in col.items():
        a = bisect_right(offset, k) - 1
        i, j = divmod(k - offset[a], dim(n - a))
        out[offset[n - a] + j * dim(a) + i] = \
            x * (-1) ** (a * (n - a)) % pa.fp.p
    return out, offset[n // 2 + 1]


class TestCoproductOverFp:
    """The page coproduct formed over F_p split by split, column for column
    against all of Δ over Z_(p) reduced mod p afterwards
    (`page_pairs_by_delta`): Δ for `coproduct` and, for the columns whose
    kernel `primitives` takes, the pairs (a, i, j) of Δ̄ with 2a ≤ n, on
    every class of every computed page.  The oracle's Δ̄ is τ-invariant,
    which is what lets that half stand for it."""

    @pytest.mark.parametrize("L, r_max", CLOSED_FORM_INPUTS + [
        pytest.param(golden_dgl("nonabelian16.dgl", 16), 3,
                     id="nonabelian16"),
        pytest.param(golden_dgl("four4.dgl", 16), 3, id="four4"),
    ] + [pytest.param(L, r_max, id=name)
         for name, (L, r_max, _) in SPLIT_CASES.items()])
    def test_matches_delta_over_zp(self, L, r_max):
        alg = PbwAlgebra(L)
        result = bockstein_pages(alg.as_complex(), r_max)
        for r in range(1, r_max + 1):
            pa = PageAlgebra(alg, result, r)
            for n in range(pa.window + 1):
                reps = [cl.rep for cl in pa.page.classes.get(n, [])]
                full = [page_pairs_by_delta(pa, n, rep, True) for rep in reps]
                for col in full:
                    assert twist(pa, n, col)[0] == col, (r, n)
                half = twist(pa, n, {})[1]
                assert pa._coproduct_columns(n, reps, True) == [
                    {k: x for k, x in col.items() if k < half}
                    for col in full], (r, n)
                for i, rep in enumerate(reps):
                    assert pa.coproduct(n, {i: 1}) == \
                        page_pairs_by_delta(pa, n, rep, False), (r, n, i)

    @pytest.mark.parametrize("name", SPLIT_CASES)
    def test_inputs_reach_the_case_they_name(self, name):
        # each split case splits, on some page, a representative monomial
        # with a vanishing binomial or with two odd letters
        L, r_max, shape = SPLIT_CASES[name]
        alg = PbwAlgebra(L)
        monos = _read_monomials(alg, bockstein_pages(alg.as_complex(), r_max))
        assert any(shape(alg, mono) for mono in monos)

    def test_zp_coproduct_off_the_page_path(self, monkeypatch):
        # the envelope check forms page coproducts over F_p alone; the
        # Z_(p) Δ of PbwAlgebra is not called
        def zp_delta(*args, **kwargs):
            raise AssertionError("Z_(p) coproduct on the page path")
        monkeypatch.setattr(PbwAlgebra, "coproduct", zp_delta)
        monkeypatch.setattr(PbwAlgebra, "coproduct_elem", zp_delta)
        rep = envelope_report(golden_dgl("four4.dgl", 16), 3)
        assert rep.ok, rep.failures
        assert rep.primitive_dims[1]


class TestOneSplitRule:
    """`lie.splits` with p against the splits over Z reduced mod p, and
    Δ of `PbwAlgebra` over F_p against the splits with p, on every
    monomial of the split cases and of nonabelian16 at nmax 12."""

    @pytest.mark.parametrize("L", [
        pytest.param(L, id=name) for name, (L, _, _) in SPLIT_CASES.items()
    ] + [pytest.param(golden_dgl("nonabelian16.dgl", 12),
                      id="nonabelian16")])
    def test_splits_mod_p(self, L):
        p, degrees = L.p, L.degrees
        alg = PbwAlgebra(L.replace(ring=PrimeField(p)))
        dropped = 0
        for n in range(L.n_max + 1):
            for mono in alg.monomials(n):
                over_z = [(left, right, c % p)
                          for left, right, c in splits(degrees, mono, None)]
                mod_p = list(splits(degrees, mono, p))
                assert mod_p == [t for t in over_z if t[2]], mono
                assert alg.coproduct(mono) == {
                    (left, right): c for left, right, c in mod_p}, mono
                dropped += len(over_z) - len(mod_p)
        assert dropped      # each input has runs g^m with m ≥ p


GOLDEN_INPUTS = [("example1", None), ("example2", None), ("model", None),
                 ("four4", None), ("twist3", None), ("nonabelian16", 16)]


class TestPageCoordinates:
    """`BssResult.class_of_chain` against the readout through the class
    columns of P⁻¹ (`oracles.page_coords`), for every class
    representative and for the image of every Lie class under the
    inclusion, the chains `bss_of_morphism` reads, on pages 1-3 of every
    golden input; every reader reads P⁻¹ in place through the one position
    map of each page and degree."""

    @pytest.mark.parametrize("name, n_max", GOLDEN_INPUTS)
    def test_class_of_chain_matches_page_coords(self, name, n_max):
        alg = PbwAlgebra(golden_lie(name, n_max))
        ring, p, keys = alg.ring, alg.ring.p, alg.basis.keys
        result = bockstein_pages(alg.as_complex(), 3)
        result_l = bockstein_pages(alg.L.as_complex(), 3)
        incl = alg.inclusion_of_lie()
        maps = bss_of_morphism(incl, result_l, result)
        read = 0
        for r in range(1, 4):
            pa = PageAlgebra(alg, result, r)
            for n in range(pa.window + 1):
                images = [incl.apply(n, cl.rep)
                          for cl in result_l.page(r).classes.get(n, [])]
                # E^r of the inclusion reads its columns by class_of_chain
                assert maps[r - 1].sparse_columns(n) == [
                    result.class_of_chain(r, n, col) for col in images]
                chains = [cl.rep for cl in pa.page.classes.get(n, [])]
                for col in chains + images:
                    want = {}
                    for j, x in col.items():
                        for i, u in page_coords(pa, keys(n)[j])[1]:
                            want[i] = (want.get(i, 0)
                                       + ring.reduce_mod_p(x) * u) % p
                    assert result.class_of_chain(r, n, col) == {
                        i: x for i, x in want.items() if x}, (r, n)
                    read += bool(want)
        assert read

    @pytest.mark.parametrize("name, n_max", GOLDEN_INPUTS)
    def test_one_table_per_page_and_degree(self, name, n_max, monkeypatch):
        # over a whole `verify_envelope_pages`, the E^r of the inclusion,
        # the page algebras and the certificate's seeds read the two
        # decompositions in place through the one position map of each
        # page and degree, and the page coproduct reads a factor
        # monomial's coordinates only where a split needs them, not every
        # monomial on every page as a kept table of rows did
        calls = []
        read = Decomposition.coordinates

        def spy(dec, n, col, positions):
            calls.append((dec, col))
            return read(dec, n, col, positions)
        monkeypatch.setattr(Decomposition, "coordinates", spy)
        lie_results = []
        pages = structure.bockstein_pages

        def lie_pages(C, r_max):
            lie_results.append(pages(C, r_max))
            return lie_results[-1]
        monkeypatch.setattr(structure, "bockstein_pages", lie_pages)
        alg = PbwAlgebra(golden_lie(name, n_max))
        result = bockstein_pages(alg.as_complex(), 3)
        assert calls == []
        assert verify_envelope_pages(alg, result).ok
        assert len(lie_results) == 1
        decs = (result.decomposition, lie_results[0].decomposition)
        assert calls and all(dec in decs for dec, _ in calls)
        if name == "nonabelian16":
            units = sum(list(col.values()) == [1] for _, col in calls)
            monomials = sum(len(alg.monomials(n))
                            for n in range(result.page(1).n_max + 1))
            assert 0 < units < monomials

    def test_kunneth_read_back_failure(self, monkeypatch, capsys):
        # an entry added to P⁻¹ at the second class of degree 2 makes
        # [a*c] at degree 2 read back as more than itself, in the report
        # and through the command line
        message = ("Künneth comparison is not the identity: [a*c] at "
                   "degree 2 does not read back as itself")

        def altered(result):
            cl, other = result.page(1).classes[2][:2]
            ring = result.complex.ring
            j = next(j for j, x in cl.rep.items() if ring.reduce_mod_p(x))
            result.decomposition.Pinv[2][j][other.new_index] = 1
            return result
        alg = PbwAlgebra(golden_lie("four4"))
        result = altered(bockstein_pages(alg.as_complex(), 3))
        with pytest.raises(StructureError) as err:
            verify_envelope_pages(alg, result)
        assert str(err.value) == message
        pages = cli.bockstein_pages
        monkeypatch.setattr(cli, "bockstein_pages",
                            lambda C, r_max: altered(pages(C, r_max)))
        path = Path(__file__).parent / "golden" / "four4.dgl"
        assert cli.main(["bss", str(path), "--target", "ul", "--rmax", "3",
                         "--check-envelopes"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def envelope_report(L, r_max):
    alg = PbwAlgebra(L)
    return verify_envelope_pages(alg, bockstein_pages(alg.as_complex(), r_max))


class TestVerifyEnvelopePages:
    @pytest.mark.parametrize("L", [
        DgLie(Z3, 16, [("a", 1), ("b", 2), ("c", 1), ("d", 2)], {},
              {1: {0: 3}, 3: {2: 9}}),
        DgLie(Z3, 10, XYZW, {(0, 1): {2: 1}}, {3: {2: 3}}),
    ], ids=["four4", "xyzw"])
    def test_no_dense_field_elimination(self, L, monkeypatch):
        # primitives and the span checks run on sparse F_p columns; the
        # dense rref and solve are not reached
        def dense(*args, **kwargs):
            raise AssertionError("dense F_p elimination on the check path")
        monkeypatch.setattr(Matrix, "rref", dense)
        monkeypatch.setattr(Matrix, "solve", dense)
        rep = envelope_report(L, 3)
        assert rep.ok, rep.failures
        assert rep.primitive_dims[1]

    def test_peak_memory_follows_the_nonzeros(self):
        # pair positions and coproducts are computed where they are read;
        # a table of every class pair per degree or of every monomial's
        # coproduct takes about 21 MB here, far above the bound
        golden = Path(__file__).parent / "golden" / "nonabelian16.dgl"
        alg = PbwAlgebra(parse_dgl(golden.read_text()))
        result = bockstein_pages(alg.as_complex(), 3)
        tracemalloc.start()
        try:
            rep = verify_envelope_pages(alg, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok, rep.failures
        assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_example1(self):
        L = DgLie(Z3, 20, [("e", 1), ("f", 2)], {}, {1: {0: 3}})
        rep = envelope_report(L, 3)
        assert rep.ok, rep.failures
        assert rep.primitive_dims[2] == {5: 1, 6: 1, 18: 1}
        assert rep.primitive_dims[3] == {17: 1, 18: 1}
        assert rep.page_dims[3] == {0: 1, 17: 1, 18: 1}

    def test_abelian_no_torsion(self):
        L = abelian(Z3, 10, [("x", 2), ("y", 3)])
        rep = envelope_report(L, 2)
        assert rep.ok, rep.failures
        assert rep.primitive_dims[1] == rep.primitive_dims[2]

    def test_three_generator_example(self):
        L = DgLie(Z3, 12, [("e", 1), ("f", 2), ("g", 2)], {}, {1: {0: 3}})
        rep = envelope_report(L, 2)
        assert rep.ok, rep.failures
        # E^1 primitives: e, f, g, plus the cubes of f and g
        assert rep.primitive_dims[1] == {1: 1, 2: 2, 6: 2}
        # on page 2 the pair (e, f) is gone; g and its cube remain
        assert rep.primitive_dims[2][2] == 1

    def test_envelope_counting(self):
        # base-3 digits: generators 2, 6, 18 with exponents < 3 fill in
        # every even degree exactly once
        dims = _envelope_dims(3, {1: 1, 2: 1, 6: 1, 18: 1}, 19)
        assert all(dims[n] == 1 for n in range(20))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([3, 5, 7]),
           st.dictionaries(st.integers(1, 30), st.integers(0, 4),
                           max_size=6),
           st.integers(0, 60))
    def test_envelope_counting_matches_products(self, p, counts, window):
        # the two-pass recurrence against the series multiplied out
        assert _envelope_dims(p, counts, window) == \
            envelope_dims_by_products(p, counts, window)


# e(1), f(2) with ∂f = 3e and a(1), b(2) with ∂b = 9a: on page 1 the
# primitives at degree 6 are [b^3] and [f^3], on page 2 also, and every
# class of degree 5 on page 1, [a*b^2] on page 2, is not primitive
TWO_PAIRS = """\
prime 3
nmax 8
generator e 1
generator f 2
generator a 1
generator b 2
differential f = 3 e
differential b = 9 a
"""

# The report on TWO_PAIRS, pages 1-2, with one check broken.  Where (a)
# or (c) fails for several classes of one page and degree, it reports
# that page and degree once.
TAMPERED_FAILURES = {
    # (b): [f^3] dropped from page 1, degree 6; with one generator of
    # degree 6 fewer, U(primitives) loses [f^3] and [f^3]·[a], [f^3]·[e]
    "primitive": [
        "page 1: dim 7 at degree 6 differs from the enveloping count 6",
        "page 1: dim 8 at degree 7 differs from the enveloping count 6"],
    # (a): on each page, β^r of [b^3] and of [f^3] sent to [a*b^2]
    "beta": [
        "page 1: β of a primitive at degree 6 is not primitive",
        "page 2: β of a primitive at degree 6 is not primitive"],
    # (c): on page 1, the Lie classes [b] and [f] both sent to [e*a]
    "lie": [
        "page 1: a Lie class at degree 2 maps to a non-primitive page "
        "class"],
}


def tamper(kind, monkeypatch):
    """Break check `kind` of `verify_envelope_pages` on TWO_PAIRS: the
    page-1 Δ̄ of [f^3], the β^r of the pages that `cli.bockstein_pages`
    returns, or the maps E^r of the Lie inclusion.  Δ̄ is broken where
    both routes to the primitives read it, `_coproduct_columns`: the full
    kernel on the class representatives, the certificate on the chain of
    each candidate, here [f]^3."""
    if kind == "primitive":
        columns = PageAlgebra._coproduct_columns

        def tampered(pa, n, chains, reduced):
            cols = columns(pa, n, chains, reduced)
            if (pa.r, n, reduced) == (1, 6, True):
                names = [cl.name for cl in pa.page.classes[6]]
                f3 = names.index("[f^3]")
                for chain, col in zip(chains, cols):
                    # linear in the chain's [f^3] coordinate, at the pair
                    # (0, 0, 0) with the unit class, which Δ̄ never has
                    c = pa.result.class_of_chain(pa.r, 6, chain).get(f3)
                    if c:
                        col[0] = c
            return cols
        monkeypatch.setattr(PageAlgebra, "_coproduct_columns", tampered)
    elif kind == "beta":
        pages = cli.bockstein_pages

        def redirected(C, r_max):
            result = pages(C, r_max)
            for page in result.pages:
                assert page.classes[5][0].name == "[a*b^2]"
                page.beta.set_sparse_columns(6, [
                    {0: 1} if cl.name in ("[b^3]", "[f^3]") else col
                    for cl, col in zip(page.classes[6],
                                       page.beta.sparse_columns(6))])
            return result
        monkeypatch.setattr(cli, "bockstein_pages", redirected)
    else:
        morphism = structure.bss_of_morphism

        def redirected(f, src, tgt):
            maps = morphism(f, src, tgt)
            assert [cl.name for cl in tgt.page(1).classes[2]] == [
                "[b]", "[e*a]", "[f]"]
            maps[0].set_sparse_columns(2, [{1: 1}, {1: 1}])
            return maps
        monkeypatch.setattr(structure, "bss_of_morphism", redirected)


class TestFailingVerdicts:
    """Each check of `verify_envelope_pages` fails when broken by hand,
    with its exact failure lines, both in the report and through the
    command line."""

    def test_untampered_passes(self):
        alg = PbwAlgebra(parse_dgl(TWO_PAIRS))
        rep = verify_envelope_pages(alg, bockstein_pages(alg.as_complex(), 2))
        assert rep.ok and rep.failures == []

    @pytest.mark.parametrize("kind", sorted(TAMPERED_FAILURES))
    def test_report(self, kind, monkeypatch):
        tamper(kind, monkeypatch)
        alg = PbwAlgebra(parse_dgl(TWO_PAIRS))
        rep = verify_envelope_pages(
            alg, cli.bockstein_pages(alg.as_complex(), 2))
        assert not rep.ok
        assert rep.failures == TAMPERED_FAILURES[kind]

    @pytest.mark.parametrize("kind", sorted(TAMPERED_FAILURES))
    def test_cli(self, kind, monkeypatch, tmp_path, capsys):
        path = tmp_path / "two_pairs.dgl"
        path.write_text(TWO_PAIRS)
        argv = ["bss", str(path), "--target", "ul", "--rmax", "2",
                "--check-envelopes"]
        tamper(kind, monkeypatch)
        assert cli.main(argv) == 1
        out = capsys.readouterr().out.splitlines()
        at = out.index("page/enveloping consistency: FAILED")
        assert out[at + 1:] == ["  " + f for f in TAMPERED_FAILURES[kind]]
        assert cli.main(["--json"] + argv) == 1
        rep = json.loads(capsys.readouterr().out)["envelope_consistency"]
        assert rep == {"ok": False, "failures": TAMPERED_FAILURES[kind]}


def spied_report(alg, result):
    """`verify_envelope_pages` with each page's certificate recorded:
    the report, [(PageAlgebra, its `certified_primitives`)] in page
    order, and the pages that took the full kernel."""
    certs, fell_back = [], set()
    certify = PageAlgebra.certified_primitives
    primitives = PageAlgebra.primitives

    def certified(pa, seeds):
        prim = certify(pa, seeds)
        certs.append((pa, prim))
        return prim

    def kernel(pa, n):
        fell_back.add(pa.r)
        return primitives(pa, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PageAlgebra, "certified_primitives", certified)
        mp.setattr(PageAlgebra, "primitives", kernel)
        rep = verify_envelope_pages(alg, result)
    return rep, certs, sorted(fell_back)


def assert_kernel_span(pa, prim):
    """The certified primitives of each degree span the kernel of Δ̄."""
    for n in range(1, pa.window + 1):
        kernel = pa.primitives(n)
        span = FpSpan(pa.fp.p, kernel)
        assert len(prim[n]) == len(kernel), (pa.r, n)
        assert all(v in span for v in prim[n]), (pa.r, n)


class TestEnvelopeCertificate:
    """The certificate of `verify_envelope_pages` against the full kernel
    of Δ̄, `PageAlgebra.primitives`, its fallback and its reference."""

    @pytest.mark.parametrize("name, n_max", GOLDEN_INPUTS + [
        ("nonabelian16", 32),
        pytest.param(DgLie(Z3, 32, [("x", 1), ("y", 2), ("z", 3), ("w", 4)],
                           {(0, 1): {2: 1}}, {1: {0: 3}, 3: {2: 3}}), 32,
                     id="indecomposable-32")])
    def test_certified_span_is_the_kernel(self, name, n_max):
        # the golden inputs, nonabelian16 past its golden window, and the
        # indecomposable block [x, y] = z, ∂y = 3x, ∂w = 3z over Z_(3)
        alg = PbwAlgebra(golden_lie(name, n_max) if isinstance(name, str)
                         else name)
        rep, certs, fell_back = spied_report(
            alg, bockstein_pages(alg.as_complex(), 3))
        assert rep.ok, rep.failures
        assert fell_back == []
        assert [pa.r for pa, _ in certs] == [1, 2, 3]
        for pa, prim in certs:
            assert_kernel_span(pa, prim)

    @settings(max_examples=40, deadline=None)
    @given(dgl_presentations())
    def test_certified_span_on_random_dgls(self, L):
        # pages over Z_(p) only; a page may fall back where a power's
        # piece straddles the window edge
        assume(not L.ring.is_field)
        alg = PbwAlgebra(L)
        rep, certs, fell_back = spied_report(
            alg, bockstein_pages(alg.as_complex(), 3))
        assert rep.ok, rep.failures
        for pa, prim in certs:
            if pa.r not in fell_back:
                assert_kernel_span(pa, prim)

    @pytest.mark.parametrize("starve", ["lie", "all"])
    def test_starved_certificate_falls_back(self, starve, monkeypatch):
        # with no Lie seed, page 1 has no candidate; with no seed at all,
        # no page has one.  Each such page takes the full kernel, and the
        # report is the full kernel's.
        alg = PbwAlgebra(golden_lie("four4", None))
        result = bockstein_pages(alg.as_complex(), 3)
        kernel_dims = {}
        for r in (1, 2, 3):
            pa = PageAlgebra(alg, result, r)
            dims = {n: len(pa.primitives(n)) for n in range(1, pa.window + 1)}
            kernel_dims[r] = {n: d for n, d in dims.items() if d}
        if starve == "lie":
            morphism = structure.bss_of_morphism

            def no_lie(f, src, tgt):
                maps = morphism(f, src, tgt)
                for gm in maps:
                    for n in gm.degrees():
                        gm.set_sparse_columns(
                            n, [{} for _ in gm.sparse_columns(n)])
                return maps
            monkeypatch.setattr(structure, "bss_of_morphism", no_lie)
        else:
            certify = PageAlgebra.certified_primitives
            monkeypatch.setattr(PageAlgebra, "certified_primitives",
                                lambda pa, seeds: certify(pa, []))
        rep, _, fell_back = spied_report(alg, result)
        assert rep.ok, rep.failures
        assert fell_back == ([1] if starve == "lie" else [1, 2, 3])
        assert rep.primitive_dims == kernel_dims

    def test_broken_coproduct_falls_back(self, monkeypatch):
        # a candidate that is not primitive ends the certificate: the
        # tampered Δ̄ of [f^3] sends page 1 of TWO_PAIRS to the kernel
        tamper("primitive", monkeypatch)
        alg = PbwAlgebra(parse_dgl(TWO_PAIRS))
        rep, certs, fell_back = spied_report(
            alg, bockstein_pages(alg.as_complex(), 2))
        assert certs[0][1] is None and 1 in fell_back
        assert rep.failures == TAMPERED_FAILURES["primitive"]
