"""Structural checks on enveloping algebras and their Bockstein pages.

Three families of tools live here.  First, detectors for whether a
differential or a Hopf-algebra morphism of UL restricts to the Lie part;
each comes in two independent flavors, a direct PBW-coordinate check and a
dual check on the divided-power algebra (UL)^♯, where restriction is
equivalent to compatibility with the γ operations.  The two verdicts must
always agree; a mismatch is raised as an internal error, never reported as
a result.  Second, the Hopf structure induced on a Bockstein page of UL:
product and coproduct via chain representatives, the page of UL ⊗ UL
being read off UL's own decomposition piece by piece (Künneth), so no
second complex is decomposed.  Third, a page-by-page report that each
page looks like the enveloping algebra of its primitives: β-closure, a
dimension count, and primitivity of the image of the Lie inclusion.

The coalgebra structure constants of UL in the PBW basis do not involve
the bracket: Δ of an ordered monomial is a signed sum of binomial
multiples of its ordered sub-monomials (PbwAlgebra.coproduct), so the dual
of any UL is paired against the same Γ-algebra as in the abelian case.
Primitivity is read off Δ directly, and a Hopf morphism's coalgebra
condition is checked on generators, where it says that each generator
image is primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bss import BssResult, bockstein_pages, bss_of_morphism
from .gamma import (GammaAlgebra, adjoint, is_gamma_derivation,
                    is_gamma_morphism)
from .graded import (ComplexError, GradedBasis, GradedChainComplex,
                     GradedMap, WindowError)
from .lie import PbwAlgebra
from .scalars import Matrix, accumulate


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _gen_images(alg: PbwAlgebra, f: GradedMap) -> dict:
    return {i: f.image(deg, alg.gen(i))
            for i, deg in enumerate(alg.L.degrees) if deg <= alg.n_max}


def _is_primitive(alg: PbwAlgebra, elem: dict) -> bool:
    """No term of Δ(elem) has both tensor factors of positive degree."""
    return not any(m1 and m2 for m1, m2 in alg.coproduct_elem(elem))


def _named(alg: PbwAlgebra, elem: dict) -> dict:
    return {alg.monomial_name(m): c for m, c in elem.items()}


def _dual_gamma(alg: PbwAlgebra) -> GammaAlgebra:
    gens = [(name + "#", deg)
            for name, deg in zip(alg.L.names, alg.L.degrees)]
    return GammaAlgebra(alg.ring, alg.n_max, gens)


def _in_span(ring, basis_vecs: list, vec) -> bool:
    return Matrix.from_columns(ring, len(vec), basis_vecs).solve(vec) \
        is not None


# ---------------------------------------------------------------------------
# restriction of a differential to the Lie part
# ---------------------------------------------------------------------------

@dataclass
class LieCheck:
    verdict: bool
    witness: tuple | None        # (generator, expanded image) when False
    dual_witness: tuple | None   # γ-side witness when False


def differential_restricts_to_lie(alg: PbwAlgebra,
                                  d: GradedMap | None = None) -> LieCheck:
    """Whether a coalgebra derivation of UL maps the Lie part into itself.

    Checked directly (generator images supported on length-1 monomials) and
    on the dual Γ-algebra (the adjoint must be a γ-derivation); the two
    verdicts must agree.
    """
    ring = alg.ring
    if d is None:
        d = alg.differential()
    if d.degree != -1:
        raise StructureError("expected a degree -1 operator")
    gens = _gen_images(alg, d)
    if d != alg.derivation(-1, gens):
        raise StructureError("operator is not a derivation of the product")
    for i, img in gens.items():
        if not _is_primitive(alg, img):
            raise StructureError(
                "not a coalgebra derivation: image of "
                f"{alg.L.names[i]} is not primitive")
    verdict, witness = True, None
    for i, img in gens.items():
        if any(len(mono) != 1 for mono in img):
            verdict, witness = False, (alg.L.names[i], _named(alg, img))
            break
    # ⟨a, θω⟩ = (-1)^{|a|}⟨d a, ω⟩ on the dual Γ-algebra
    G = _dual_gamma(alg)
    dual_verdict, dual_witness = is_gamma_derivation(adjoint(d, G, G), G)
    if dual_verdict != verdict:
        raise StructureError(
            "internal error: matrix and dual restriction detectors disagree "
            f"(matrix={verdict}, dual witness={dual_witness})")
    return LieCheck(verdict, witness, dual_witness)


# ---------------------------------------------------------------------------
# Hopf morphisms and Lie type
# ---------------------------------------------------------------------------

@dataclass
class HopfMorphism:
    source: PbwAlgebra
    target: PbwAlgebra
    gen_images: dict             # generator index -> target element
    f: GradedMap


def hopf_morphism(source: PbwAlgebra, target: PbwAlgebra,
                  gen_images: dict) -> HopfMorphism:
    """Validated Hopf-algebra morphism UL₁ -> UL₂ from generator images.

    Images extend multiplicatively, and the straightening relations are
    checked within the window, so f is an algebra map.  The coproduct is
    then checked on generators only: Δ∘f and (f⊗f)∘Δ are both algebra maps,
    so they agree everywhere once they agree on generators, that is, once
    every generator image is primitive.  Generators are taken by degree,
    so the one named in a failure is the lowest-degree basis monomial
    whose coproduct f does not preserve.
    """
    imgs = {}
    for key, val in gen_images.items():
        i = source.L.index[key] if isinstance(key, str) else key
        imgs[i] = target.element(val) if val else {}
    for i, el in imgs.items():
        for mono in el:
            if target.monomial_degree(mono) != source.L.degrees[i]:
                raise StructureError(
                    f"image of {source.L.names[i]} is not homogeneous of "
                    f"degree {source.L.degrees[i]}")
    f = source.algebra_map(target, imgs)
    for j in range(source.L.n_gens()):
        for i in range(j + 1):
            nd = source.L.degrees[i] + source.L.degrees[j]
            if nd > source.n_max:
                continue
            if i == j and source.L.degrees[i] % 2 == 0:
                continue    # x·x is already an ordered monomial, no relation
            lhs = f.image(nd, source.mul(source.gen(j), source.gen(i)))
            rhs = target.mul(imgs.get(j, {}), imgs.get(i, {}))
            if lhs != rhs:
                raise StructureError(
                    "not an algebra morphism: relation "
                    f"{source.L.names[j]}·{source.L.names[i]} not preserved")
    gens = sorted((deg, i) for i, deg in enumerate(source.L.degrees)
                  if deg <= source.n_max)
    for _, i in gens:
        if not _is_primitive(target, imgs.get(i, {})):
            raise StructureError(
                "not a coalgebra morphism: coproduct of "
                f"{source.L.names[i]} not preserved")
    return HopfMorphism(source, target, imgs, f)


def is_lie_type(phi: HopfMorphism) -> LieCheck:
    """Whether a Hopf morphism carries the Lie part into the Lie part.

    Direct check on generator images, and dually: the adjoint map of
    Γ-algebras must commute with every γ^k.  Verdicts must agree.
    """
    verdict, witness = True, None
    for i, img in phi.gen_images.items():
        if any(len(mono) != 1 for mono in img):
            verdict = False
            witness = (phi.source.L.names[i], _named(phi.target, img))
            break
    g_src = _dual_gamma(phi.source)
    g_tgt = _dual_gamma(phi.target)
    fd = adjoint(phi.f, g_src, g_tgt)
    dual_verdict, dual_witness = is_gamma_morphism(fd, g_tgt, g_src)
    if dual_verdict != verdict:
        raise StructureError(
            "internal error: matrix and dual Lie-type detectors disagree "
            f"(matrix={verdict}, dual witness={dual_witness})")
    return LieCheck(verdict, witness, dual_witness)


# ---------------------------------------------------------------------------
# Hopf structure on a Bockstein page
# ---------------------------------------------------------------------------

class TensorSquareBss:
    """UL ⊗ UL as a chain complex, with its own Bockstein pages.

    Basis at degree n: pairs of PBW monomials; the differential is
    PbwAlgebra.tensor_d.  Decomposed by its own Smith form, it is the
    reference the closed-form readout of PageAlgebra is tested against.
    """

    def __init__(self, alg: PbwAlgebra, r_max: int):
        self.alg = alg
        ring = alg.ring
        pairs = {n: [(m1, m2) for a in range(n + 1)
                     for m1 in alg.monomials(a)
                     for m2 in alg.monomials(n - a)]
                 for n in range(alg.n_max + 1)}
        basis = GradedBasis(pairs, alg.n_max, lambda pr: (
            f"{alg.monomial_name(pr[0])}|{alg.monomial_name(pr[1])}"))
        d = GradedMap(basis, basis, -1, ring)
        for n in range(1, alg.n_max + 1):
            d.set_columns(n, [alg.tensor_d({pr: ring.one})
                              for pr in pairs[n]])
        self.complex = GradedChainComplex(basis, d, ring)
        self.bss = bockstein_pages(self.complex, r_max)


class PageAlgebra:
    """Product, coproduct, and β induced on one Bockstein page of UL.

    Products are computed on chain representatives and read back through
    the page projection.  For coproducts, UL ⊗ UL in the basis P⊗P of UL's
    decomposition is a sum of tensor products of pieces: free⊗free is free,
    free⊗E(k) a shifted E(k), and E(a)⊗E(b) two copies of E(min(a, b)) by a
    basis change that is the identity mod p (Browder, "Torsion in
    H-spaces", 1961).  So a tensor chain surviving to page r has the class
    Σ c·u_i·v_j mod p over pairs of live classes, where u, v are the
    monomials' page coordinates; the comparison with the tensor-square
    page is the identity, and the constructor checks what that rests on:
    each class representative reads back as its own unit vector.
    """

    def __init__(self, alg: PbwAlgebra, result: BssResult, r: int):
        self.alg = alg
        self.result = result
        self.r = r
        self.page = result.page(r)
        self.fp = alg.ring.residue_field()
        self.window = self.page.n_max
        self._coords = {}       # monomial -> page coordinates mod p
        dec = result.decomposition
        for n, cls in self.page.classes.items():
            for i, cl in enumerate(cls):
                unit = [int(j == i) for j in range(len(cls))]
                if self._read(n, dec.coordinates(n, cl.rep)) != unit:
                    raise StructureError(
                        f"Künneth comparison is not the identity: {cl.name} "
                        f"at degree {n} does not read back as itself")

    def class_pairs(self, n: int) -> list:
        return [(a, i, j)
                for a in range(n + 1)
                for i in range(self.page.dim(a))
                for j in range(self.page.dim(n - a))]

    def _read(self, n: int, w) -> list:
        """Page-r coordinates mod p of a UL chain with coordinates w in the
        decomposed basis (survival not checked)."""
        return [self.alg.ring.reduce_mod_p(w[cl.new_index])
                for cl in self.page.classes.get(n, [])]

    def _mono_coords(self, mono) -> list:
        """Page coordinates of a monomial, read off its column of P^-1."""
        if mono not in self._coords:
            n = self.alg.monomial_degree(mono)
            self._coords[mono] = self._read(
                n, self.result.decomposition.basis_coordinates(
                    n, self.alg.basis.index(n, mono)))
        return self._coords[mono]

    def _pair_coords(self, n: int, t: dict) -> list:
        """Page-r class of a chain of UL ⊗ UL, over class_pairs(n)."""
        ring, fp, r = self.alg.ring, self.fp, self.r
        if n > self.window or n < 0:
            raise WindowError(f"degree {n} outside page trust window")
        for c in self.alg.tensor_d(t).values():
            if ring.valuation(c) < r:
                raise ComplexError(
                    f"chain does not survive to page {r}: d(c) ∉ p^{r}·C")
        pairs = self.class_pairs(n)
        pos = {pr: k for k, pr in enumerate(pairs)}
        out = [fp.zero] * len(pairs)
        for (m1, m2), c in t.items():
            a, c = self.alg.monomial_degree(m1), ring.reduce_mod_p(c)
            for i, ui in enumerate(self._mono_coords(m1)):
                for j, vj in enumerate(self._mono_coords(m2)):
                    if ui and vj:
                        k = pos[(a, i, j)]
                        out[k] = fp.add(out[k], fp.mul(c, fp.mul(ui, vj)))
        return out

    def _rep_elem(self, n: int, vec) -> dict:
        """Chain representative (as a UL element) of page coordinates."""
        ring = self.alg.ring
        out = {}
        for c, cl in zip(vec, self.page.classes.get(n, [])):
            accumulate(ring, out, self.alg.basis.from_vector(n, cl.rep, ring),
                       ring.of(c))
        return out

    def product(self, n1: int, vec1, n2: int, vec2):
        """Page coordinates of the product of two page classes."""
        alg = self.alg
        prod = alg.mul(self._rep_elem(n1, vec1), self._rep_elem(n2, vec2))
        return self.result.class_of_chain(
            self.r, n1 + n2, alg.basis.to_vector(n1 + n2, prod, alg.ring))

    def coproduct(self, n: int, vec):
        """Coproduct of a page class, as coordinates over class_pairs(n)."""
        return self._pair_coords(
            n, self.alg.coproduct_elem(self._rep_elem(n, vec)))

    def beta(self, n: int, vec):
        return self.page.beta.block(n).apply(vec)

    def beta_leibniz(self, n1: int, vec1, n2: int, vec2) -> bool:
        """β(uv) = β(u)v + (-1)^{|u|} u β(v) on the page."""
        fp = self.fp
        lhs = self.beta(n1 + n2, self.product(n1, vec1, n2, vec2))
        rhs = [fp.zero] * len(lhs)
        if n1 >= 1:
            t = self.product(n1 - 1, self.beta(n1, vec1), n2, vec2)
            rhs = [fp.add(a, b) for a, b in zip(rhs, t)]
        if n2 >= 1:
            s = fp.of(-1 if n1 % 2 else 1)
            t = self.product(n1, vec1, n2 - 1, self.beta(n2, vec2))
            rhs = [fp.add(a, fp.mul(s, b)) for a, b in zip(rhs, t)]
        return lhs == rhs

    def primitives(self, n: int) -> list:
        """Basis of the kernel of the reduced coproduct, in page coords."""
        if n < 1 or n > self.window:
            return []
        cols = []
        for cl in self.page.classes.get(n, []):
            elem = self.alg.basis.from_vector(n, cl.rep, self.alg.ring)
            red = {k: v for k, v in self.alg.coproduct_elem(elem).items()
                   if k[0] and k[1]}
            cols.append(self._pair_coords(n, red))
        if not cols:
            return []
        return Matrix.from_columns(self.fp, len(cols[0]), cols).kernel_basis()


# ---------------------------------------------------------------------------
# enveloping-algebra shape of the pages
# ---------------------------------------------------------------------------

@dataclass
class EnvelopePageReport:
    ok: bool
    failures: list
    primitive_dims: dict         # r -> {degree: dim P(E^r)}
    page_dims: dict              # r -> {degree: dim E^r}


def _envelope_dims(p: int, gen_counts: dict, window: int) -> list:
    """Degreewise dimensions of the enveloping algebra on primitive
    generators: exponent ≤ 1 on odd degrees, < p on even degrees (p-th
    powers of primitives reappear as primitives of their own)."""
    series = [1] + [0] * window
    for d, count in sorted(gen_counts.items()):
        if count == 0:
            continue
        top = 1 if d % 2 else p - 1
        factor = [0] * (window + 1)
        for e in range(top + 1):
            if e * d <= window:
                factor[e * d] = 1
        for _ in range(count):
            out = [0] * (window + 1)
            for a, ca in enumerate(series):
                if ca == 0:
                    continue
                for b in range(0, window + 1 - a, d):
                    if factor[b]:
                        out[a + b] += ca
            series = out
    return series


def verify_envelope_pages(alg: PbwAlgebra, result: BssResult,
                          window: int | None = None) -> EnvelopePageReport:
    """Page-by-page consistency of E^r(UL) with U(primitives).

    `result` holds the pages of UL's own complex.  For each computed page
    r and degree ≤ window: (a) β^r maps primitives to primitives; (b) page
    dimensions match the enveloping count on a basis of P(E^r); (c) the
    image of E^r of the Lie inclusion is primitive.
    """
    r_max = len(result.pages)
    result_l = bockstein_pages(alg.L.as_complex(), r_max)
    page_maps = bss_of_morphism(alg.inclusion_of_lie(), result_l, result,
                                r_max)
    full = result.page(1).n_max
    window = full if window is None else min(window, full)
    fp = alg.ring.residue_field()
    failures = []
    prim_dims = {}
    page_dims = {}
    for r in range(1, r_max + 1):
        pa = PageAlgebra(alg, result, r)
        page = result.page(r)
        prim = {n: pa.primitives(n) for n in range(1, window + 1)}
        prim_dims[r] = {n: len(v) for n, v in prim.items() if v}
        page_dims[r] = {n: page.dim(n) for n in range(window + 1)
                        if page.dim(n)}
        for n in range(1, window + 1):
            for v in prim[n]:
                img = page.beta.block(n).apply(v)
                if not _in_span(fp, prim.get(n - 1, []), img):
                    failures.append(
                        f"page {r}: β of a primitive at degree {n} "
                        "is not primitive")
                    break
        counts = {n: len(v) for n, v in prim.items()}
        env = _envelope_dims(fp.p, counts, window)
        for n in range(window + 1):
            if env[n] != page.dim(n):
                failures.append(
                    f"page {r}: dim {page.dim(n)} at degree {n} differs "
                    f"from the enveloping count {env[n]}")
        gm = page_maps[r - 1]
        for n in range(1, window + 1):
            for col in gm.block(n).columns():
                if not _in_span(fp, prim.get(n, []), col):
                    failures.append(
                        f"page {r}: a Lie class at degree {n} maps to a "
                        "non-primitive page class")
                    break
    return EnvelopePageReport(not failures, failures, prim_dims, page_dims)
