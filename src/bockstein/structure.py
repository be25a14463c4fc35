"""Structural checks on enveloping algebras and their Bockstein pages.

Three families of tools live here.  First, detectors for whether a
differential or a Hopf-algebra morphism of UL restricts to the Lie part;
each comes in two independent flavors, a direct PBW-coordinate check and a
dual check on the divided-power algebra (UL)^♯, where restriction is
equivalent to compatibility with the γ operations.  The two verdicts must
always agree; a mismatch is raised as an internal error, never reported as
a result.  Second, the Hopf structure induced on a Bockstein page of UL:
product and coproduct via chain representatives, with the tensor-square
page comparison checked to be bijective before it is used.  Third, a
page-by-page report that each page looks like the enveloping algebra of
its primitives: β-closure, a dimension count, and primitivity of the image
of the Lie inclusion.

The coalgebra structure constants of UL in the PBW basis do not involve
the bracket (straightening never fires when a coproduct term is expanded,
because letters accumulate in their original relative order), so the dual
of any UL is paired against the same Γ-algebra as in the abelian case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bss import BssResult, bockstein_pages, bss_of_morphism
from .gamma import (GammaAlgebra, adjoint, is_gamma_derivation,
                    is_gamma_morphism)
from .graded import GradedBasis, GradedChainComplex, GradedMap
from .lie import DgLie, PbwAlgebra
from .scalars import Matrix, accumulate


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _map_elem(f: GradedMap, src: PbwAlgebra, tgt: PbwAlgebra,
              elem: dict, n: int) -> dict:
    m = n + f.degree
    if not elem or not (0 <= m <= tgt.n_max):
        return {}
    return tgt.from_vector(m, f.apply(n, src.to_vector(elem, n)))


def _gen_images(alg: PbwAlgebra, f: GradedMap,
                tgt: PbwAlgebra | None = None) -> dict:
    tgt = tgt or alg
    out = {}
    for i, deg in enumerate(alg.L.degrees):
        if deg <= alg.n_max:
            out[i] = _map_elem(f, alg, tgt, {(i,): alg.ring.one}, deg)
    return out


def _is_primitive(alg: PbwAlgebra, elem: dict, n: int) -> bool:
    if not elem:
        return True
    m, _ = alg.reduced_coproduct_matrix(n)
    return all(alg.ring.is_zero(c) for c in m.apply(alg.to_vector(elem, n)))


def _named(alg: PbwAlgebra, elem: dict) -> dict:
    return {alg.monomial_name(m): c for m, c in elem.items()}


def _dual_gamma(alg: PbwAlgebra) -> GammaAlgebra:
    gens = [(name + "#", deg)
            for name, deg in zip(alg.L.names, alg.L.degrees)]
    return GammaAlgebra(alg.ring, alg.n_max, gens)


def _in_span(ring, basis_vecs: list, vec) -> bool:
    if all(ring.is_zero(c) for c in vec):
        return True
    if not basis_vecs:
        return False
    m = Matrix.from_columns(ring, len(vec), basis_vecs)
    aug = Matrix.from_columns(ring, len(vec), basis_vecs + [list(vec)])
    return m.rank() == aug.rank()


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
        if not _is_primitive(alg, img, alg.L.degrees[i] - 1):
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

    Images extend multiplicatively; the straightening relations and the
    coproduct are checked within the window.
    """
    ring = source.ring
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
            lhs = _map_elem(f, source, target,
                            source.mul(source.gen(j), source.gen(i)), nd)
            rhs = target.mul(imgs.get(j, {}), imgs.get(i, {}))
            if lhs != rhs:
                raise StructureError(
                    "not an algebra morphism: relation "
                    f"{source.L.names[j]}·{source.L.names[i]} not preserved")
    for n in range(source.n_max + 1):
        for mono in source.monomials(n):
            img = _map_elem(f, source, target, {mono: ring.one}, n)
            lhs = target.coproduct_elem(img)
            rhs = {}
            for (m1, m2), c in source.coproduct(mono).items():
                e1 = _map_elem(f, source, target, {m1: ring.one},
                               source.monomial_degree(m1))
                e2 = _map_elem(f, source, target, {m2: ring.one},
                               source.monomial_degree(m2))
                accumulate(ring, rhs,
                           {(k1, k2): ring.mul(c1, c2)
                            for k1, c1 in e1.items()
                            for k2, c2 in e2.items()}, c)
            if lhs != rhs:
                raise StructureError(
                    "not a coalgebra morphism: coproduct of "
                    f"{source.monomial_name(mono)} not preserved")
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
    d⊗1 + (-1)^{left degree}·1⊗d.  Shared by all pages of one UL.
    """

    def __init__(self, alg: PbwAlgebra, r_max: int):
        self.alg = alg
        ring = alg.ring
        n_max = alg.n_max
        self.pairs = {}
        names = {}
        for n in range(n_max + 1):
            prs = [(m1, m2)
                   for a in range(n + 1)
                   for m1 in alg.monomials(a)
                   for m2 in alg.monomials(n - a)]
            self.pairs[n] = prs
            names[n] = [f"{alg.monomial_name(m1)}|{alg.monomial_name(m2)}"
                        for m1, m2 in prs]
        self.index = {n: {pr: i for i, pr in enumerate(prs)}
                      for n, prs in self.pairs.items()}
        basis = GradedBasis(names, n_max)
        d = GradedMap(basis, basis, -1, ring)
        for n in range(1, n_max + 1):
            cols = []
            for m1, m2 in self.pairs[n]:
                out = {(k1, m2): c1 for k1, c1
                       in alg.d_elem({m1: ring.one}).items()}
                s = ring.of(-1 if alg.monomial_degree(m1) % 2 else 1)
                accumulate(ring, out,
                           {(m1, k2): c2 for k2, c2
                            in alg.d_elem({m2: ring.one}).items()}, s)
                cols.append(self.to_vector(out, n - 1))
            if cols:
                d.set_block(n, Matrix.from_columns(
                    ring, len(self.pairs[n - 1]), cols))
        self.complex = GradedChainComplex(basis, d, ring)
        self.bss = bockstein_pages(self.complex, r_max)

    def to_vector(self, tensor_elem: dict, n: int):
        ring = self.alg.ring
        vec = [ring.zero] * len(self.pairs[n])
        for key, c in tensor_elem.items():
            vec[self.index[n][key]] = c
        return vec


class PageAlgebra:
    """Product, coproduct, and β induced on one Bockstein page of UL.

    Products and coproducts are computed on chain representatives and read
    back through the page projection; the comparison map from pairs of page
    classes into the tensor-square page is checked to be bijective before
    any coproduct is trusted.
    """

    def __init__(self, alg: PbwAlgebra, result: BssResult, r: int,
                 tensor: TensorSquareBss | None = None):
        self.alg = alg
        self.result = result
        self.r = r
        self.tensor = tensor if tensor is not None else TensorSquareBss(alg, r)
        self.page = result.page(r)
        self.page_t = self.tensor.bss.page(r)
        self.fp = alg.ring.residue_field()
        self.window = self.page.n_max
        self._kunneth = {}

    def class_pairs(self, n: int) -> list:
        return [(a, i, j)
                for a in range(n + 1)
                for i in range(self.page.dim(a))
                for j in range(self.page.dim(n - a))]

    def _kunneth_matrix(self, n: int) -> Matrix:
        k = self._kunneth.get(n)
        if k is not None:
            return k
        ring = self.alg.ring
        cols = []
        for a, i, j in self.class_pairs(n):
            u = self.page.classes[a][i].rep
            v = self.page.classes[n - a][j].rep
            vec = [ring.zero] * len(self.tensor.pairs[n])
            for ii, cu in enumerate(u):
                if ring.is_zero(cu):
                    continue
                for jj, cv in enumerate(v):
                    if ring.is_zero(cv):
                        continue
                    key = (self.alg.monomials(a)[ii],
                           self.alg.monomials(n - a)[jj])
                    vec[self.tensor.index[n][key]] = ring.mul(cu, cv)
            cols.append(self.tensor.bss.class_of_chain(self.r, n, vec))
        k = Matrix.from_columns(self.fp, self.page_t.dim(n), cols)
        if k.rows != k.cols or k.rank() != k.rows:
            raise StructureError(
                f"induced coproduct ill-defined: tensor-square page at "
                f"degree {n} does not factor through pairs of page classes")
        self._kunneth[n] = k
        return k

    def _rep_elem(self, n: int, vec) -> dict:
        """Chain representative (as a UL element) of page coordinates."""
        ring = self.alg.ring
        out = {}
        for c, cl in zip(vec, self.page.classes.get(n, [])):
            accumulate(ring, out, self.alg.from_vector(n, cl.rep), ring.of(c))
        return out

    def product(self, n1: int, vec1, n2: int, vec2):
        """Page coordinates of the product of two page classes."""
        prod = self.alg.mul(self._rep_elem(n1, vec1), self._rep_elem(n2, vec2))
        return self.result.class_of_chain(
            self.r, n1 + n2, self.alg.to_vector(prod, n1 + n2))

    def coproduct(self, n: int, vec):
        """Coproduct of a page class, as coordinates over class_pairs(n)."""
        elem = self._rep_elem(n, vec)
        t = self.alg.coproduct_elem(elem)
        cls = self.tensor.bss.class_of_chain(
            self.r, n, self.tensor.to_vector(t, n))
        out = self._kunneth_matrix(n).solve(cls)
        if out is None:
            raise StructureError(f"coproduct class unsolvable at degree {n}")
        return out

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
        self._kunneth_matrix(n)   # the comparison must be bijective
        cols = []
        for cl in self.page.classes.get(n, []):
            elem = self.alg.from_vector(n, cl.rep)
            red = {k: v for k, v in self.alg.coproduct_elem(elem).items()
                   if k[0] and k[1]}
            cols.append(self.tensor.bss.class_of_chain(
                self.r, n, self.tensor.to_vector(red, n)))
        if not cols:
            return []
        m = Matrix.from_columns(self.fp, self.page_t.dim(n), cols)
        return m.kernel_basis()


def page_hopf_structure(alg: PbwAlgebra, result: BssResult, r: int,
                        tensor: TensorSquareBss | None = None) -> PageAlgebra:
    return PageAlgebra(alg, result, r, tensor)


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


def verify_envelope_pages(L: DgLie, r_max: int,
                    window: int | None = None) -> EnvelopePageReport:
    """Page-by-page consistency of E^r(UL) with U(primitives).

    For each page r ≤ r_max and degree ≤ window: (a) β^r maps primitives to
    primitives; (b) page dimensions match the enveloping count on a basis
    of P(E^r); (c) the image of E^r of the Lie inclusion is primitive.
    """
    alg = PbwAlgebra(L)
    result = bockstein_pages(alg.as_complex(), r_max)
    result_l = bockstein_pages(L.as_complex(), r_max)
    page_maps = bss_of_morphism(alg.inclusion_of_lie(), result_l, result,
                                r_max)
    tensor = TensorSquareBss(alg, r_max)
    full = result.page(1).n_max
    window = full if window is None else min(window, full)
    fp = alg.ring.residue_field()
    failures = []
    prim_dims = {}
    page_dims = {}
    for r in range(1, r_max + 1):
        pa = PageAlgebra(alg, result, r, tensor)
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
