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
second complex is decomposed, and no differential is applied on UL ⊗ UL:
a class representative survives to its page by the verified
decomposition (d·P = P·D), and Δ∘d = (d⊗1 ± 1⊗d)∘Δ with integral
coefficients, so Δ of a surviving UL chain survives too.  Survival is
checked once, on the UL chain.  Third, a page-by-page report that each
page looks like the enveloping algebra of its primitives: β-closure, a
dimension count, and primitivity of the image of the Lie inclusion, on
primitives certified by a Milnor–Moore count where it closes and taken
as the full kernel of Δ̄ elsewhere (`verify_envelope_pages`).

The page side works on nonzeros.  Page coordinates, in and out, are
column dicts (class position -> nonzero), a class's representative is its
column of P, and β is applied through its stored columns.  A class of
UL ⊗ UL over pairs of page classes is a dict of its nonzero coordinates,
a candidate is primitive when its column is empty, the full kernel is
taken of those sparse columns over F_p, and the span checks reduce sparse
vectors against them (`scalars.FpSpan`, whose kernel basis is the
reduced-echelon one of `Matrix.kernel_basis`).  No dense matrix or
vector is built on this path.

The coalgebra structure constants of UL in the PBW basis do not involve
the bracket: Δ of an ordered monomial is a signed sum of binomial
multiples of its ordered sub-monomials, by the one split rule
`lie.splits` that `PbwAlgebra.coproduct` and the page coproduct both
iterate, so the dual of any UL is paired against the same Γ-algebra as in
the abelian case.
Primitivity is read off Δ directly, and a Hopf morphism's coalgebra
condition is checked on generators, where it says that each generator
image is primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bss import BssResult, bockstein_pages, bss_of_morphism
from .gamma import (GammaAlgebra, adjoint, is_gamma_derivation,
                    is_gamma_morphism)
from .graded import ComplexError, GradedBasis, GradedChainComplex, GradedMap
from .lie import PbwAlgebra, splits
from .scalars import FpSpan, accumulate, fp_kernel


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


# ---------------------------------------------------------------------------
# restriction of a differential to the Lie part
# ---------------------------------------------------------------------------

@dataclass
class LieCheck:
    verdict: bool
    witness: tuple | None        # (generator, expanded image) when False
    dual_witness: tuple | None   # γ-side witness when False


def _two_routes(names: list, gen_images: dict, target: PbwAlgebra, dual,
                what: str) -> LieCheck:
    """The direct verdict, that every generator image is supported on
    length-1 monomials of `target`, against the dual route's (verdict,
    witness); the two must agree, `what` naming the detectors if not."""
    verdict, witness = True, None
    for i, img in gen_images.items():
        if any(len(mono) != 1 for mono in img):
            verdict, witness = False, (names[i], _named(target, img))
            break
    dual_verdict, dual_witness = dual
    if dual_verdict != verdict:
        raise StructureError(
            f"internal error: matrix and dual {what} detectors disagree "
            f"(matrix={verdict}, dual witness={dual_witness})")
    return LieCheck(verdict, witness, dual_witness)


def differential_restricts_to_lie(alg: PbwAlgebra,
                                  d: GradedMap | None = None) -> LieCheck:
    """Whether a coalgebra derivation of UL maps the Lie part into itself.

    Checked directly (generator images supported on length-1 monomials) and
    on the dual Γ-algebra (the adjoint must be a γ-derivation); the two
    verdicts must agree.
    """
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
    # ⟨a, θω⟩ = (-1)^{|a|}⟨d a, ω⟩ on the dual Γ-algebra
    G = _dual_gamma(alg)
    return _two_routes(alg.L.names, gens, alg,
                       is_gamma_derivation(adjoint(d, G, G), G),
                       "restriction")


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
    imgs = target.images(source.L, gen_images)
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
    Γ-algebras must commute with every γ^k.  Verdicts must agree.  Both
    see the generators inside the window only, as the dual route does.
    """
    src = phi.source
    g_src, g_tgt = _dual_gamma(src), _dual_gamma(phi.target)
    gens = {i: img for i, img in phi.gen_images.items()
            if src.L.degrees[i] <= src.n_max}
    return _two_routes(src.L.names, gens, phi.target,
                       is_gamma_morphism(adjoint(phi.f, g_src, g_tgt),
                                         g_tgt, g_src),
                       "Lie-type")


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


class _Factors(dict):
    """PBW monomial -> (degree, [(class, coefficient)]) on a page: the one
    reader's output on its unit chain, read on first use.  The memo of one
    `PageAlgebra._coproduct_columns` call, or of a page's `primitives`."""

    def __init__(self, pa: "PageAlgebra"):
        self.alg, self.page, self.dec = pa.alg, pa.page, pa.result.decomposition

    def __missing__(self, mono):
        alg = self.alg
        a = alg.monomial_degree(mono)
        u = self.dec.coordinates(a, {alg.basis.index(a, mono): 1},
                                 self.page.positions[a])
        self[mono] = out = a, list(u.items())
        return out


class PageAlgebra:
    """Product, coproduct, and β induced on one Bockstein page of UL.

    Products are computed on chain representatives and read back by the
    result's one reader of page coordinates (`BssResult.class_of_chain`).
    For coproducts, UL ⊗ UL in the basis P⊗P of UL's decomposition is a
    sum of tensor products of pieces: free⊗free is free, free⊗E(k) a
    shifted E(k), and E(a)⊗E(b) two copies of E(min(a, b)) by a basis
    change that is the identity mod p (Browder, "Torsion in H-spaces",
    1961).  So a tensor chain surviving to page r has the class
    Σ c·u_i·v_j mod p over pairs of live classes, where u, v are the
    monomials' page coordinates, the one reader's output on their unit
    chains (`Decomposition.coordinates`, through `_Factors`).  A class of
    degree n is a dict from pair positions to nonzero coefficients: the
    pair (a, i, j) of class i of degree a with class j of degree n−a sits
    at offset[a] + i·dim(n−a) + j, offset[a] counting the pairs below a.
    The primitives are the kernel of those sparse columns over F_p
    (`FpSpan`).  The comparison with the tensor-square page is the
    identity, and the constructor checks what that rests on: each class
    representative reads back as its own unit vector.  The tensor chains
    read are Δ and Δ̄ of UL chains, which survive to page r when the UL
    chain does (Δ is a chain map), so `primitives` and `coproduct` check
    only the UL chain, with `BssResult.check_survival`; d is never
    applied on UL ⊗ UL.  Both form Δ or Δ̄ over F_p on live factors
    (`_coproduct_columns`), split by split from `lie.splits`.
    """

    def __init__(self, alg: PbwAlgebra, result: BssResult, r: int):
        self.alg = alg
        self.result = result
        self.r = r
        self.page = result.page(r)
        self.fp = alg.ring.residue_field()
        self.window = self.page.n_max
        self._factors = None        # `primitives`' memo, kept for the page
        dec, positions = result.decomposition, self.page.positions
        for n in range(self.window + 1):
            for i, cl in enumerate(self.page.classes.get(n, [])):
                if dec.coordinates(n, cl.rep, positions[n]) != {i: 1}:
                    raise StructureError(
                        f"Künneth comparison is not the identity: {cl.name} "
                        f"at degree {n} does not read back as itself")

    def _coproduct_columns(self, n: int, chains, reduced: bool) -> list:
        """Page-r classes of Δ, or of Δ̄ when `reduced`, of UL chains of
        degree n (column dicts) surviving to page r, one dict per chain:
        position -> nonzero coefficient, the pair (a, i, j) at
        offset[a] + i·dim(n−a) + j, offset[a] counting the pairs below a.

        Only the class mod p is read, so Δ is formed over F_p by the
        splits of `lie.splits` with p, which drops a split whose binomial
        vanishes mod p, and a split is skipped as soon as its left, then
        its right factor has no page coordinates.  Δ̄ is formed only at the
        pairs with 2a ≤ n: Δ is cocommutative, so (n−a, j, i) is ±(a, i, j).

        The tensor chains are not checked: Δ is a chain map with integral
        coefficients, so dx ∈ p^r·C puts d(Δx) and d(Δ̄x) in p^r·(C ⊗ C);
        callers check x on the UL chain (`BssResult.check_survival`)."""
        ring, p, degrees = self.alg.ring, self.fp.p, self.alg.L.degrees
        keys = self.alg.basis.keys(n)
        coords = _Factors(self) if self._factors is None else self._factors
        dims = [self.page.dim(a) for a in range(n + 1)]
        offset = [0]
        for a in range(n):
            offset.append(offset[-1] + dims[a] * dims[n - a])
        cols = []
        for chain in chains:
            out = {}
            for k, x in chain.items():
                c = ring.reduce_mod_p(x)
                if not c:
                    continue
                for left, right, coeff in splits(degrees, keys[k], p):
                    if reduced and not (left and right):
                        continue
                    a, u = coords[left]
                    if not u or (reduced and 2 * a > n):
                        continue
                    v = coords[right][1]
                    if not v:
                        continue
                    width, base, coeff = dims[n - a], offset[a], c * coeff
                    for i, ui in u:
                        cu, row = coeff * ui, base + i * width
                        for j, vj in v:
                            out[row + j] = out.get(row + j, 0) + cu * vj
            cols.append({k: x % p for k, x in out.items() if x % p})
        return cols

    def _chain(self, n: int, vec: dict) -> dict:
        """Chain representative, a column dict over Z_(p), of page
        coordinates (a column dict): Σ c·rep over the classes."""
        ring, classes = self.alg.ring, self.page.classes.get(n, [])
        col = {}
        for i, c in vec.items():
            accumulate(ring, col, classes[i].rep, ring.of(c))
        return col

    def _rep_elem(self, n: int, vec: dict) -> dict:
        """The chain representative as a UL element."""
        return self.alg.basis.from_column(n, self._chain(n, vec))

    def product(self, n1: int, vec1: dict, n2: int, vec2: dict) -> dict:
        """Page coordinates of the product of two page classes."""
        alg = self.alg
        prod = alg.mul(self._rep_elem(n1, vec1), self._rep_elem(n2, vec2))
        return self.result.class_of_chain(
            self.r, n1 + n2, alg.basis.to_column(n1 + n2, prod, alg.ring))

    def coproduct(self, n: int, vec: dict) -> dict:
        """Coproduct of a page class, as position -> nonzero coefficient,
        the pair (a, i, j) at offset[a] + i·dim(n−a) + j."""
        col = self._chain(n, vec)
        self.result.check_survival(self.r, n, col)
        return self._coproduct_columns(n, [col], False)[0]

    def beta(self, n: int, vec: dict) -> dict:
        return self.page.beta.apply(n, vec)

    def beta_leibniz(self, n1: int, vec1: dict, n2: int, vec2: dict) -> bool:
        """β(uv) = β(u)v + (-1)^{|u|} u β(v) on the page."""
        fp = self.fp
        lhs = self.beta(n1 + n2, self.product(n1, vec1, n2, vec2))
        rhs = {}
        if n1 >= 1:
            accumulate(fp, rhs, self.product(n1 - 1, self.beta(n1, vec1),
                                             n2, vec2), fp.one)
        if n2 >= 1:
            accumulate(fp, rhs, self.product(n1, vec1, n2 - 1,
                                             self.beta(n2, vec2)),
                       fp.of(-1 if n1 % 2 else 1))
        return lhs == rhs

    def primitives(self, n: int) -> list:
        """Basis of the kernel of the reduced coproduct, as column dicts of
        page coordinates: the reduced-echelon one, from the sparse columns
        over F_p.  The fallback of `verify_envelope_pages` where the
        certificate does not close, and the reference it is tested
        against."""
        if n < 1 or n > self.window:
            return []
        reps = [cl.rep for cl in self.page.classes.get(n, [])]
        for rep in reps:
            self.result.check_survival(self.r, n, rep)
        self._factors = self._factors or _Factors(self)    # once per page
        return fp_kernel(self.fp.p, self._coproduct_columns(n, reps, True))

    def certified_primitives(self, seeds) -> dict | None:
        """Primitives spanned by `seeds`, pairs (degree ≥ 1, page
        coordinates), closed under β^r and under p-th powers of even
        degree: degree -> list of independent column dicts, each checked
        primitive by Δ̄ of its one chain.  None as soon as a candidate is
        not primitive, a nonzero class of degree 0 included.  A candidate
        in the span of those kept is skipped; β^r and the p-th power are
        taken of the kept ones.  Whether they span all primitives is the
        caller's count (`verify_envelope_pages`)."""
        p, beta, window = self.fp.p, self.page.beta, self.window
        spans = {n: FpSpan(p) for n in range(1, window + 1)}
        prim = {n: [] for n in range(1, window + 1)}
        todo = list(seeds)
        while todo:
            n, vec = todo.pop()
            if not vec:
                continue
            if n == 0:
                return None
            if spans[n].add(vec) is not None:
                continue
            if self._coproduct_columns(n, [self._chain(n, vec)], True)[0]:
                return None
            prim[n].append(vec)
            todo.append((n - 1, beta.apply(n, vec)))
            if n % 2 == 0 and p * n <= window:
                power = vec
                for k in range(1, p):
                    power = self.product(k * n, power, n, vec)
                todo.append((p * n, power))
        return prim


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
    powers of primitives reappear as primitives of their own).  Each
    generator of degree d multiplies the series by
    1 + t^d + ... = (1 − t^cut)/(1 − t^d), cut = 2d for odd d and p·d for
    even d, exactly over the integers, in two passes over the window."""
    series = [1] + [0] * window
    for d, count in sorted(gen_counts.items()):
        cut = 2 * d if d % 2 else p * d
        for _ in range(count):
            for n in range(window, cut - 1, -1):
                series[n] -= series[n - cut]
            for n in range(d, window + 1):
                series[n] += series[n - d]
    return series


def verify_envelope_pages(alg: PbwAlgebra,
                          result: BssResult) -> EnvelopePageReport:
    """Page-by-page consistency of E^r(UL) with U(primitives).

    `result` holds the pages of UL's own complex.  For each computed page
    r and degree in its trust window: (a) β^r maps primitives to
    primitives; (b) page dimensions match the enveloping count on a basis
    of P(E^r); (c) the image of E^r of the Lie inclusion is primitive.

    P(E^r) is certified where it can be.  The seeds are the image of E^r
    of the Lie inclusion, which (c) reads, and, where they survive to
    page r, the p-th powers g^p of the even generators and the chains of
    page r−1's primitives; `PageAlgebra.certified_primitives` closes them
    under β^r and p-th powers and checks each kept one primitive.  If all
    are, and their enveloping count equals dim E^r in every degree, they
    span P(E^r): V(P) → E^r is injective (Milnor and Moore, "On the
    structure of Hopf algebras", 1965, §§3 and 6), so the count on P is
    at most dim E^r, and the count on a subspace Q of P is at most that
    on P, with equality in every degree only when Q = P.  The checks then
    pass, as on the full kernel.  Otherwise the page falls back to the
    full kernel of Δ̄ (`PageAlgebra.primitives`), so a failing verdict
    and its lines are those of the full kernel.
    """
    r_max = len(result.pages)
    result_l = bockstein_pages(alg.L.as_complex(), r_max)
    page_maps = bss_of_morphism(alg.inclusion_of_lie(), result_l, result)
    window = result.page(1).n_max
    ring = alg.ring
    p = ring.p
    failures = []
    prim_dims = {}
    page_dims = {}
    powers = [(p * d, alg.basis.to_column(p * d, {(i,) * p: ring.one}, ring))
              for i, d in enumerate(alg.L.degrees)
              if d % 2 == 0 and p * d <= window]
    chains = []     # (degree, chain) of each of page r−1's primitives

    def count(prim):
        return _envelope_dims(p, {n: len(v) for n, v in prim.items()},
                              window)
    for r in range(1, r_max + 1):
        pa = PageAlgebra(alg, result, r)
        page = result.page(r)
        gm = page_maps[r - 1]
        dims = [page.dim(n) for n in range(window + 1)]
        seeds = [(n, col) for n in range(1, window + 1)
                 for col in gm.sparse_columns(n)]
        for n, chain in powers + chains:
            try:
                seeds.append((n, result.class_of_chain(r, n, chain)))
            except ComplexError:
                pass             # dies entering page r
        prim = pa.certified_primitives(seeds)
        env = None if prim is None else count(prim)
        if env != dims:
            prim = {n: pa.primitives(n) for n in range(1, window + 1)}
            env = count(prim)
        chains = [(n, pa._chain(n, v)) for n, vs in prim.items() for v in vs]
        prim_dims[r] = {n: len(v) for n, v in prim.items() if v}
        page_dims[r] = {n: d for n, d in enumerate(dims) if d}
        span = {n: FpSpan(p, prim.get(n, [])) for n in range(window + 1)}
        for n in range(1, window + 1):
            for v in prim[n]:
                if page.beta.apply(n, v) not in span[n - 1]:
                    failures.append(
                        f"page {r}: β of a primitive at degree {n} "
                        "is not primitive")
                    break
        for n in range(window + 1):
            if env[n] != dims[n]:
                failures.append(
                    f"page {r}: dim {dims[n]} at degree {n} differs "
                    f"from the enveloping count {env[n]}")
        for n in range(1, window + 1):
            for col in gm.sparse_columns(n):
                if col not in span[n]:
                    failures.append(
                        f"page {r}: a Lie class at degree {n} maps to a "
                        "non-primitive page class")
                    break
    return EnvelopePageReport(not failures, failures, prim_dims, page_dims)
