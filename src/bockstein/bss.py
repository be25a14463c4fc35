"""Mod-p homology Bockstein spectral sequence of a free Z_(p) chain complex.

Pages are read off the elementary-piece decomposition: a piece p^k: y -> x
contributes the pair ([y], [x]) to every page r ≤ k, with β^r[y] = [x] exactly
when r = k, and both classes die entering page k+1; free pieces contribute
permanent classes.  Chain-level representatives are the decomposed basis
vectors, so d(rep) ∈ p^r·C holds by construction for every class alive at
page r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graded import (ComplexError, Decomposition, GradedBasis,
                     GradedChainComplex, GradedMap, WindowError, decompose)
from .scalars import Matrix, RingError


@dataclass
class PageClass:
    degree: int
    name: str
    rep: list                    # chain in original coordinates over Z_(p)
    kind: str                    # "free" | "top" | "bottom"
    exponent: int                # piece exponent (0 for free classes)
    new_index: int               # column in the decomposed basis


@dataclass
class SpectralPage:
    r: int
    n_max: int                   # trust window: degrees 0..n_max inclusive
    classes: dict                # degree -> ordered list of PageClass
    beta: GradedMap              # degree -1 map over F_p on the page basis
    basis: GradedBasis

    def dim(self, n: int) -> int:
        return len(self.classes.get(n, []))

    def degrees(self):
        return sorted(self.classes)


@dataclass
class BssResult:
    complex: GradedChainComplex
    decomposition: Decomposition
    pages: list
    stable_page: int | None      # first r with E^r = E^{r+1} = ..., if certain
    max_exponent: int

    def page(self, r: int) -> SpectralPage:
        if r < 1 or r > len(self.pages):
            raise WindowError(f"page {r} not computed (r_max={len(self.pages)})")
        return self.pages[r - 1]

    def class_of_chain(self, r: int, n: int, vec):
        """F_p coordinates, in the page-r basis at degree n, of a chain.

        The chain must survive to page r: d(vec) ∈ p^r·C.  Raises otherwise.
        """
        ring = self.complex.ring
        page = self.page(r)
        if n > page.n_max or n < 0:
            raise WindowError(f"degree {n} outside page trust window")
        img = self.complex.d.block(n).apply(vec)
        for x in img:
            if not ring.is_zero(x) and ring.valuation(x) < r:
                raise ComplexError(
                    f"chain does not survive to page {r}: d(c) ∉ p^{r}·C")
        w = self.decomposition.coordinates(n, vec)
        return [ring.reduce_mod_p(w[cl.new_index])
                for cl in page.classes.get(n, [])]


def _class_name(basis: GradedBasis, n: int, column: dict, used):
    """[first basis vector of a P column], made unique with ~k."""
    name = f"[{basis.names(n)[min(column)]}]" if column else "[0]"
    if name in used:
        k = 2
        while f"{name}~{k}" in used:
            k += 1
        name = f"{name}~{k}"
    used.add(name)
    return name


def bockstein_pages(C: GradedChainComplex, r_max: int) -> BssResult:
    """Pages E^1..E^{r_max}, reported for degrees ≤ n_max - 1."""
    if r_max < 1:
        raise ValueError("r_max must be ≥ 1")
    ring = C.ring
    if ring.is_field:
        raise RingError("Bockstein pages run over Z_(p); reduce afterwards")
    fp = ring.residue_field()
    dec = decompose(C)
    window = C.n_max - 1

    elementary = [pc for pc in dec.pieces
                  if pc.kind == "elementary" and pc.exponent >= 1]
    max_exp = max((pc.exponent for pc in elementary
                   if pc.top_degree - 1 <= window), default=0)

    pages = []
    for r in range(1, r_max + 1):
        classes = {}
        pairs = []   # (top PageClass, bottom PageClass) for β^r arrows

        def _add(n, kind, exponent, new_index, store):
            rep = dec.representative(n, new_index)
            cl = PageClass(n, "", rep, kind, exponent, new_index)
            store.setdefault(n, []).append(cl)
            return cl

        raw = {}
        for pc in dec.pieces:
            if pc.kind == "free":
                if pc.top_degree <= window:
                    _add(pc.top_degree, "free", 0, pc.top_index, raw)
            elif pc.exponent >= r:
                top = bottom = None
                if pc.top_degree <= window:
                    top = _add(pc.top_degree, "top", pc.exponent,
                               pc.top_index, raw)
                if pc.top_degree - 1 <= window:
                    bottom = _add(pc.top_degree - 1, "bottom", pc.exponent,
                                  pc.bottom_index, raw)
                if pc.exponent == r and top is not None and bottom is not None:
                    pairs.append((top, bottom))

        used = set()
        for n in sorted(raw):
            cls = raw[n]
            for cl in cls:
                cl.name = _class_name(C.basis, n, dec.P[n][cl.new_index],
                                      used)
            cls.sort(key=lambda cl: cl.name)
            classes[n] = cls

        names = {n: [cl.name for cl in cls] for n, cls in classes.items()}
        page_basis = GradedBasis(names, max(window, 0))
        beta = GradedMap(page_basis, page_basis, -1, fp)
        blocks = {}
        index = {id(cl): i for cls in classes.values()
                 for i, cl in enumerate(cls)}
        for top, bottom in pairs:
            n = top.degree
            m = blocks.get(n)
            if m is None:
                m = Matrix.zeros(fp, page_basis.dim(n - 1), page_basis.dim(n))
                blocks[n] = m
            i, j = index[id(bottom)], index[id(top)]
            m.a[i][j] = fp.one
        for n, m in blocks.items():
            beta.set_block(n, m)
        pages.append(SpectralPage(r, window, classes, beta, page_basis))

    # All piece exponents inside the window are known, so stabilization at
    # max_exp + 1 is genuine, not an artifact of truncation.
    return BssResult(C, dec, pages, max_exp + 1, max_exp)


def is_chain_map(f: GradedMap, C: GradedChainComplex, D: GradedChainComplex):
    """None if f commutes with the differentials, else the offending degree."""
    lhs = D.d.compose(f)
    rhs = f.compose(C.d)
    for n in set(lhs.blocks) | set(rhs.blocks):
        if lhs.block(n).a != rhs.block(n).a:
            return n
    return None


def bss_of_morphism(f: GradedMap, bss_src: BssResult, bss_tgt: BssResult,
                    r_max: int | None = None) -> list:
    """Per-page maps E^r(f), as GradedMaps over F_p between page bases.

    f must be a degree-0 chain map over Z_(p); E^r(f) sends a class to the
    class of the image of its representative, which survives automatically.
    """
    bad = is_chain_map(f, bss_src.complex, bss_tgt.complex)
    if bad is not None:
        raise ComplexError(f"not a chain map: fails at degree {bad}")
    if r_max is None:
        r_max = min(len(bss_src.pages), len(bss_tgt.pages))
    fp = bss_src.complex.ring.residue_field()
    out = []
    for r in range(1, r_max + 1):
        ps, pt = bss_src.page(r), bss_tgt.page(r)
        gm = GradedMap(ps.basis, pt.basis, 0, fp)
        for n in ps.degrees():
            cols = [bss_tgt.class_of_chain(r, n, f.apply(n, cl.rep))
                    for cl in ps.classes[n]]
            if cols:
                gm.set_block(n, Matrix.from_columns(fp, pt.dim(n), cols))
        out.append(gm)
    return out
