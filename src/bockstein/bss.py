"""Mod-p homology Bockstein spectral sequence of a free Z_(p) chain complex.

Pages are read off the elementary-piece decomposition: a piece p^k: y -> x
contributes the pair ([y], [x]) to every page r ≤ k, with β^r[y] = [x] exactly
when r = k, and both classes die entering page k+1; free pieces contribute
permanent classes.  So the pages are nested filters of one list of piece
ends, built once (`bockstein_pages`) in each degree's new-basis order,
which the piece exponents alone fix: page r keeps the free ends and both
ends of every piece with k ≥ r, and only β^r and the ~k suffixes that keep
class names unique on a page change with r.  Chain-level representatives
are the decomposed basis vectors, so d(rep) ∈ p^r·C holds by construction
for every class alive at page r; each is its column of P, a column dict
shared with the decomposition.  Chains and page coordinates are column
dicts throughout, and β^r is stored as the column dicts of its arrows.
A chain's page coordinates have one reader, `BssResult.class_of_chain`:
its P^-1 coordinates restricted to the page's classes (Künneth), read in
place through each page's map of new index to position (`positions`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded import (ComplexError, Decomposition, GradedBasis,
                     GradedChainComplex, GradedMap, WindowError, decompose)
from .scalars import RingError


@dataclass
class PageClass:
    degree: int
    name: str
    # the class's column of P, shared rather than copied: its chain in
    # original coordinates over Z_(p), position -> nonzero
    rep: dict
    exponent: int                # piece exponent (0 for free classes)
    new_index: int               # column in the decomposed basis


@dataclass
class SpectralPage:
    r: int
    n_max: int                   # trust window: degrees 0..n_max inclusive
    classes: dict                # degree -> ordered list of PageClass
    beta: GradedMap              # degree -1 map over F_p on the page basis
    basis: GradedBasis
    positions: dict              # degree -> new index -> position or None

    def dim(self, n: int) -> int:
        return len(self.classes.get(n, []))

    def degrees(self):
        return sorted(self.classes)


@dataclass
class BssResult:
    complex: GradedChainComplex
    decomposition: Decomposition
    pages: list
    stable_page: int             # first r with E^r = E^{r+1} = ...
    max_exponent: int

    def page(self, r: int) -> SpectralPage:
        if r < 1 or r > len(self.pages):
            raise WindowError(f"page {r} not computed (r_max={len(self.pages)})")
        return self.pages[r - 1]

    def check_survival(self, r: int, n: int, col: dict):
        """Raise unless a chain of degree n (a column dict) lies in the
        page-r trust window and survives to page r: d(col) ∈ p^r·C."""
        ring = self.complex.ring
        if n > self.page(r).n_max or n < 0:
            raise WindowError(f"degree {n} outside page trust window")
        for x in self.complex.d.apply(n, col).values():
            if ring.valuation(x) < r:
                raise ComplexError(
                    f"chain does not survive to page {r}: d(c) ∉ p^{r}·C")

    def class_of_chain(self, r: int, n: int, col: dict) -> dict:
        """F_p coordinates, in the page-r basis at degree n, of a chain;
        column dicts both.  The one reader of page coordinates: the chain
        must survive (`check_survival`); read off P^-1 through the page's
        positions."""
        self.check_survival(r, n, col)
        return self.decomposition.coordinates(
            n, col, self.page(r).positions[n])


def bockstein_pages(C: GradedChainComplex, r_max: int) -> BssResult:
    """Pages E^1..E^{r_max}, reported for degrees ≤ n_max - 1.

    The ends inside the window are listed once, degree by degree in
    new-index order, placed by `Decomposition.exponents` alone: the
    bottoms and then the tops of the pieces p^k with k ≥ 1, then the free
    ends, with exponent 0.  Page r keeps the free ends and the ends with
    k ≥ r, and β^r joins the two ends of each piece with k = r.  An end is
    named [first basis vector of its P column]; on each page the later
    ends of one name, in list order, get ~2, ~3, ..., and each degree
    lists its classes sorted by name, which sets `positions`, where β^r's
    arrows and the page reader look.
    """
    if r_max < 1:
        raise ValueError("r_max must be ≥ 1")
    ring = C.ring
    if ring.is_field:
        raise RingError("Bockstein pages run over Z_(p); reduce afterwards")
    fp = ring.residue_field()
    dec = decompose(C)
    window = C.n_max - 1

    ends = []    # (degree, exponent, new index), in new-index order
    for n in range(window + 1):
        ks = dec.exponents[n + 1] + dec.exponents[n]   # bottoms, then tops
        ends += [(n, k, j) for j, k in enumerate(ks) if k]
        ends += [(n, 0, j) for j in dec.free(n)]
    base = [f"[{C.basis.name(n, min(dec.P[n][j]))}]" for n, _, j in ends]
    # All piece exponents inside the window are known, so stabilization at
    # max_exp + 1 is genuine, not an artifact of truncation.
    max_exp = max((k for _, k, _ in ends), default=0)

    pages = []
    for r in range(1, r_max + 1):
        seen, alive = {}, []     # alive: (degree, name, end) on page r
        for e, (n, k, _) in enumerate(ends):
            if k == 0 or k >= r:
                name = base[e]
                seen[name] = c = seen.get(name, 0) + 1
                alive.append((n, name if c == 1 else f"{name}~{c}", e))
        alive.sort()
        classes = {}
        positions = {n: [None] * C.dim(n) for n in range(window + 1)}
        for n, name, e in alive:
            cls = classes.setdefault(n, [])
            _, k, j = ends[e]
            positions[n][j] = len(cls)
            cls.append(PageClass(n, name, dec.P[n][j], k, j))
        page_basis = GradedBasis({n: [cl.name for cl in cls]
                                  for n, cls in classes.items()},
                                 max(window, 0))
        beta = GradedMap(page_basis, page_basis, -1, fp)
        for n in range(1, window + 1):   # β^r: an arrow per piece p^r
            h, cols = len(dec.exponents[n + 1]), None
            for i, k in enumerate(dec.exponents[n]):
                if k == r:
                    cols = cols or [{} for _ in classes[n]]
                    cols[positions[n][h + i]] = {positions[n - 1][i]: fp.one}
            if cols:
                beta.set_sparse_columns(n, cols)
        pages.append(SpectralPage(r, window, classes, beta, page_basis,
                                  positions))
    return BssResult(C, dec, pages, max_exp + 1, max_exp)


def is_chain_map(f: GradedMap, C: GradedChainComplex, D: GradedChainComplex):
    """None if f commutes with the differentials, else the offending degree."""
    return D.d.compose(f).differs_at(f.compose(C.d))


def bss_of_morphism(f: GradedMap, bss_src: BssResult,
                    bss_tgt: BssResult) -> list:
    """Per-page maps E^r(f), as GradedMaps over F_p between page bases, on
    the pages both results computed.

    f must be a degree-0 chain map over Z_(p); E^r(f) sends a class to the
    class of the image of its representative, which survives automatically.
    """
    bad = is_chain_map(f, bss_src.complex, bss_tgt.complex)
    if bad is not None:
        raise ComplexError(f"not a chain map: fails at degree {bad}")
    fp = bss_src.complex.ring.residue_field()
    out = []
    for r in range(1, min(len(bss_src.pages), len(bss_tgt.pages)) + 1):
        ps, pt = bss_src.page(r), bss_tgt.page(r)
        gm = GradedMap(ps.basis, pt.basis, 0, fp)
        for n in ps.degrees():
            gm.set_sparse_columns(n, [
                bss_tgt.class_of_chain(r, n, f.apply(n, cl.rep))
                for cl in ps.classes[n]])
        out.append(gm)
    return out
