"""Cochains (ΛV, d0 + d1) and chains (Γ(sL), ∂0 + ∂1) on a DGL.

V is the dual of sL: one generator v_x of degree |x| + 1 per Lie generator
x.  The linear part d0 is dual to ∂ via ⟨d0 v, sx⟩ = (-1)^{|v|}⟨v, s∂x⟩;
the quadratic part d1 is dual to the bracket via
⟨d1 v, sx·sy⟩ = (-1)^{|sy|}⟨v, s[x,y]⟩.  The Λ/Γ pairing is a signed
identity (gamma.pairing_signs), so each length-two coefficient of d1 is
that sign times the bracket term, with γ²(sx) = (sx·sx)/2 halving it.
Chains are the blockwise adjoint (gamma.adjoint) of the cochains, which
keeps the two complexes strictly adjoint: ⟨a, ∂ω⟩ = (-1)^{|a|}⟨d a, ω⟩.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gamma import GammaAlgebra, adjoint, pairing_signs
from .graded import (ComplexError, FieldHomology, GradedChainComplex,
                     GradedMap, check_square_zero, induced_map)
from .lie import DgLie, LieError, PbwAlgebra, abelian


@dataclass
class CochainAlgebra:
    """Free commutative cochain algebra: ΛW with a degree +1 derivation."""

    algebra: PbwAlgebra
    d: GradedMap


@dataclass
class CceCochains:
    L: DgLie
    algebra: PbwAlgebra
    d: GradedMap
    d0: GradedMap
    d1: GradedMap


@dataclass
class CceChains:
    L: DgLie
    algebra: GammaAlgebra
    d: GradedMap
    d0: GradedMap
    d1: GradedMap

    def as_complex(self) -> GradedChainComplex:
        return GradedChainComplex(self.algebra.basis, self.d,
                                  self.algebra.ring)


def free_cochain_algebra(ring, n_max, generators,
                         d_images=None) -> CochainAlgebra:
    """(ΛW, d) from generator degrees and d on generators (element dicts,
    keyed like PbwAlgebra.element specs)."""
    lam = PbwAlgebra(abelian(ring, n_max, generators))
    images = {}
    for key, elem in (d_images or {}).items():
        i = lam.L.index[key] if isinstance(key, str) else key
        images[i] = lam.element(elem) if not _is_elem(elem) else elem
    d = lam.derivation(1, images)
    check_square_zero(d)
    return CochainAlgebra(lam, d)


def _is_elem(x) -> bool:
    return isinstance(x, dict) and all(isinstance(k, tuple) for k in x)


def cochains(L: DgLie) -> CceCochains:
    """The Cartan-Chevalley-Eilenberg-Cartan cochain algebra of a DGL."""
    bad = L.validate()
    if bad:
        raise LieError("invalid DgLie: " + "; ".join(bad))
    ring = L.ring
    n_max = L.n_max
    vgens = [(f"v{name}", deg + 1) for name, deg in zip(L.names, L.degrees)]
    lam = PbwAlgebra(abelian(ring, n_max, vgens))
    sgamma = GammaAlgebra(ring, n_max,
                          [(f"s{name}", deg + 1)
                           for name, deg in zip(L.names, L.degrees)])

    # d0 v_x = (-1)^{|v_x|} Σ_y (∂y)_x v_y
    d0_images = {}
    for x in range(L.n_gens()):
        vdeg = L.degrees[x] + 1
        img = {}
        for y in range(L.n_gens()):
            c = L.d_gen.get(y, {}).get(x)
            if c is not None:
                s = ring.of(-1 if vdeg % 2 else 1)
                img[(y,)] = ring.mul(s, c)
        if img:
            d0_images[x] = img

    # d1 v_z: the Λ-monomial v_x·v_y pairs only with the gamma word sx·sy
    # (or γ²(sx) = (sx·sx)/2 when x = y), with sign pairing_signs
    d1_images = {}
    for z in range(L.n_gens()):
        n = L.degrees[z] + 2       # degree of d1 v_z = |v_z| + 1
        if n > n_max:
            continue
        img = {}
        for mono, sign in zip(lam.monomials(n), pairing_signs(sgamma, n)):
            if len(mono) != 2:
                continue
            x, y = mono
            val = L.bracket_gens(x, y).get(z)
            if val is None:
                continue
            sy = L.degrees[y] + 1
            val = ring.mul(ring.of(-sign if sy % 2 else sign), val)
            if x == y:
                val = ring.div(val, ring.of(2))
            img[mono] = val
        if img:
            d1_images[z] = img

    d0 = lam.derivation(1, d0_images)
    d1 = lam.derivation(1, d1_images)
    # d0 images are linear and d1 images quadratic: their keys never meet
    d = lam.derivation(1, {x: {**d0_images.get(x, {}), **d1_images.get(x, {})}
                           for x in set(d0_images) | set(d1_images)})
    check_square_zero(d)
    return CceCochains(L, lam, d, d0, d1)


def chains(L: DgLie, co: CceCochains | None = None) -> CceChains:
    """Γ(sL) with the differential adjoint to the cochain differential."""
    if co is None:
        co = cochains(L)
    sgamma = GammaAlgebra(L.ring, L.n_max,
                          [(f"s{name}", deg + 1)
                           for name, deg in zip(L.names, L.degrees)])
    # ⟨a, ∂ω⟩ = (-1)^{|a|} ⟨d a, ω⟩
    p0, p1, pd = (adjoint(dmap, sgamma, sgamma)
                  for dmap in (co.d0, co.d1, co.d))
    GradedChainComplex(sgamma.basis, pd, L.ring)   # validates ∂∂ = 0
    return CceChains(L, sgamma, pd, p0, p1)


def verify_quasi_iso(gen_images: dict, src: CochainAlgebra,
                     tgt: CochainAlgebra, window: int | None = None):
    """Check a generator assignment extends to a cochain quasi-isomorphism.

    Works over a field.  Returns (True, report) or (False, reason);
    homology is compared in degrees ≤ window (default n_max - 1, the top
    degree being distorted by truncation).
    """
    if not src.algebra.ring.is_field:
        raise ComplexError("quasi-isomorphism check runs over a field")
    if window is None:
        window = src.algebra.n_max - 1
    images = {}
    for key, elem in gen_images.items():
        i = src.algebra.L.index[key] if isinstance(key, str) else key
        images[i] = (tgt.algebra.element(elem) if not _is_elem(elem)
                     else elem)
    m = src.algebra.algebra_map(tgt.algebra, images)
    lhs = tgt.d.compose(m)
    rhs = m.compose(src.d)
    for n in range(window + 1):
        if lhs.block(n).a != rhs.block(n).a:
            return False, f"not a cochain map at degree {n}"
    H_src = FieldHomology(src.algebra.basis, src.d)
    H_tgt = FieldHomology(tgt.algebra.basis, tgt.d)
    ind = induced_map(m, H_src, H_tgt, window)
    dims = {}
    for n in range(window + 1):
        a, b = H_src.dim(n), H_tgt.dim(n)
        if a != b or ind[n].rank() != a:
            return False, (f"H^{n}(m) is not an isomorphism: "
                           f"dims {a} -> {b}, rank {ind[n].rank()}")
        dims[n] = a
    return True, {"window": window, "dims": dims}
