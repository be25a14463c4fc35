"""Cochains (ΛV, d0 + d1) and chains (Γ(sL), ∂0 + ∂1) on a DGL.

V is the dual of sL: one generator v_x of degree |x| + 1 per Lie generator
x.  The linear part d0 is dual to ∂ via ⟨d0 v, sx⟩ = (-1)^{|v|}⟨v, s∂x⟩;
the quadratic part d1 is dual to the bracket via
⟨d1 v, sx·sy⟩ = (-1)^{|sy|}⟨v, s[x,y]⟩.  The Λ/Γ pairing is a signed
identity whose sign on v_x·v_y is gamma.tensor_pairing_sign of the two
letters' degrees, so each length-two coefficient of d1 is that sign times
the bracket term, with γ²(sx) = (sx·sx)/2 halving it.  Both parts go into
one dict of generator images and d is one derivation of ΛV: the cochains
are a `CochainAlgebra`, as the cochain models are: it keeps those images
and builds d on ΛV's window where it is read.  Chains are the blockwise
adjoint (gamma.adjoint) of the cochains: ⟨a, ∂ω⟩ = (-1)^{|a|}⟨d a, ω⟩.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gamma import GammaAlgebra, adjoint, tensor_pairing_sign
from .graded import (ComplexError, FieldHomology, GradedChainComplex,
                     GradedMap, check_square_zero, induced_map)
from .lie import DgLie, LieError, PbwAlgebra, abelian
from .scalars import fp_kernel


class CochainAlgebra:
    """Free commutative ΛW, kept as the generator images of its degree +1
    derivation d.  d² is a derivation, so d∘d = 0 is checked on generators,
    as `check_square_zero` reports it; `d` on ΛW is built on first read."""

    def __init__(self, algebra: PbwAlgebra, images: dict):
        self.algebra, self.images = algebra, images
        name = algebra.monomial_name
        for n, w in sorted((n, w) for w, n in enumerate(algebra.L.degrees)
                           if n + 2 <= algebra.n_max):
            if dd := algebra.derive(images.get(w, {}), 1, images):
                raise ComplexError(f"d∘d ≠ 0 at degree {n}: d(d({name((w,))}))"
                                   f" has coefficient {dd[min(dd)]} on "
                                   f"{name(min(dd))}")

    @cached_property
    def d(self) -> GradedMap:
        return check_square_zero(self.algebra.derivation(1, self.images))


@dataclass
class CceChains:
    L: DgLie
    algebra: GammaAlgebra
    d: GradedMap

    def as_complex(self) -> GradedChainComplex:
        return GradedChainComplex(self.algebra.basis, self.d,
                                  self.algebra.ring)


def free_cochain_algebra(ring, n_max, generators,
                         d_images=None) -> CochainAlgebra:
    """(ΛW, d) from generator degrees and d on generators, a spec of
    `PbwAlgebra.images`."""
    lam = PbwAlgebra(abelian(ring, n_max, generators))
    return CochainAlgebra(lam, lam.images(lam.L, d_images or {}))


def cochains(L: DgLie) -> CochainAlgebra:
    """The Chevalley-Eilenberg cochain algebra (ΛV, d0 + d1) of a DGL.

    d's generator images are read off ∂ and the bracket with closed-form
    signs; they extend to ΛV as one derivation (`free_cochain_algebra`).
    """
    if bad := L.validate():
        raise LieError("invalid DgLie: " + "; ".join(bad))
    ring = L.ring
    sv = [deg + 1 for deg in L.degrees]     # |v_x| = |sx|
    images = {}
    # d0 v_x = (-1)^{|v_x|} Σ_y (∂y)_x v_y
    for y, dy in sorted(L.d_gen.items()):
        for x, c in dy.items():
            images.setdefault(x, {})[(y,)] = ring.neg(c) if sv[x] % 2 else c
    # d1 v_z: v_x·v_y pairs only with sx·sy (γ²(sx) = (sx·sx)/2 when
    # x = y), with sign tensor_pairing_sign([|sx|, |sy|])
    for x, y in sorted({tuple(sorted(q)) for q in L.brackets}):
        if sv[x] + sv[y] > L.n_max:
            continue
        sign = tensor_pairing_sign([sv[x], sv[y]]) * (-1) ** sv[y]
        for z, c in L.bracket_gens(x, y).items():
            c = ring.mul(ring.of(sign), c)
            images.setdefault(z, {})[(x, y)] = (ring.div(c, ring.of(2))
                                                if x == y else c)
    return free_cochain_algebra(
        ring, L.n_max, [(f"v{name}", s) for name, s in zip(L.names, sv)],
        images)


def chains(L: DgLie, co: CochainAlgebra | None = None) -> CceChains:
    """Γ(sL) with the differential adjoint to the cochain differential."""
    if co is None:
        co = cochains(L)
    sgamma = GammaAlgebra(L.ring, L.n_max,
                          [(f"s{name}", deg + 1)
                           for name, deg in zip(L.names, L.degrees)])
    # ⟨a, ∂ω⟩ = (-1)^{|a|} ⟨d a, ω⟩
    pd = adjoint(co.d, sgamma, sgamma)
    GradedChainComplex(sgamma.basis, pd, L.ring)   # validates ∂∂ = 0
    return CceChains(L, sgamma, pd)


def verify_quasi_iso(gen_images: dict, src: CochainAlgebra,
                     tgt: CochainAlgebra, window: int | None = None):
    """Check a generator assignment extends to a cochain quasi-isomorphism.

    Works over a field.  Returns (True, report) or (False, reason);
    homology is compared in degrees ≤ window (default n_max - 1, the top
    degree being distorted by truncation).  The rank of H^n(m) is the
    source dim less the dim of its kernel over F_p, on the columns
    `induced_map` builds.
    """
    if not src.algebra.ring.is_field:
        raise ComplexError("quasi-isomorphism check runs over a field")
    if window is None:
        window = src.algebra.n_max - 1
    m = src.algebra.algebra_map(tgt.algebra,
                                tgt.algebra.images(src.algebra.L, gen_images))
    bad = tgt.d.compose(m).differs_at(m.compose(src.d))
    if bad is not None and bad <= window:
        return False, f"not a cochain map at degree {bad}"
    H_src = FieldHomology(src.algebra.basis, src.d)
    H_tgt = FieldHomology(tgt.algebra.basis, tgt.d)
    ind = induced_map(m, H_src, H_tgt, window)
    p, dims = src.algebra.ring.p, {}
    for n in range(window + 1):
        a, b = H_src.dim(n), H_tgt.dim(n)
        rank = a - len(fp_kernel(p, ind[n]))
        if a != b or rank != a:
            return False, (f"H^{n}(m) is not an isomorphism: "
                           f"dims {a} -> {b}, rank {rank}")
        dims[n] = a
    return True, {"window": window, "dims": dims}
