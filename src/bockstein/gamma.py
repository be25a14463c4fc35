"""Free divided-powers algebras Γ(V): divided powers on the even generators
tensored with an exterior algebra on the odd ones.

The basis consists of words γ^{k_1}(v_1)···γ^{k_s}(v_s) with v_i in
generator order and k_i ≤ 1 for odd v_i — mirroring PBW monomials of an
enveloping algebra on the dual generators, so the Λ/Γ pairing is a signed
identity and dualizing a map is a signed blockwise transpose
(`pairing_signs`, `adjoint`).

Products and divided powers are closed forms on words (`word_product`,
`divided_power`).  Γ(V) also sits in the tensor coalgebra T_C(V) as the
symmetric words under the shuffle product (`shuffle`, `expand`);
`pairing_matrix` builds the pairing through that embedding.
"""

from __future__ import annotations

from math import comb, factorial

from .graded import GradedBasis, GradedMap, dualize
from .lie import ordered_monomials, run_length
from .scalars import Matrix, accumulate


class GammaError(ValueError):
    pass


class GammaAlgebra:
    """Γ(V) on ordered generators [(name, degree)] up to total degree n_max.

    Elements are dicts mapping gamma words to scalars.  A gamma word is a
    tuple of (generator index, exponent) pairs with strictly increasing
    indices; exponent 1 on odd generators.
    """

    def __init__(self, ring, n_max, generators):
        self.ring = ring
        self.n_max = n_max
        self.names = [g[0] for g in generators]
        self.degrees = [g[1] for g in generators]
        if any(d < 1 for d in self.degrees):
            raise GammaError("generator degrees must be >= 1")
        self._shuffle_cache = {}
        self._expand_cache = {(): {(): 1}}
        self._product_cache = {}
        self._words = {n: [run_length(m) for m in monos]   # degree -> words
                       for n, monos in ordered_monomials(self.degrees,
                                                         n_max).items()}
        names = {n: [self.word_name(w) for w in ws]
                 for n, ws in self._words.items()}
        self.basis = GradedBasis(names, n_max)

    def words(self, n: int) -> list:
        return self._words.get(n, [])

    def dim(self, n: int) -> int:
        return len(self._words.get(n, []))

    def word_degree(self, gword) -> int:
        return sum(k * self.degrees[i] for i, k in gword)

    def word_name(self, gword) -> str:
        if not gword:
            return "1"
        return "*".join(self.names[i] if k == 1 else f"g{k}({self.names[i]})"
                        for i, k in gword)

    def to_vector(self, elem: dict, n: int):
        ring = self.ring
        vec = [ring.zero] * self.dim(n)
        idx = {w: j for j, w in enumerate(self._words.get(n, []))}
        for w, c in elem.items():
            if ring.is_zero(c):
                continue
            if self.word_degree(w) != n:
                raise GammaError("element not homogeneous of stated degree")
            vec[idx[w]] = c
        return vec

    def from_vector(self, n: int, vec) -> dict:
        ring = self.ring
        return {w: c for w, c in zip(self._words.get(n, []), vec)
                if not ring.is_zero(c)}

    # -- shuffle product in T_C(V), integer coefficients ----------------------

    def shuffle(self, a, b) -> dict:
        """Shuffle product of two tensor words (tuples of gen indices)."""
        key = (a, b)
        cached = self._shuffle_cache.get(key)
        if cached is not None:
            return cached
        if not a:
            out = {b: 1}
        elif not b:
            out = {a: 1}
        else:
            out = {}
            for w, c in self.shuffle(a[1:], b).items():
                k = (a[0],) + w
                out[k] = out.get(k, 0) + c
            # bringing b[0] to the front moves it past all of a
            sign = -1 if (self.degrees[b[0]]
                          * sum(self.degrees[i] for i in a)) % 2 else 1
            for w, c in self.shuffle(a, b[1:]).items():
                k = (b[0],) + w
                out[k] = out.get(k, 0) + sign * c
            out = {w: c for w, c in out.items() if c}
        self._shuffle_cache[key] = out
        return out

    def expand(self, gword) -> dict:
        """Tensor-word expansion (integer coefficients) of a gamma word."""
        cached = self._expand_cache.get(gword)
        if cached is not None:
            return cached
        head = self.expand(gword[:-1])
        i, k = gword[-1]
        block = (i,) * k
        out = {}
        for w, c in head.items():
            for w2, c2 in self.shuffle(w, block).items():
                out[w2] = out.get(w2, 0) + c * c2
        out = {w: c for w, c in out.items() if c}
        self._expand_cache[gword] = out
        return out

    # -- algebra structure -----------------------------------------------------

    def word_product(self, wa, wb) -> dict:
        """Product of two gamma words as a cached element (do not mutate);
        {} beyond the window.

        Per generator the exponents add, a shared even letter giving the
        factor C(a+b, a) and a shared odd letter 0.  The sign is that of the
        odd letters of wb passing the higher-indexed odd letters of wa.
        """
        out = self._product_cache.get((wa, wb))
        if out is None:
            out = {}
            exps, coeff = dict(wa), 1
            odd_a = [i for i, _ in wa if self.degrees[i] % 2]
            for j, b in wb:
                a = exps.get(j, 0)
                if self.degrees[j] % 2:
                    coeff *= 0 if a else (-1) ** sum(i > j for i in odd_a)
                else:
                    coeff *= comb(a + b, a)
                exps[j] = a + b
            coeff = self.ring.of(coeff)
            if (self.word_degree(wa) + self.word_degree(wb) <= self.n_max
                    and not self.ring.is_zero(coeff)):
                out = {tuple(sorted(exps.items())): coeff}
            self._product_cache[(wa, wb)] = out
        return out

    def mul(self, a: dict, b: dict) -> dict:
        ring = self.ring
        out = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                accumulate(ring, out, self.word_product(wa, wb),
                           ring.mul(ca, cb))
        return out

    def gen(self, i: int) -> dict:
        return {((i, 1),): self.ring.one}

    def element_degree(self, elem: dict) -> int | None:
        degs = {self.word_degree(w) for w, c in elem.items()
                if not self.ring.is_zero(c)}
        if not degs:
            return None
        if len(degs) > 1:
            raise GammaError("element not homogeneous")
        return degs.pop()

    def divided_power(self, elem: dict, k: int) -> dict:
        """γ^k of a homogeneous even-degree element.

        γ^k(x + y) = Σ_i γ^i(x)·γ^{k-i}(y) and γ^k(c·w) = c^k·γ^k(w) reduce
        it to basis words w, where for k ≥ 2 γ^k(w) is zero if w has an odd
        letter and otherwise (1/k!)·∏_j (k·a_j)!/(a_j!)^k times the word
        with exponents k·a_j.  That coefficient is an integer, so the result
        is exact over F_p as well.
        """
        ring = self.ring
        if k < 0:
            raise GammaError("negative divided power")
        if k == 0:
            return {(): ring.one}
        if k == 1:
            return dict(elem)
        n = self.element_degree(elem)
        if n is None:
            return {}
        if n % 2 or n == 0:
            raise GammaError("divided powers only on nonzero even degrees")
        if n * k > self.n_max:
            raise GammaError(f"γ^{k} lands in degree {n * k} > window")
        powers = [{(): ring.one}] + [{}] * k    # γ^j of the terms so far
        for w, c in elem.items():
            own = [{(): ring.one}] + [self._word_divided_power(w, i, c)
                                      for i in range(1, k + 1)]
            nxt = []
            for j in range(k + 1):
                nxt.append({})
                for i in range(j + 1):
                    accumulate(ring, nxt[j], self.mul(powers[j - i], own[i]),
                               ring.one)
            powers = nxt
        return powers[k]

    def _word_divided_power(self, w, k: int, c) -> dict:
        """γ^k(c·w) = c^k·γ^k(w) for a basis word w and k ≥ 1."""
        if k > 1 and any(self.degrees[i] % 2 for i, _ in w):
            return {}
        num = 1
        for _, a in w:
            num *= factorial(k * a) // factorial(a) ** k
        num, rest = divmod(num, factorial(k))
        if rest:
            raise GammaError("divided power not integral (internal)")
        return accumulate(self.ring, {}, {tuple((i, k * a) for i, a in w): num},
                          self.ring.of(c ** k))


# ---------------------------------------------------------------------------
# Γ-morphism / Γ-derivation detectors
# ---------------------------------------------------------------------------

def apply_map(f: GradedMap, src: GammaAlgebra, tgt: GammaAlgebra,
              elem: dict) -> dict:
    """Apply a per-degree matrix map to a homogeneous element."""
    n = src.element_degree(elem)
    if n is None:
        return {}
    if not (0 <= n + f.degree <= tgt.n_max):
        return {}
    return tgt.from_vector(n + f.degree, f.apply(n, src.to_vector(elem, n)))


def _word_map(f: GradedMap, src: GammaAlgebra, tgt: GammaAlgebra):
    """f as a function on elements of src, each basis word mapped once."""
    images = {w: apply_map(f, src, tgt, {w: f.ring.one})
              for n in range(src.n_max + 1) for w in src.words(n)}

    def fmap(elem: dict) -> dict:
        out = {}
        for w, c in elem.items():
            accumulate(f.ring, out, images[w], c)
        return out

    return fmap


def is_gamma_morphism(f: GradedMap, src: GammaAlgebra, tgt: GammaAlgebra):
    """(True, None) if f is an algebra map respecting all γ^k, else a witness.

    Checked on basis words within the window: multiplicativity on pairs and
    f(γ^k(w)) = γ^k(f(w)) for even-degree words w, k ≥ 2.  Witness is
    ("product", w1, w2) or ("gamma", w, k).
    """
    ring = f.ring
    if f.degree != 0:
        raise GammaError("Γ-morphism must have degree 0")
    fm = _word_map(f, src, tgt)
    if fm({(): ring.one}) != {(): ring.one}:
        return False, ("unit", (), 0)
    for n1 in range(1, src.n_max + 1):
        for w1 in src.words(n1):
            for n2 in range(n1, src.n_max + 1 - n1):
                for w2 in src.words(n2):
                    lhs = fm(src.word_product(w1, w2))
                    rhs = tgt.mul(fm({w1: ring.one}), fm({w2: ring.one}))
                    if lhs != rhs:
                        return False, ("product", w1, w2)
    for n in range(2, src.n_max + 1, 2):
        for w in src.words(n):
            for k in range(2, src.n_max // n + 1):
                lhs = fm(src.divided_power({w: ring.one}, k))
                rhs = tgt.divided_power(fm({w: ring.one}), k)
                if lhs != rhs:
                    return False, ("gamma", w, k)
    return True, None


def is_gamma_derivation(theta: GradedMap, A: GammaAlgebra):
    """(True, None) if theta satisfies Leibniz and the divided-power rule
    θ(γ^k(a)) = θ(a)·γ^{k-1}(a) on basis words; else (False, witness)."""
    ring = theta.ring
    deg = theta.degree
    th = _word_map(theta, A, A)
    for n1 in range(1, A.n_max + 1):
        for w1 in A.words(n1):
            for n2 in range(n1, A.n_max + 1 - n1):
                for w2 in A.words(n2):
                    a, b = {w1: ring.one}, {w2: ring.one}
                    lhs = th(A.word_product(w1, w2))
                    sign = ring.of(-1 if (deg * n1) % 2 else 1)
                    rhs = accumulate(ring, A.mul(th(a), b),
                                     A.mul(a, th(b)), sign)
                    if lhs != rhs:
                        return False, ("product", w1, w2)
    for n in range(2, A.n_max + 1, 2):
        for w in A.words(n):
            a = {w: ring.one}
            for k in range(2, A.n_max // n + 1):
                lhs = th(A.divided_power(a, k))
                rhs = A.mul(th(a), A.divided_power(a, k - 1))
                if lhs != rhs:
                    return False, ("gamma", w, k)
    return True, None


# ---------------------------------------------------------------------------
# The ΛV ⊗ ΓW pairing
# ---------------------------------------------------------------------------

def tensor_pairing_sign(degrees: list) -> int:
    """Sign of v_1..v_k w_1..w_k -> v_1 w_1 .. v_k w_k when |w_i| = |v_i|.

    w_i moves past v_{i+1}, ..., v_k.
    """
    sign = 1
    for i in range(len(degrees)):
        moved = sum(degrees[i + 1:])
        if (degrees[i] * moved) % 2:
            sign = -sign
    return sign


def lambda_gamma_pairing(ring, degrees, lam_word, gamma_expansion: dict):
    """⟨v_1···v_k, ω⟩ for a Λ-monomial (tuple of generator indices, the
    PBW order) against a tensor expansion of ω ∈ Γ(W), dual generators
    matched index to index."""
    coeff = gamma_expansion.get(lam_word)
    if coeff is None:
        return ring.zero
    sign = tensor_pairing_sign([degrees[i] for i in lam_word])
    return ring.mul(ring.of(sign), ring.of(coeff) if isinstance(coeff, int)
                    else coeff)


def pairing_matrix(ring, lam, G: GammaAlgebra, n: int) -> Matrix:
    """⟨ , ⟩ between ΛV_n (PBW basis of `lam`) and Γ(W)_n; rows = Λ basis.

    `lam` is a PbwAlgebra on an abelian Lie algebra with the same ordered
    generator degrees as G.
    """
    rows = lam.monomials(n)
    cols = G.words(n)
    m = Matrix.zeros(ring, len(rows), len(cols))
    for j, gw in enumerate(cols):
        exp = G.expand(gw)
        exp_ring = {w: ring.of(c) for w, c in exp.items()}
        for i, mono in enumerate(rows):
            m.a[i][j] = lambda_gamma_pairing(ring, G.degrees, mono, exp_ring)
    return m


def pairing_signs(G: GammaAlgebra, n: int) -> list:
    """Diagonal of the Λ/Γ pairing in degree n, which is a signed identity.

    The Λ-monomial at position i has the same letters as G.words(n)[i] and
    pairs only with it, through the sorted tensor word that the gamma word
    hits with coefficient 1; the entry is the tensor_pairing_sign of its
    letter degrees.  pairing_matrix builds the same matrix by expansion.
    """
    return [tensor_pairing_sign([G.degrees[i] for i, k in gw
                                 for _ in range(k)])
            for gw in G.words(n)]


def adjoint(f: GradedMap, G_src: GammaAlgebra,
            G_tgt: GammaAlgebra) -> GradedMap:
    """Adjoint of f: A_src -> A_tgt under the Λ/Γ pairing, as a map
    Γ_tgt -> Γ_src of degree -deg f.

    A_src and A_tgt are PBW-basis algebras (ΛV or UL) on the generator
    degrees of G_src and G_tgt.  The adjoint satisfies
    ⟨a, f^♯ω⟩ = (-1)^{|f||a|}⟨f a, ω⟩, the sign of graded.dualize; as each
    pairing matrix is a diagonal of signs, hence its own inverse, f^♯ is
    the dualized block with rows and columns multiplied by pairing_signs.
    """
    ring = f.ring
    out = dualize(f, G_src.basis, G_tgt.basis)
    for m, blk in out.blocks.items():
        rows = pairing_signs(G_src, m + out.degree)
        cols = pairing_signs(G_tgt, m)
        blk.a = [[x if r * c > 0 else ring.neg(x) for x, c in zip(row, cols)]
                 for row, r in zip(blk.a, rows)]
    return out
