"""Free divided-powers algebras Γ(V): divided powers on the even generators
tensored with an exterior algebra on the odd ones.

The basis consists of words γ^{k_1}(v_1)···γ^{k_s}(v_s) with v_i in
generator order and k_i ≤ 1 for odd v_i — mirroring PBW monomials of an
enveloping algebra on the dual generators, so the Λ/Γ pairing is a signed
identity and dualizing a map is a signed blockwise transpose
(`pairing_signs`, `adjoint`).

Products and divided powers are closed forms on words (`word_product`,
`divided_power`), and so is the pairing (`pairing_matrix`).  Γ(V) also
sits in the tensor coalgebra T_C(V) as the symmetric words under the
shuffle product; the test oracles expand words there, with a shuffle of
their own, to check the closed forms.

The basis is a `GradedBasis` keyed by the words, so elements and
coordinates convert in `graded`; the detectors read each word's image
under a map from its stored block column.

The detectors (`is_gamma_morphism`, `is_gamma_derivation`) decide on
generators, in time linear in dim Γ: over Z_(p) or F_p, Γ(V) is generated
as an algebra by the odd letters and the γ^{p^j} of the even letters
(Lucas' theorem), and an algebra map of divided-power algebras that
commutes with γ^k on the letters commutes with it everywhere (H. Cartan,
"Puissances divisées", 1954-55); so does the derivation rule.  Every pair
of words is scanned only to name the first witness (`_first_failure`).
"""

from __future__ import annotations

from functools import partial
from math import comb, factorial

from .graded import GradedBasis, GradedMap, dualize
from .lie import ordered_monomials, run_length
from .scalars import Matrix, accumulate


class GammaError(ValueError):
    pass


def word_name(names: list, gword) -> str:
    """a*g2(b) for the word ((0, 1), (1, 2)) on generators named a, b."""
    if not gword:
        return "1"
    return "*".join(names[i] if k == 1 else f"g{k}({names[i]})"
                    for i, k in gword)


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
        self._product_cache = {}
        self.basis = GradedBasis(
            {n: [run_length(m) for m in monos]
             for n, monos in ordered_monomials(self.degrees, n_max).items()},
            n_max, partial(word_name, self.names))

    def words(self, n: int) -> list:
        return self.basis.keys(n)

    def dim(self, n: int) -> int:
        return self.basis.dim(n)

    def word_degree(self, gword) -> int:
        return sum(k * self.degrees[i] for i, k in gword)

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
            out, degrees = {}, self.degrees
            exps, coeff, deg, odd_a = dict(wa), 1, 0, []
            for i, a in wa:
                deg += a * degrees[i]
                if degrees[i] % 2:
                    odd_a.append(i)
            for j, b in wb:
                a = exps.get(j, 0)
                deg += b * degrees[j]
                if degrees[j] % 2:
                    coeff *= 0 if a else (-1) ** sum(i > j for i in odd_a)
                else:
                    coeff *= comb(a + b, a)
                exps[j] = a + b
            coeff = self.ring.of(coeff)
            if deg <= self.n_max and not self.ring.is_zero(coeff):
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
        if len(elem) == 1:
            (w, c), = elem.items()
            return self._word_divided_power(w, k, c)
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

def _word_map(f: GradedMap):
    """(images, fmap): each basis word's image under f, read once from the
    stored block columns, and f as a function on elements of its source."""
    images = {w: f.target.from_column(n + f.degree, col)
              for n in f.source.degrees()
              for w, col in zip(f.source.keys(n), f.sparse_columns(n))}

    def fmap(elem: dict) -> dict:
        out = {}
        for w, c in elem.items():
            accumulate(f.ring, out, images[w], c)
        return out

    return images, fmap


def _algebra_generators(A: GammaAlgebra) -> list:
    """The words that generate Γ(V) as an algebra over Z_(p) or F_p, within
    the window: each odd letter, and γ^{p^j}(x) for each even letter x.

    A word with an odd letter v is ±v times the word without it.  A word
    whose even letter x has exponent k, with lowest nonzero base-p digit
    k_j, is γ^{p^j}(x) times the word with exponent k - p^j, up to the
    factor C(k, p^j) ≡ k_j mod p (Lucas), a unit.
    """
    gens = []
    for i, d in enumerate(A.degrees):
        q = 1
        while q * d <= A.n_max:
            gens.append(((i, q),))
            if d % 2:
                break
            q *= A.ring.p
    return gens


def _first_failure(A: GammaAlgebra, product_ok, gamma_ok):
    """The first basis-word witness, or None: ("product", w1, w2) where
    product_ok(|w1|, w1, w2) fails, over |w1| ≤ |w2| within the window, then
    ("gamma", w, k) where gamma_ok(w, k) fails, over even w and k ≥ 2.

    The verdict is decided on generators, in time linear in dim Γ:
    - products: g·w for each algebra generator g (`_algebra_generators`)
      and each word w.  Every word is a unit times g times a shorter word,
      so by induction on the first factor, associativity and graded
      commutativity, the check then holds on every pair;
    - divided powers, once products hold: γ^k on the even letters only.
      γ^k(γ^m x) = c·γ^{km}(x), γ^k(u·v) = u^k·γ^k(v) for even u, and γ^k
      of a product of two odd letters is 0 (k ≥ 2), in source and target
      alike (H. Cartan, "Puissances divisées", 1954-55), so the check on
      the letters gives it on every even word.  The derivation rule
      θ(γ^k a) = θ(a)·γ^{k-1}(a) follows from its letters in the same way.
    Only when a generator check fails are all the pairs, or all the even
    words, scanned in order, to name the first witness.
    """
    N = A.n_max
    pairs = (("product", w1, w2) for n1 in range(1, N + 1)
             for w1 in A.words(n1) for n2 in range(n1, N + 1 - n1)
             for w2 in A.words(n2) if not product_ok(n1, w1, w2))
    powers = (("gamma", w, k) for n in range(2, N + 1, 2) for w in A.words(n)
              for k in range(2, N // n + 1) if not gamma_ok(w, k))
    if all(product_ok(A.word_degree(g), g, w) for g in _algebra_generators(A)
           for n in range(1, N + 1 - A.word_degree(g)) for w in A.words(n)):
        if all(gamma_ok(((i, 1),), k)
               for i, d in enumerate(A.degrees) if d % 2 == 0
               for k in range(2, N // d + 1)):
            return None
        witness = next(powers, None)
    else:
        witness = next(pairs, None) or next(powers, None)
    if witness is None:
        raise GammaError("internal error: a generator check failed but no "
                         "pair of basis words or divided power does")
    return witness


def is_gamma_morphism(f: GradedMap, src: GammaAlgebra, tgt: GammaAlgebra):
    """(True, None) if f is an algebra map respecting all γ^k, else a witness.

    Multiplicativity on pairs of basis words and f(γ^k(w)) = γ^k(f(w)) for
    even-degree words w, k ≥ 2, within the window, decided on generators
    (`_first_failure`).  Witness is ("product", w1, w2) or ("gamma", w, k).
    """
    ring = f.ring
    if f.degree != 0:
        raise GammaError("Γ-morphism must have degree 0")
    images, fm = _word_map(f)
    if fm({(): ring.one}) != {(): ring.one}:
        return False, ("unit", (), 0)

    def product_ok(n1, w1, w2):
        return (fm(src.word_product(w1, w2))
                == tgt.mul(images[w1], images[w2]))

    def gamma_ok(w, k):
        return (fm(src.divided_power({w: ring.one}, k))
                == tgt.divided_power(images[w], k))

    witness = _first_failure(src, product_ok, gamma_ok)
    return witness is None, witness


def is_gamma_derivation(theta: GradedMap, A: GammaAlgebra):
    """(True, None) if theta satisfies Leibniz and the divided-power rule
    θ(γ^k(a)) = θ(a)·γ^{k-1}(a) on basis words; else (False, witness)."""
    ring = theta.ring
    deg = theta.degree
    images, th = _word_map(theta)

    def product_ok(n1, w1, w2):
        sign = ring.of(-1 if (deg * n1) % 2 else 1)
        return th(A.word_product(w1, w2)) == accumulate(
            ring, A.mul(images[w1], {w2: ring.one}),
            A.mul({w1: ring.one}, images[w2]), sign)

    def gamma_ok(w, k):
        a = {w: ring.one}
        return th(A.divided_power(a, k)) == A.mul(images[w],
                                                  A.divided_power(a, k - 1))

    witness = _first_failure(A, product_ok, gamma_ok)
    return witness is None, witness


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


def pairing_matrix(ring, lam, G: GammaAlgebra, n: int) -> Matrix:
    """⟨ , ⟩ between ΛV_n (PBW basis of `lam`) and Γ(W)_n; rows = Λ basis.

    `lam` is a PbwAlgebra on an abelian Lie algebra with the same ordered
    generator degrees as G, so both bases list the same letters in the same
    order and the pairing is the signed identity of `pairing_signs`.
    """
    if [run_length(m) for m in lam.monomials(n)] != G.words(n):
        raise GammaError(f"Λ and Γ bases differ in degree {n}")
    return Matrix.from_sparse_columns(
        ring, G.dim(n),
        [{i: ring.of(s)} for i, s in enumerate(pairing_signs(G, n))])


def pairing_signs(G: GammaAlgebra, n: int) -> list:
    """Diagonal of the Λ/Γ pairing in degree n, which is a signed identity.

    The Λ-monomial at position i has the same letters as G.words(n)[i] and
    pairs only with it, through the sorted tensor word that the gamma word
    hits with coefficient 1 in T_C(V); the entry is the tensor_pairing_sign
    of its letter degrees.
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
    for m in out.degrees():
        rows = pairing_signs(G_src, m + out.degree)
        cols = pairing_signs(G_tgt, m)
        out.set_sparse_columns(m, [
            {i: x if rows[i] * c > 0 else ring.neg(x) for i, x in col.items()}
            for col, c in zip(out.sparse_columns(m), cols)])
    return out
