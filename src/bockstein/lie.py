"""Graded Lie algebras, DGLs, and enveloping algebras with PBW bases.

Elements of a Lie algebra are coefficient dicts over generator indices.
Elements of the enveloping algebra are dicts mapping PBW monomials (tuples
of generator indices, nondecreasing, odd generators at most once) to
scalars.  Products straighten by the commutator rule
    x_j x_i = (-1)^{|x_i||x_j|} x_i x_j + [x_j, x_i]   (j > i),
with odd squares resolved as x^2 = (1/2)[x,x].
"""

from __future__ import annotations

from .graded import (ComplexError, GradedBasis, GradedChainComplex, GradedMap,
                     WindowError)
from .scalars import Matrix, accumulate


class LieError(ValueError):
    pass


class DgLie:
    """Finite presentation: generators with degrees, bracket and boundary
    structure constants.  Degrees must be >= 1 (connected)."""

    def __init__(self, ring, n_max, generators, brackets=None,
                 differential=None):
        self.ring = ring
        self.p = ring.p
        self.n_max = n_max
        self.names = [g[0] for g in generators]
        self.degrees = [g[1] for g in generators]
        if len(set(self.names)) != len(self.names):
            raise LieError("duplicate generator names")
        self.index = {name: i for i, name in enumerate(self.names)}
        # brackets: {(i, j): {k: coeff}}, any order of (i, j) accepted
        self._brackets = {}
        for (i, j), targets in (brackets or {}).items():
            self._brackets[(i, j)] = {k: ring.of(c) for k, c in targets.items()
                                      if not ring.is_zero(ring.of(c))}
        # differential: {i: {k: coeff}}
        self.d_gen = {}
        for i, targets in (differential or {}).items():
            tgt = {k: ring.of(c) for k, c in targets.items()
                   if not ring.is_zero(ring.of(c))}
            if tgt:
                self.d_gen[i] = tgt

    @property
    def brackets(self) -> dict:
        """Bracket structure constants {(i, j): {k: coeff}}, as a copy."""
        return {k: dict(v) for k, v in self._brackets.items()}

    def replace(self, ring=None, n_max=None) -> "DgLie":
        """The same presentation over another ring and/or degree window."""
        return DgLie(self.ring if ring is None else ring,
                     self.n_max if n_max is None else n_max,
                     list(zip(self.names, self.degrees)), self.brackets,
                     {k: dict(v) for k, v in self.d_gen.items()})

    def n_gens(self) -> int:
        return len(self.names)

    def _sign(self, i, j):
        return self.ring.of(-1 if (self.degrees[i] * self.degrees[j]) % 2
                            else 1)

    def bracket_gens(self, i, j) -> dict:
        """[x_i, x_j] as an element dict, via antisymmetry when needed."""
        ring = self.ring
        if (i, j) in self._brackets:
            return dict(self._brackets[(i, j)])
        if (j, i) in self._brackets:
            s = ring.neg(self._sign(i, j))
            return {k: ring.mul(s, c) for k, c in self._brackets[(j, i)].items()}
        return {}

    def bracket(self, a: dict, b: dict) -> dict:
        ring = self.ring
        out = {}
        for i, ca in a.items():
            for j, cb in b.items():
                terms = self.bracket_gens(i, j)
                if terms:       # most pairs commute: skip the product
                    accumulate(ring, out, terms, ring.mul(ca, cb))
        return out

    def d(self, a: dict) -> dict:
        ring = self.ring
        out = {}
        for i, ca in a.items():
            accumulate(ring, out, self.d_gen.get(i, {}), ca)
        return out

    # -- validation -------------------------------------------------------

    def validate(self) -> list:
        """All axiom checks on all generator tuples; list of violations."""
        ring = self.ring
        out = []
        for i, n in enumerate(self.degrees):
            if n < 1:
                out.append(f"generator {self.names[i]} has degree {n} < 1")
        gens = range(self.n_gens())

        def show(elem):
            return " + ".join(f"{c}·{self.names[k]}"
                              for k, c in sorted(elem.items())) or "0"

        for i in gens:
            for j in gens:
                br = self.bracket_gens(i, j)
                want_deg = self.degrees[i] + self.degrees[j]
                for k, c in br.items():
                    if self.degrees[k] != want_deg:
                        out.append(
                            f"bracket degree mismatch: [{self.names[i]},"
                            f"{self.names[j]}] hits {self.names[k]} of degree "
                            f"{self.degrees[k]}, expected {want_deg}")
                # anti-commutativity
                rev = self.bracket_gens(j, i)
                s = self._sign(i, j)
                bad = {}
                for k in set(br) | set(rev):
                    v = ring.add(rev.get(k, ring.zero),
                                 ring.mul(s, br.get(k, ring.zero)))
                    if not ring.is_zero(v):
                        bad[k] = v
                if bad and i <= j:
                    out.append(
                        f"anti-commutativity fails for ({self.names[i]},"
                        f"{self.names[j]}): [y,x] + (-1)^|x||y|[x,y] = "
                        f"{show(bad)}")
        # graded Jacobi: [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]]
        for i in gens:
            for j in gens:
                for k in gens:
                    x, y, z = {i: ring.one}, {j: ring.one}, {k: ring.one}
                    lhs = self.bracket(x, self.bracket(y, z))
                    r1 = self.bracket(self.bracket(x, y), z)
                    r2 = self.bracket(y, self.bracket(x, z))
                    s = self._sign(i, j)
                    diff = accumulate(ring, dict(lhs), r1,
                                      ring.neg(ring.one))
                    accumulate(ring, diff, r2, ring.neg(s))
                    if diff:
                        out.append(
                            f"Jacobi fails on ({self.names[i]},{self.names[j]},"
                            f"{self.names[k]}): defect {show(diff)}")
        for i in gens:
            if self.degrees[i] % 2 == 1:
                x = {i: ring.one}
                t = self.bracket(x, self.bracket(x, x))
                if t:
                    out.append(f"[x,[x,x]] ≠ 0 for odd {self.names[i]}: "
                               f"{show(t)}")
        # differential: degree -1 derivation with d² = 0
        for i, tgt in self.d_gen.items():
            for k in tgt:
                if self.degrees[k] != self.degrees[i] - 1:
                    out.append(f"∂{self.names[i]} hits {self.names[k]}: "
                               "differential is not of degree -1")
            dd = self.d(self.d({i: ring.one}))
            if dd:
                out.append(f"∂∂{self.names[i]} = {show(dd)} ≠ 0")
        for i in gens:
            for j in gens:
                x, y = {i: ring.one}, {j: ring.one}
                lhs = self.d(self.bracket(x, y))
                r1 = self.bracket(self.d(x), y)
                r2 = self.bracket(x, self.d(y))
                s = ring.of(-1 if self.degrees[i] % 2 else 1)
                diff = accumulate(ring, dict(lhs), r1, ring.neg(ring.one))
                accumulate(ring, diff, r2, ring.neg(s))
                if diff:
                    out.append(
                        f"∂ is not a Lie derivation on ({self.names[i]},"
                        f"{self.names[j]}): defect {show(diff)}")
        return out

    # -- chain complex of L itself ----------------------------------------

    def lie_basis(self) -> GradedBasis:
        names = {}
        for i, n in enumerate(self.degrees):
            if n <= self.n_max:
                names.setdefault(n, []).append(self.names[i])
        return GradedBasis(names, self.n_max)

    def as_complex(self) -> GradedChainComplex:
        basis = self.lie_basis()
        d = GradedMap(basis, basis, -1, self.ring)
        for n in basis.degrees():
            if n - 1 < 0:
                continue
            rows = basis.names(n - 1)
            cols = basis.names(n)
            m = Matrix.zeros(self.ring, len(rows), len(cols))
            for jj, name in enumerate(cols):
                for k, c in self.d_gen.get(self.index[name], {}).items():
                    m.a[rows.index(self.names[k])][jj] = c
            d.set_block(n, m)
        return GradedChainComplex(basis, d, self.ring)


def abelian(ring, n_max, generators, differential=None) -> DgLie:
    return DgLie(ring, n_max, generators, {}, differential)


def ordered_monomials(degrees, n_max: int) -> dict:
    """Degree -> sorted monomials on generators of the given degrees.

    A monomial is a nondecreasing tuple of generator indices in which each
    odd-degree index appears at most once; the empty tuple sits in degree 0.
    This one enumeration orders both the PBW basis of UL and the gamma words
    of Γ on the same generators, which keeps the Λ/Γ pairing a signed
    identity.
    """
    monos = {0: [()]}

    def extend(start, mono, deg):
        for i in range(start, len(degrees)):
            nd = deg + degrees[i]
            if nd > n_max:
                continue
            m2 = mono + (i,)
            monos.setdefault(nd, []).append(m2)
            extend(i + degrees[i] % 2, m2, nd)

    extend(0, (), 0)
    for ms in monos.values():
        ms.sort()
    return monos


def run_length(mono) -> tuple:
    """Runs of a sorted monomial as (index, multiplicity): (0, 0, 2) ->
    ((0, 2), (2, 1))."""
    out = []
    i = 0
    while i < len(mono):
        j = i
        while j < len(mono) and mono[j] == mono[i]:
            j += 1
        out.append((mono[i], j - i))
        i = j
    return tuple(out)


class PbwAlgebra:
    """UL with ordered-monomial basis per degree up to the window.

    Monomials are tuples of generator indices, nondecreasing; odd-degree
    generators appear at most once.  The empty tuple is the unit.
    """

    def __init__(self, L: DgLie):
        bad = L.validate()
        if bad:
            raise LieError("invalid DgLie: " + "; ".join(bad))
        self.L = L
        self.ring = L.ring
        self.n_max = L.n_max
        self._straight_cache = {}
        self._coproduct_cache = {}
        self._d_images = {g: {(k,): c for k, c in tgt.items()}
                          for g, tgt in L.d_gen.items()}
        self._monos = ordered_monomials(L.degrees, self.n_max)
        self._index = {n: {m: j for j, m in enumerate(monos)}
                       for n, monos in self._monos.items()}
        names = {n: [self.monomial_name(m) for m in monos]
                 for n, monos in self._monos.items()}
        self.basis = GradedBasis(names, self.n_max)

    # -- basis -------------------------------------------------------------

    def monomials(self, n: int) -> list:
        return self._monos.get(n, [])

    def dim(self, n: int) -> int:
        return len(self._monos.get(n, []))

    def monomial_degree(self, mono) -> int:
        return sum(self.L.degrees[i] for i in mono)

    def monomial_name(self, mono) -> str:
        if not mono:
            return "1"
        names = self.L.names
        return "*".join(names[i] if k == 1 else f"{names[i]}^{k}"
                        for i, k in run_length(mono))

    def to_vector(self, elem: dict, n: int):
        ring = self.ring
        vec = [ring.zero] * self.dim(n)
        for mono, c in elem.items():
            if ring.is_zero(c):
                continue
            if self.monomial_degree(mono) != n:
                raise LieError("element not homogeneous of the stated degree")
            vec[self._index[n][mono]] = c
        return vec

    def from_vector(self, n: int, vec) -> dict:
        ring = self.ring
        return {m: c for m, c in zip(self._monos.get(n, []), vec)
                if not ring.is_zero(c)}

    # -- product ------------------------------------------------------------

    def _straighten(self, word) -> dict:
        """Word of generator indices -> dict of canonical monomials."""
        ring = self.ring
        cached = self._straight_cache.get(word)
        if cached is not None:
            return cached
        L = self.L
        result = None
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a < b or (a == b and L.degrees[a] % 2 == 0):
                continue
            if a == b:
                # odd square: x² = ½[x,x]
                half = ring.div(ring.one, ring.of(2))
                result = {}
                for k, c in L.bracket_gens(a, a).items():
                    sub = self._straighten(word[:i] + (k,) + word[i + 2:])
                    result = accumulate(ring, result, sub, ring.mul(half, c))
            else:
                s = ring.of(-1 if (L.degrees[a] * L.degrees[b]) % 2 else 1)
                result = _scale_dict(
                    ring, self._straighten(word[:i] + (b, a) + word[i + 2:]), s)
                for k, c in L.bracket_gens(a, b).items():
                    sub = self._straighten(word[:i] + (k,) + word[i + 2:])
                    result = accumulate(ring, result, sub, c)
            break
        if result is None:
            result = {word: ring.one}
        self._straight_cache[word] = result
        return result

    def mul(self, a: dict, b: dict) -> dict:
        """Product in UL; drops monomials beyond the window."""
        ring = self.ring
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                if self.monomial_degree(ma + mb) > self.n_max:
                    continue
                out = accumulate(ring, out, self._straighten(ma + mb),
                                 ring.mul(ca, cb))
        return out

    def gen(self, i: int) -> dict:
        return {(i,): self.ring.one}

    def element(self, spec: dict) -> dict:
        """{name or monomial tuple: coeff} -> element dict."""
        ring = self.ring
        out = {}
        for key, c in spec.items():
            mono = (self.L.index[key],) if isinstance(key, str) else tuple(key)
            out = accumulate(ring, out, self._straighten(mono), ring.of(c))
        return out

    # -- differential as a derivation ----------------------------------------

    def d_elem(self, elem: dict) -> dict:
        out = {}
        for mono, c in elem.items():
            accumulate(self.ring, out, self._derive(mono, -1, self._d_images),
                       c)
        return out

    def differential(self) -> GradedMap:
        return self.derivation(-1, self._d_images)

    def as_complex(self) -> GradedChainComplex:
        return GradedChainComplex(self.basis, self.differential(), self.ring)

    def derivation(self, degree: int, gen_images: dict) -> GradedMap:
        """Extend generator images (element dicts) to a derivation on UL."""
        theta = GradedMap(self.basis, self.basis, degree, self.ring)
        for n in range(max(0, -degree), self.n_max + 1 - max(0, degree)):
            self._set_sparse_block(theta, n,
                                   [self._derive(mono, degree, gen_images)
                                    for mono in self.monomials(n)])
        return theta

    def _derive(self, mono, degree: int, gen_images: dict) -> dict:
        """A derivation on a monomial: the sum over its letters of the word
        with that letter replaced by its image, straightened once, with the
        Koszul sign of an operator of the given degree passing the prefix."""
        ring = self.ring
        out = {}
        sign = ring.one
        for pos, g in enumerate(mono):
            for m2, c2 in gen_images.get(g, {}).items():
                accumulate(ring, out,
                           self._straighten(mono[:pos] + m2 + mono[pos + 1:]),
                           ring.mul(sign, c2))
            if (degree * self.L.degrees[g]) % 2 == 1:
                sign = ring.neg(sign)
        return out

    def algebra_map(self, target: "PbwAlgebra", gen_images: dict) -> GradedMap:
        """Extend generator images (elements of the target) multiplicatively.

        Degree 0; image of a monomial is the ordered product of generator
        images.  Covers U(θ) for Lie maps θ and more general assignments.
        """
        ring = self.ring
        f = GradedMap(self.basis, target.basis, 0, ring)
        cache = {(): {(): ring.one}}

        def image(mono):
            if mono in cache:
                return cache[mono]
            head = image(mono[:-1])
            out = target.mul(head, gen_images.get(mono[-1], {}))
            cache[mono] = out
            return out

        for n in range(self.n_max + 1):
            target._set_sparse_block(f, n,
                                     [image(m) for m in self.monomials(n)])
        return f

    def _set_sparse_block(self, f: GradedMap, n: int, cols: list):
        """Set f's block at degree n from its columns, elements of this
        algebra (f's target) in degree n + deg f; zero blocks stay unset."""
        index = self._index.get(n + f.degree, {})
        block = Matrix.zeros(self.ring, len(index), len(cols))
        for j, elem in enumerate(cols):
            for mono, c in elem.items():
                i = index.get(mono)
                if i is None:
                    raise LieError("element not homogeneous of the stated "
                                   "degree")
                block.a[i][j] = c
        if any(cols):
            f.set_block(n, block)

    # -- coproduct and primitives ---------------------------------------------

    def tensor_mul(self, a: dict, b: dict) -> dict:
        """Product in UL ⊗ UL; keys are (mono, mono) pairs."""
        ring = self.ring
        out = {}
        for (a1, a2), ca in a.items():
            for (b1, b2), cb in b.items():
                if (self.monomial_degree(a1 + b1) > self.n_max or
                        self.monomial_degree(a2 + b2) > self.n_max):
                    continue
                s = ring.of(-1 if (self.monomial_degree(a2)
                                   * self.monomial_degree(b1)) % 2 else 1)
                s2 = self._straighten(a2 + b2)
                accumulate(ring, out,
                           {(m1, m2): ring.mul(c1, c2)
                            for m1, c1 in self._straighten(a1 + b1).items()
                            for m2, c2 in s2.items()},
                           ring.mul(ring.mul(ca, cb), s))
        return out

    def tensor_d(self, t: dict) -> dict:
        """d⊗1 + (-1)^{|left|}·1⊗d on UL ⊗ UL; keys are (mono, mono) pairs."""
        ring = self.ring
        out = {}
        for (m1, m2), c in t.items():
            accumulate(ring, out, {(k1, m2): c1 for k1, c1
                                   in self.d_elem({m1: ring.one}).items()}, c)
            if self.monomial_degree(m1) % 2:
                c = ring.neg(c)
            accumulate(ring, out, {(m1, k2): c2 for k2, c2
                                   in self.d_elem({m2: ring.one}).items()}, c)
        return out

    def coproduct(self, mono) -> dict:
        """Δ of a basis monomial; generators are primitive."""
        ring = self.ring
        cached = self._coproduct_cache.get(mono)
        if cached is not None:
            return cached
        if not mono:
            out = {((), ()): ring.one}
        else:
            head = self.coproduct(mono[:-1])
            g = (mono[-1],)
            out = self.tensor_mul(head, {(g, ()): ring.one,
                                         ((), g): ring.one})
        self._coproduct_cache[mono] = out
        return out

    def coproduct_elem(self, elem: dict) -> dict:
        ring = self.ring
        out = {}
        for mono, c in elem.items():
            accumulate(ring, out, self.coproduct(mono), c)
        return out

    def tensor_pairs(self, n: int, reduced: bool = True) -> list:
        """Index of the (reduced) tensor-square basis in total degree n."""
        lo = 1 if reduced else 0
        out = []
        for i in range(lo, n + 1 - lo):
            for m1 in self.monomials(i):
                for m2 in self.monomials(n - i):
                    out.append((m1, m2))
        return out

    def reduced_coproduct_matrix(self, n: int) -> tuple:
        """(matrix, pair index) of Δ̄ = Δ - id⊗1 - 1⊗id on degree n."""
        ring = self.ring
        pairs = self.tensor_pairs(n, reduced=True)
        pos = {pr: i for i, pr in enumerate(pairs)}
        m = Matrix.zeros(ring, len(pairs), self.dim(n))
        for j, mono in enumerate(self.monomials(n)):
            for key, c in self.coproduct(mono).items():
                if key in pos:
                    m.a[pos[key]][j] = c
        return m, pairs

    def primitives(self, n: int) -> list:
        """Basis vectors of P_n = ker Δ̄ over the ground ring."""
        if n < 1:
            return []
        m, _ = self.reduced_coproduct_matrix(n)
        return m.kernel_basis()

    def inclusion_of_lie(self) -> GradedMap:
        """ι: (L, ∂) -> (UL, ∂) as a degree-0 chain map."""
        L = self.L
        lie_basis = L.lie_basis()
        f = GradedMap(lie_basis, self.basis, 0, self.ring)
        for n in lie_basis.degrees():
            self._set_sparse_block(f, n, [{(L.index[name],): self.ring.one}
                                          for name in lie_basis.names(n)])
        return f


def _scale_dict(ring, d: dict, coeff) -> dict:
    return {k: ring.mul(coeff, c) for k, c in d.items()}
