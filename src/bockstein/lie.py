"""Graded Lie algebras, DGLs, and enveloping algebras with PBW bases.

Elements of a Lie algebra are coefficient dicts over generator indices.
Elements of the enveloping algebra are dicts mapping PBW monomials (tuples
of generator indices, nondecreasing, odd generators at most once) to
scalars.  Words are put in PBW order by one route, `_insert`, which places
one letter into an ordered monomial by the commutator rule
    x_j x_i = (-1)^{|x_i||x_j|} x_i x_j + [x_j, x_i]   (j > i),
passing only the letters it is out of order with, with odd squares
resolved as x^2 = (1/2)[x,x].  A product of monomials ma·mb is ma
multiplied on the right by mb's letters in turn, each inserted at the
right end, so `mul` and `element` keep no table of words.

UL's basis is a `GradedBasis` keyed by the monomials, enumerated on first
read, so elements and coordinates convert in `graded`.  A map given on
generators extends by a monomial's last letter g: a derivation θ of
degree k by θ(head·g) = θ(head)·g + (-1)^{k|head|} head·θ(g)
(`_leibniz`), an algebra map by f(head·g) = f(head)·f(g).  The window
map reads θ(head) from the column already built (`_extend`), and
`derive` runs the step along an element's prefixes with no window map:
UL's d on elements is `d_elem`, and its window map, `differential`, is
built on first call and stored.  Δ is a chain map, Δ∘d = (d⊗1 ± 1⊗d)∘Δ,
so the Bockstein page checks apply d on UL only; d⊗1 ± 1⊗d on UL ⊗ UL
serves the tensor-square reference (`structure.TensorSquareBss`).

Δ of an ordered monomial has one split rule, `splits`, over the integers
or over F_p; `PbwAlgebra.coproduct` and the page coproduct of
`structure` both iterate it.  Generator images given by name or index
(`PbwAlgebra.images`) are read once, for Hopf morphisms and for cce's
cochain algebras and maps.
"""

from __future__ import annotations

from functools import cached_property, partial
from math import comb

from .graded import GradedBasis, GradedChainComplex, GradedMap
from .scalars import accumulate


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
        self._violations = None     # validate()'s verdict, once computed

    @property
    def brackets(self) -> dict:
        """Bracket structure constants {(i, j): {k: coeff}}, as a copy."""
        return {k: dict(v) for k, v in self._brackets.items()}

    def replace(self, ring=None, n_max=None) -> "DgLie":
        """The same presentation over another ring and/or degree window.

        A clean verdict of `validate` carries over from a Z_(p) presentation
        (or to the same ring): every axiom is a polynomial identity in the
        structure constants, which holds over Q, so it survives a ring map
        to F_p and a change of p, and no axiom reads n_max.
        """
        out = DgLie(self.ring if ring is None else ring,
                    self.n_max if n_max is None else n_max,
                    list(zip(self.names, self.degrees)), self.brackets,
                    {k: dict(v) for k, v in self.d_gen.items()})
        if self._violations == [] and (not self.ring.is_field
                                       or out.ring == self.ring):
            out._violations = []
        return out

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
        """All axiom checks on all generator tuples; list of violations.
        Computed once per presentation."""
        if self._violations is None:
            self._violations = self._check_axioms()
        return list(self._violations)

    def _check_axioms(self) -> list:
        ring = self.ring
        out = []
        for i, n in enumerate(self.degrees):
            if n < 1:
                out.append(f"generator {self.names[i]} has degree {n} < 1")
        gens = range(self.n_gens())

        def show(elem):
            return " + ".join(f"{c}·{self.names[k]}"
                              for k, c in sorted(elem.items())) or "0"

        nonzero = set()             # the pairs (i, j) with [x_i, x_j] ≠ 0
        for i in gens:
            for j in gens:
                br = self.bracket_gens(i, j)
                if br:
                    nonzero.add((i, j))
                want_deg = self.degrees[i] + self.degrees[j]
                for k, c in br.items():
                    if self.degrees[k] != want_deg:
                        out.append(
                            f"bracket degree mismatch: [{self.names[i]},"
                            f"{self.names[j]}] hits {self.names[k]} of degree "
                            f"{self.degrees[k]}, expected {want_deg}")
                # anti-commutativity
                bad = accumulate(ring, self.bracket_gens(j, i), br,
                                 self._sign(i, j))
                if bad and i <= j:
                    out.append(
                        f"anti-commutativity fails for ({self.names[i]},"
                        f"{self.names[j]}): [y,x] + (-1)^|x||y|[x,y] = "
                        f"{show(bad)}")
        # graded Jacobi: [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]];
        # a triple whose three inner brackets vanish has every term 0
        for i in gens:
            for j in gens:
                for k in gens:
                    if ((j, k) not in nonzero and (i, j) not in nonzero
                            and (i, k) not in nonzero):
                        continue
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
        """Generators by degree, keyed by index and named by name."""
        keys = {}
        for i, n in enumerate(self.degrees):
            if n <= self.n_max:
                keys.setdefault(n, []).append(i)
        return GradedBasis(keys, self.n_max, self.names.__getitem__)

    def as_complex(self) -> GradedChainComplex:
        basis = self.lie_basis()
        d = GradedMap(basis, basis, -1, self.ring)
        for n in basis.degrees():
            d.set_columns(n, [self.d_gen.get(i, {}) for i in basis.keys(n)])
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


def splits(degrees, mono, p: int | None):
    """Δ of an ordered monomial, one (left, right, coefficient) per term:
    the one split rule of UL's coproduct.

    Δ(x_1···x_k) = Π(x_i⊗1 + 1⊗x_i), and a sub-monomial of an ordered
    monomial is ordered, so the bracket never enters: a run g^m gives
    C(m, j)·g^j ⊗ g^(m-j), and an odd g sent left passes the odd letters
    already sent right (Milnor–Moore).  Parities are read from `degrees`.
    Coefficients are ints; for a prime p they are reduced mod p, and a
    split whose binomial vanishes mod p (Lucas: in runs g^m with m ≥ p)
    is dropped, so every coefficient yielded is nonzero; for p None they
    are kept over Z.
    """
    terms = [((), (), 1, 0)]        # left, right, coeff, odd on right
    for g, m in run_length(mono):
        odd, nxt = degrees[g] % 2, []
        for j in range(m + 1):
            b = comb(m, j)
            if p is not None:
                b %= p
                if not b:
                    continue
            gl, gr = (g,) * j, (g,) * (m - j)
            for left, right, coeff, parity in terms:
                c = coeff * (-b if odd and j and parity else b)
                nxt.append((left + gl, right + gr,
                            c if p is None else c % p,
                            parity ^ (odd and j < m)))
        terms = nxt
    for left, right, coeff, _ in terms:
        yield left, right, coeff


def monomial_name(names: list, mono) -> str:
    """a*b^2 for the monomial (0, 1, 1) on generators named a, b."""
    if not mono:
        return "1"
    return "*".join(names[i] if (k := mono.count(i)) == 1
                    else f"{names[i]}^{k}" for i in dict.fromkeys(mono))


class PbwAlgebra:
    """UL with ordered-monomial basis per degree up to the window.

    Monomials are tuples of generator indices, nondecreasing; odd-degree
    generators appear at most once.  The empty tuple is the unit.
    """

    def __init__(self, L: DgLie):
        if bad := L.validate():
            raise LieError("invalid DgLie: " + "; ".join(bad))
        self.L = L
        self.ring = L.ring
        self.n_max = L.n_max
        self._odd = [n % 2 for n in L.degrees]
        # [x_i, x_j] for the pairs that bracket to nonzero, both orders
        pairs = {q for i, j in L.brackets for q in ((i, j), (j, i))}
        self._brackets = {q: b for q in pairs if (b := L.bracket_gens(*q))}
        self._d_images = {g: {(k,): c for k, c in tgt.items()}
                          for g, tgt in L.d_gen.items()}
        self._d = None              # UL's differential, once built

    # -- basis -------------------------------------------------------------

    @cached_property
    def basis(self) -> GradedBasis:     # enumerated on first read
        # named by a function, not a bound method: no cycle through it
        return GradedBasis(ordered_monomials(self.L.degrees, self.n_max),
                           self.n_max, partial(monomial_name, self.L.names))

    def monomials(self, n: int) -> list:
        return self.basis.keys(n)

    def dim(self, n: int) -> int:
        return self.basis.dim(n)

    def monomial_degree(self, mono) -> int:
        return sum(map(self.L.degrees.__getitem__, mono))

    def monomial_name(self, mono) -> str:
        return monomial_name(self.L.names, mono)

    # -- product ------------------------------------------------------------

    def mul(self, a: dict, b: dict) -> dict:
        """Product in UL; drops monomials beyond the window."""
        ring, deg = self.ring, self.monomial_degree
        out = {}
        right = [(mb, cb, deg(mb)) for mb, cb in b.items()]
        for ma, ca in a.items():
            room = self.n_max - deg(ma)
            for mb, cb, db in right:
                if db <= room:
                    accumulate(ring, out, self._right_mul(ma, mb),
                               ring.mul(ca, cb))
        return out

    def _right_mul(self, mono, letters) -> dict:
        """mono·x_{h_1}···x_{h_k} for a monomial and any word of letters:
        each letter in turn is inserted at the right end (`_insert`)."""
        ring, elem = self.ring, {mono: self.ring.one}
        for h in letters:
            nxt = {}
            for word, c in elem.items():
                accumulate(ring, nxt, self._insert(word, len(word), h), c)
            elem = nxt
        return elem

    def gen(self, i: int) -> dict:
        return {(i,): self.ring.one}

    def element(self, spec: dict) -> dict:
        """{name or monomial tuple: coeff} -> element dict."""
        ring = self.ring
        out = {}
        for key, c in spec.items():
            mono = (self.L.index[key],) if isinstance(key, str) else tuple(key)
            accumulate(ring, out, self._right_mul((), mono), ring.of(c))
        return out

    def images(self, L: DgLie, spec: dict) -> dict:
        """Generator images of L in this algebra, keyed by index, from a
        spec keyed by generator name or index whose values are `element`
        specs; an element dict passes through unchanged."""
        return {L.index[key] if isinstance(key, str) else key:
                self.element(val) for key, val in spec.items()}

    # -- differential as a derivation ----------------------------------------

    def d_elem(self, elem: dict) -> dict:
        """d of an element, from ∂'s generator images."""
        return self.derive(elem, -1, self._d_images)

    def differential(self) -> GradedMap:
        """UL's d, the derivation on ∂'s generator images; built on the
        first call and stored."""
        if self._d is None:
            self._d = self.derivation(-1, self._d_images)
        return self._d

    def as_complex(self) -> GradedChainComplex:
        return GradedChainComplex(self.basis, self.differential(), self.ring)

    def derivation(self, degree: int, gen_images: dict) -> GradedMap:
        """Extend generator images (element dicts) to a derivation on UL:
        θ(head·g) by `_leibniz` on θ(head)'s stored column (`_extend`)."""
        theta = GradedMap(self.basis, self.basis, degree, self.ring)
        return self._extend(theta, partial(self._leibniz, degree, gen_images))

    def derive(self, elem: dict, degree: int, gen_images: dict) -> dict:
        """A derivation on an element, `_leibniz` run along each monomial's
        prefixes: no window map."""
        ring, deg, out = self.ring, self.L.degrees, {}
        for mono, c in elem.items():
            theta, n = {}, 0                # θ(mono[:k]) and |mono[:k]|
            for k, g in enumerate(mono):
                theta = self._leibniz(degree, gen_images, theta.items(),
                                      mono[:k], n, g)
                n += deg[g]
            accumulate(ring, out, theta, c)
        return out

    def _leibniz(self, degree, gen_images, terms, head, n: int, g) -> dict:
        """θ(head·g) = θ(head)·g + (-1)^{degree·n} head·θ(g) for θ of the
        given degree, from θ(head)'s (word, coefficient) pairs and n = |head|:
        g is inserted at each word's right end (`_insert`), and head is
        multiplied on the right by each image monomial (`_right_mul`)."""
        ring, out = self.ring, {}
        for word, c in terms:
            accumulate(ring, out, self._insert(word, len(word), g), c)
        odd = degree * n % 2
        for image, c in gen_images.get(g, {}).items():
            accumulate(ring, out, self._right_mul(head, image),
                       ring.neg(c) if odd else c)
        return out

    def _extend(self, f: GradedMap, step) -> GradedMap:
        """Fill f's blocks degree by degree up: the column of a monomial
        head·g is step(f(head)'s stored (word, entry) pairs, head, |head|,
        g)."""
        deg = self.L.degrees
        for n in range(max(1, -f.degree), self.n_max + 1 - max(0, f.degree)):
            cols = []
            for mono in self.monomials(n):
                head, g = mono[:-1], mono[-1]
                h = n - deg[g]
                cols.append(step(f.terms(h, head), head, h, g))
            f.set_columns(n, cols)
        return f

    def _insert(self, word, pos: int, h: int) -> dict:
        """Straighten word[:pos] + (h,) + word[pos:] for a monomial `word`.

        h moves left, or right, past the letters it is out of order with,
        picking up the Koszul sign (-1)^{|a||h|} at each letter a.  Where
        [a, h] ≠ 0 each bracket term is inserted the same way into the word
        without a, and an odd h meeting its own letter gives ½[h, h].
        """
        ring, odd, brackets = self.ring, self._odd, self._brackets
        out, sign, i = {}, ring.one, pos
        while i > 0 and word[i - 1] > h:        # a·h = ±h·a + [a, h]
            i -= 1
            a = word[i]
            if (a, h) not in brackets:          # a's run passes h at once
                i = word.index(a)
            for k, c in brackets.get((a, h), {}).items():
                accumulate(ring, out, self._insert(word[:i] + word[i + 1:],
                                                   i, k), ring.mul(sign, c))
            if odd[a] and odd[h]:
                sign = ring.neg(sign)
        while i < len(word) and word[i] < h:    # h·b = ±b·h + [h, b]
            b = word[i]
            for k, c in brackets.get((h, b), {}).items():
                accumulate(ring, out, self._insert(word[:i] + word[i + 1:],
                                                   i, k), ring.mul(sign, c))
            if odd[b] and odd[h]:
                sign = ring.neg(sign)
            i += 1
        e = i - 1 if i and word[i - 1] == h else i
        if odd[h] and word[e:e + 1] == (h,):    # h·h = ½[h, h]
            rest = word[:e] + word[e + 1:]
            for k, c in brackets.get((h, h), {}).items():
                accumulate(ring, out, self._insert(rest, e, k),
                           ring.mul(sign, ring.div(c, ring.of(2))))
        else:
            out[word[:i] + (h,) + word[i:]] = sign
        return out

    def algebra_map(self, target: "PbwAlgebra", gen_images: dict) -> GradedMap:
        """Extend generator images (elements of the target) multiplicatively,
        f(head·g) = f(head)·f(g) by `target._right_mul` (`_extend`).  Degree
        0; covers U(θ) for Lie maps θ and more general assignments."""
        ring = self.ring
        f = GradedMap(self.basis, target.basis, 0, ring)
        f.set_columns(0, [{(): ring.one}])

        def product(terms, head, n, g):
            out, images = {}, gen_images.get(g, {}).items()
            for word, c in terms:
                for image, ci in images:
                    accumulate(ring, out, target._right_mul(word, image),
                               ring.mul(c, ci))
            return out

        return self._extend(f, product)

    # -- coproduct ---------------------------------------------------------

    def tensor_d(self, t: dict) -> dict:
        """d⊗1 + (-1)^{|left|}·1⊗d on UL ⊗ UL; keys are (mono, mono) pairs."""
        ring = self.ring
        out = {}
        for (m1, m2), c in t.items():
            accumulate(ring, out, {(k1, m2): c1 for k1, c1
                                   in self.d_elem({m1: c}).items()}, ring.one)
            if self.monomial_degree(m1) % 2:
                c = ring.neg(c)
            accumulate(ring, out, {(m1, k2): c2 for k2, c2
                                   in self.d_elem({m2: c}).items()}, ring.one)
        return out

    def coproduct(self, mono) -> dict:
        """Δ of a basis monomial in closed form (`splits`); generators are
        primitive.  Over F_p the coefficients that vanish, C(p, j), are
        dropped.  Nothing is kept, and the caller owns the returned dict.
        """
        p = self.ring.p if self.ring.is_field else None
        return {(left, right): c
                for left, right, c in splits(self.L.degrees, mono, p)}

    def coproduct_elem(self, elem: dict) -> dict:
        ring = self.ring
        out = {}
        for mono, c in elem.items():
            accumulate(ring, out, self.coproduct(mono), c)
        return out

    def inclusion_of_lie(self) -> GradedMap:
        """ι: (L, ∂) -> (UL, ∂) as a degree-0 chain map."""
        lie_basis = self.L.lie_basis()
        f = GradedMap(lie_basis, self.basis, 0, self.ring)
        for n in lie_basis.degrees():
            f.set_columns(n, [{(i,): self.ring.one}
                              for i in lie_basis.keys(n)])
        return f
