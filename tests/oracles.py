"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own elimination and decomposition
code paths: kernel/rank come from a fraction-free (Bareiss) elimination,
mod-p homology from rank-nullity, and Bockstein page dimensions from the
exact-couple subquotient lattices
    E^r_n = Z^r_n / (p·Z^{r-1}_n + d(Z^{r-1}_{n+1})/p^{r-1}),
    Z^r_n = {c : d(c) ∈ p^r·C_{n-1}},
computed on the raw differential only (no basis change of the complex is
ever performed here) with `smith`, a dense Smith form of this module's own
that shares no code with the library's `eliminate`.  UL's coproduct is
multiplied out in UL ⊗ UL, UL's differential is applied by Leibniz through
products, and products and divided powers in Γ(V) are computed in the
tensor coalgebra by shuffles.

`dense_decompose` and `dense_snf` are the dense elimination that the
library's sparse kernel replaced: the same pivot rule and the same basis
changes on full matrices, the entry-for-entry reference for `decompose`
and `Matrix.snf`.
"""

from fractions import Fraction
from math import factorial

from bockstein.gamma import GammaError
from bockstein.graded import Piece
from bockstein.lie import run_length
from bockstein.scalars import (Matrix, PrimeField, SnfResult, ZpLocal,
                               accumulate)


# ---------------------------------------------------------------------------
# Fraction-free Gaussian elimination (Bareiss) over the rationals
# ---------------------------------------------------------------------------

def bareiss_rank(grid):
    """Rank of a matrix of Fractions via fraction-free elimination."""
    a = [[Fraction(x) for x in row] for row in grid]
    rows, cols = len(a), len(a[0]) if a else 0
    rank = 0
    prev = Fraction(1)
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[rank][c] * a[i][j] - a[i][c] * a[rank][j]) / prev
            a[i][c] = Fraction(0)
        prev = a[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


def fp_rank(grid, p):
    """Rank over F_p by plain elimination (independent of Matrix.rref)."""
    a = [[x % p for x in row] for row in grid]
    rows, cols = len(a), len(a[0]) if a else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][c] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        a[rank] = [(inv * x) % p for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Dense elimination: the reference for the sparse kernel
# ---------------------------------------------------------------------------

class DenseBasisChange:
    """Elementary changes of one basis on dense matrices: columns of every
    `out` matrix, inverted on the rows of every `into` matrix."""

    def __init__(self, out=(), into=()):
        self.out = list(out)
        self.into = list(into)

    def swap(self, i, j):
        if i == j:
            return
        for M in self.out:
            for row in M.a:
                row[i], row[j] = row[j], row[i]
        for M in self.into:
            M.a[i], M.a[j] = M.a[j], M.a[i]

    def scale(self, i, c):
        for M in self.out:
            for row in M.a:
                row[i] = M.ring.mul(row[i], c)
        for M in self.into:
            cinv = M.ring.inv(c)
            M.a[i] = [M.ring.mul(cinv, x) for x in M.a[i]]

    def add(self, j, i, c):
        """e_j -> e_j + c·e_i."""
        for M in self.out:
            for row in M.a:
                if not M.ring.is_zero(row[i]):
                    row[j] = M.ring.add(row[j], M.ring.mul(c, row[i]))
        for M in self.into:
            ri = M.a[i]
            for k, y in enumerate(M.a[j]):
                if not M.ring.is_zero(y):
                    ri[k] = M.ring.sub(ri[k], M.ring.mul(c, y))


def dense_eliminate(S, rows, cols, col_order):
    """Smith form of the dense matrix S in place, by the library's pivot
    rule: least valuation, then least row, then earliest in col_order, found
    by a row-major scan of the whole remaining block."""
    ring = S.ring
    a = S.a
    col_order = list(col_order)
    exponents = []
    for t in range(min(S.rows, len(col_order))):
        best = None
        for i in range(t, S.rows):
            for j in col_order[t:]:
                if not ring.is_zero(a[i][j]):
                    v = ring.valuation(a[i][j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, pi, pj = best
        ct = col_order[t]
        rows.swap(t, pi)
        cols.swap(ct, pj)
        rows.scale(t, ring.unit_part(a[t][ct]))
        piv = a[t][ct]
        for i in range(S.rows):
            if i != t and not ring.is_zero(a[i][ct]):
                rows.add(t, i, ring.div(a[i][ct], piv))
        for j in col_order:
            if j != ct and not ring.is_zero(a[t][j]):
                cols.add(j, ct, ring.neg(ring.div(a[t][j], piv)))
        exponents.append(v)
    return exponents


def dense_snf(A):
    """SnfResult of A by dense elimination on a copy."""
    ring = A.ring
    S = A.copy()
    U, Uinv = Matrix.identity(ring, A.rows), Matrix.identity(ring, A.rows)
    V, Vinv = Matrix.identity(ring, A.cols), Matrix.identity(ring, A.cols)
    exps = dense_eliminate(S, DenseBasisChange(out=[Uinv], into=[U, S]),
                           DenseBasisChange(out=[V, S], into=[Vinv]),
                           range(A.cols))
    return SnfResult(U=U, S=S, V=V, Uinv=Uinv, Vinv=Vinv,
                     invariant_exponents=exps)


def dense_decompose(C):
    """(pieces, P, P^-1) of C by dense elimination, top degree down; P[n]
    and P^-1[n] are dense matrices."""
    ring = C.ring
    cur = {n: C.d.block(n).copy() for n in range(C.n_max + 1)}
    P = {n: Matrix.identity(ring, C.dim(n)) for n in range(C.n_max + 1)}
    Pinv = {n: Matrix.identity(ring, C.dim(n)) for n in range(C.n_max + 1)}
    pieces = []
    hit = 0
    for n in range(C.n_max, -1, -1):
        free_cols = list(range(hit, C.dim(n)))
        exponents = []
        if n > 0:
            exponents = dense_eliminate(
                cur[n],
                DenseBasisChange(out=[P[n - 1], cur[n - 1]],
                                 into=[Pinv[n - 1], cur[n]]),
                DenseBasisChange(out=[P[n], cur[n]], into=[Pinv[n]]),
                free_cols)
        for i, k in enumerate(exponents):
            pieces.append(Piece("elementary", n, free_cols[i], k, i))
        for j in free_cols[len(exponents):]:
            pieces.append(Piece("free", n, j))
        hit = len(exponents)
    return pieces, P, Pinv


# ---------------------------------------------------------------------------
# Mod-p homology dimensions by rank-nullity
# ---------------------------------------------------------------------------

def mod_p_homology_dims(C, p):
    """dim_Fp H_n(C ⊗ F_p) for every n ≤ n_max - 1."""
    dims = {}
    for n in range(C.n_max):
        grid_out = _fp_grid(C.d.block(n), p)
        rank_out = fp_rank(grid_out, p) if grid_out else 0
        grid_in = _fp_grid(C.d.block(n + 1), p)
        rank_in = fp_rank(grid_in, p) if grid_in else 0
        dims[n] = C.dim(n) - rank_out - rank_in
    return dims


def _fp_grid(m, p):
    if m.rows == 0 or m.cols == 0:
        return []
    return [[(x.numerator * pow(x.denominator, p - 2, p)) % p for x in row]
            for row in m.a]


# ---------------------------------------------------------------------------
# Subquotient-lattice Bockstein oracle
# ---------------------------------------------------------------------------

def smith(m):
    """(U, V, exponents) with U·A·V = diag(p^k_1, ..., p^k_r, 0, ...) for a
    Z_(p) matrix A, as lists of rows over Fraction.

    Textbook elimination on copies of m.a: pivot on a least-valuation entry,
    scale it to a power of p, clear its column by row operations (tracked in
    U) and its row by column operations (tracked in V).
    """
    ring = m.ring
    assert not ring.is_field, "the lattice oracle works over Z_(p)"
    rows, cols = m.rows, m.cols
    S = [list(row) for row in m.a]
    U = _identity(rows)
    V = _identity(cols)
    exponents = []
    for t in range(min(rows, cols)):
        nonzero = [(ring.valuation(S[i][j]), i, j)
                   for i in range(t, rows) for j in range(t, cols) if S[i][j]]
        if not nonzero:
            break
        k, pi, pj = min(nonzero)
        S[t], S[pi] = S[pi], S[t]
        U[t], U[pi] = U[pi], U[t]
        for row in S + V:
            row[t], row[pj] = row[pj], row[t]
        c = Fraction(ring.p) ** k / S[t][t]
        S[t] = [c * x for x in S[t]]
        U[t] = [c * x for x in U[t]]
        for i in range(rows):
            f = S[i][t] / S[t][t]
            if i != t and f:
                S[i] = [x - f * y for x, y in zip(S[i], S[t])]
                U[i] = [x - f * y for x, y in zip(U[i], U[t])]
        for j in range(cols):
            f = S[t][j] / S[t][t]
            if j != t and f:
                for row in S + V:
                    row[j] -= f * row[t]
        exponents.append(k)
    return U, V, exponents


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _z_lattice_basis(C, n, r):
    """Columns spanning Z^r_n = {c in C_n : d(c) ∈ p^r C_{n-1}} (full rank)."""
    ring = C.ring
    p = ring.p
    dim = C.dim(n)
    if dim == 0:
        return []
    _, V, exponents = smith(C.d.block(n))
    cols = []
    for j in range(dim):
        col = [row[j] for row in V]
        if j < len(exponents):
            scale = Fraction(p) ** max(r - exponents[j], 0)
            col = [scale * x for x in col]
        cols.append(col)
    return cols


def _lattice_quotient_dim(ring, N_cols, D_cols, dim):
    """dim_Fp N/D for lattices D ⊆ N of full rank `dim` with pN ⊆ D."""
    if dim == 0:
        return 0
    p = ring.p
    U, V, exps = smith(Matrix.from_columns(ring, dim, N_cols))
    assert len(exps) == dim, "numerator lattice not full rank"
    M_cols = []
    for col in D_cols:
        # N x = col  <=>  x = V·diag(p^-k)·U·col
        y = [sum(u * b for u, b in zip(row, col)) / p ** k
             for row, k in zip(U, exps)]
        assert all(x.denominator % p for x in y), \
            "denominator lattice not inside numerator"
        M_cols.append([sum(v * x for v, x in zip(row, y)) for row in V])
    _, _, exps = smith(Matrix.from_columns(ring, dim, M_cols))
    assert len(exps) == dim, "denominator lattice not full rank"
    assert all(k <= 1 for k in exps), "p·N ⊄ D: not an F_p quotient"
    return sum(1 for k in exps if k >= 1)


def bss_page_dims(C, r):
    """dim E^r_n from the subquotient formula, for n ≤ n_max - 1."""
    ring = C.ring
    p = ring.p
    dims = {}
    for n in range(C.n_max):
        dim = C.dim(n)
        if dim == 0:
            dims[n] = 0
            continue
        N_cols = _z_lattice_basis(C, n, r)
        D_cols = [[p * x for x in col] for col in _z_lattice_basis(C, n, r - 1)]
        scale = Fraction(1, p ** (r - 1))
        d_above = C.d.block(n + 1)
        for col in _z_lattice_basis(C, n + 1, r - 1):
            img = d_above.apply(col)
            D_cols.append([scale * x for x in img])
        dims[n] = _lattice_quotient_dim(ring, N_cols, D_cols, dim)
    return dims


def bss_beta_ranks(C, r, page_dims_r, page_dims_r1):
    """rank of β^r: E^r_{n} -> E^r_{n-1} for each n, derived from dimensions.

    Uses dim E^{r+1}_n = dim E^r_n - rank_out(n) - rank_out(n+1) bottom-up.
    """
    ranks = {0: 0}
    for n in range(0, C.n_max - 1):
        ranks[n + 1] = page_dims_r[n] - ranks.get(n, 0) - page_dims_r1[n]
        assert ranks[n + 1] >= 0
    return ranks


# ---------------------------------------------------------------------------
# Page coproducts through the Smith form of UL ⊗ UL
# ---------------------------------------------------------------------------

def page_pairs_by_snf(pa, tensor, n, t):
    """Coordinates over pa.class_pairs(n) of the page class of a chain t of
    UL ⊗ UL, read off the tensor square's own decomposition (`tensor` is a
    TensorSquareBss) and solved against the Künneth matrix, whose columns
    are the tensor-square classes of the products u_i ⊗ v_j of class
    representatives."""
    alg, ring, r = pa.alg, pa.alg.ring, pa.r
    cols = []
    for a, i, j in pa.class_pairs(n):
        u = pa.page.classes[a][i].rep
        v = pa.page.classes[n - a][j].rep
        prod = {(m1, m2): ring.mul(cu, cv)
                for m1, cu in alg.basis.from_vector(a, u, ring).items()
                for m2, cv in alg.basis.from_vector(n - a, v, ring).items()}
        cols.append(tensor.bss.class_of_chain(
            r, n, tensor.complex.basis.to_vector(n, prod, ring)))
    k = Matrix.from_columns(pa.fp, tensor.bss.page(r).dim(n), cols)
    assert k.rows == k.cols and k.rank() == k.rows, \
        f"Künneth matrix at degree {n} is not invertible"
    out = k.solve(tensor.bss.class_of_chain(
        r, n, tensor.complex.basis.to_vector(n, t, ring)))
    assert out is not None
    return out


# ---------------------------------------------------------------------------
# UL's coalgebra by products in UL ⊗ UL
# ---------------------------------------------------------------------------
#
# Δ is built as the algebra map with Δ(g) = g⊗1 + 1⊗g, multiplying in
# UL ⊗ UL through the library's straightening, never its closed form.

def tensor_mul(alg, a, b):
    """Product in UL ⊗ UL; keys are (mono, mono) pairs."""
    ring = alg.ring
    out = {}
    for (a1, a2), ca in a.items():
        for (b1, b2), cb in b.items():
            if (alg.monomial_degree(a1 + b1) > alg.n_max or
                    alg.monomial_degree(a2 + b2) > alg.n_max):
                continue
            s = ring.of(-1 if (alg.monomial_degree(a2)
                               * alg.monomial_degree(b1)) % 2 else 1)
            left = alg.mul({a1: ring.one}, {b1: ring.one})
            right = alg.mul({a2: ring.one}, {b2: ring.one})
            accumulate(ring, out,
                       {(m1, m2): ring.mul(c1, c2)
                        for m1, c1 in left.items()
                        for m2, c2 in right.items()},
                       ring.mul(ring.mul(ca, cb), s))
    return out


def coproduct_by_products(alg, mono):
    """Δ of a basis monomial as the product of the (g⊗1 + 1⊗g)."""
    ring = alg.ring
    out = {((), ()): ring.one}
    for g in mono:
        out = tensor_mul(alg, out, {((g,), ()): ring.one,
                                    ((), (g,)): ring.one})
    return out


def ul_primitives(alg, n):
    """Basis vectors of P_n = ker Δ̄ over the ground ring, from the dense
    matrix of the reduced coproduct Δ̄ = Δ - id⊗1 - 1⊗id on degree n."""
    if n < 1:
        return []
    pairs = [(m1, m2) for i in range(1, n)
             for m1 in alg.monomials(i) for m2 in alg.monomials(n - i)]
    pos = {pr: i for i, pr in enumerate(pairs)}
    m = Matrix.zeros(alg.ring, len(pairs), alg.dim(n))
    for j, mono in enumerate(alg.monomials(n)):
        for key, c in coproduct_by_products(alg, mono).items():
            if key in pos:
                m.a[pos[key]][j] = c
    return m.kernel_basis()


def coalgebra_failure_by_monomials(source, target, f):
    """The coalgebra-morphism message of the first basis monomial, by
    degree and then order, whose coproduct the algebra map f: source ->
    target does not preserve; None when Δ∘f = (f⊗f)∘Δ on every monomial."""
    ring = source.ring

    def image(mono):
        n = source.monomial_degree(mono)
        if not 0 <= n <= target.n_max:
            return {}
        return target.basis.from_vector(n, f.apply(
            n, source.basis.to_vector(n, {mono: ring.one}, ring)), ring)

    for n in range(source.n_max + 1):
        for mono in source.monomials(n):
            lhs = {}
            for m, c in image(mono).items():
                accumulate(ring, lhs, coproduct_by_products(target, m), c)
            rhs = {}
            for (m1, m2), c in coproduct_by_products(source, mono).items():
                accumulate(ring, rhs,
                           {(k1, k2): ring.mul(c1, c2)
                            for k1, c1 in image(m1).items()
                            for k2, c2 in image(m2).items()}, c)
            if lhs != rhs:
                return ("not a coalgebra morphism: coproduct of "
                        f"{source.monomial_name(mono)} not preserved")
    return None


# ---------------------------------------------------------------------------
# UL's differential by Leibniz through products
# ---------------------------------------------------------------------------
#
# d(x_1···x_k) = Σ_i (-1)^{|x_1···x_{i-1}|} x_1···x_{i-1}·∂x_i·x_{i+1}···x_k,
# each term multiplied out by `PbwAlgebra.mul`, never `_derive` or the
# stored differential.

def ul_d_by_leibniz(alg, elem):
    """d of an element of UL, term by term from ∂ on generators."""
    ring = alg.ring
    out = {}
    for mono, c in elem.items():
        for pos, g in enumerate(mono):
            prefix = {mono[:pos]: ring.one}
            dg = {(k,): ck for k, ck in alg.L.d_gen.get(g, {}).items()}
            term = alg.mul(alg.mul(prefix, dg), {mono[pos + 1:]: ring.one})
            sign = -1 if alg.monomial_degree(mono[:pos]) % 2 else 1
            accumulate(ring, out, term, ring.mul(ring.of(sign), c))
    return out


def ul_tensor_d_by_leibniz(alg, t):
    """d⊗1 + (-1)^{|left|}·1⊗d on UL ⊗ UL through `ul_d_by_leibniz`."""
    ring = alg.ring
    out = {}
    for (m1, m2), c in t.items():
        sign = -1 if alg.monomial_degree(m1) % 2 else 1
        for k1, c1 in ul_d_by_leibniz(alg, {m1: c}).items():
            accumulate(ring, out, {(k1, m2): c1}, ring.one)
        for k2, c2 in ul_d_by_leibniz(alg, {m2: c}).items():
            accumulate(ring, out, {(m1, k2): c2}, ring.of(sign))
    return out


# ---------------------------------------------------------------------------
# Γ(V) through the tensor coalgebra
# ---------------------------------------------------------------------------
#
# Γ(V) sits in T_C(V) as the symmetric words; its product is the shuffle
# product and γ^k(x) = x^k/k! there.  These routes use only the library's
# `GammaAlgebra.shuffle` and `expand`, never its closed-form product.

def gamma_expand_elem(G, elem):
    """Element of Γ(V) -> tensor expansion over G's ring."""
    out = {}
    for gw, c in elem.items():
        accumulate(G.ring, out, G.expand(gw), c)
    return out


def gamma_from_tensor(G, tensor_elem, ring=None):
    """Tensor expansion -> gamma coordinates; raises if outside Γ(V).

    Each gamma word hits its sorted tensor word with coefficient 1, and
    distinct gamma words have distinct letter multisets, so peeling the
    sorted words recovers the coordinates without linear algebra; the
    residual must cancel exactly or the element is not symmetric.
    Coefficients lie in `ring`, by default G's own.
    """
    ring = G.ring if ring is None else ring
    out = {}
    residual = {w: c for w, c in tensor_elem.items() if not ring.is_zero(c)}
    for w, c in list(residual.items()):
        if any(w[i] > w[i + 1] for i in range(len(w) - 1)):
            continue
        gw = run_length(w)
        if any(k > 1 and G.degrees[i] % 2 for i, k in gw):
            raise GammaError("tensor element does not lie in Γ(V)")
        out[gw] = c
        accumulate(ring, residual, G.expand(gw), ring.neg(c))
    if residual:
        raise GammaError("tensor element does not lie in Γ(V)")
    return out


def gamma_mul(G, a, b):
    """Product in Γ(V) as the shuffle product of the tensor expansions."""
    ring = G.ring
    tensor = {}
    for ta, ca in gamma_expand_elem(G, a).items():
        for tb, cb in gamma_expand_elem(G, b).items():
            if sum(G.degrees[i] for i in ta + tb) <= G.n_max:
                accumulate(ring, tensor, G.shuffle(ta, tb), ring.mul(ca, cb))
    return gamma_from_tensor(G, tensor)


def gamma_divided_power(G, elem, k):
    """γ^k of a homogeneous even-degree element as the k-fold shuffle power
    over Q divided by k!, on an integer lift of the coefficients (γ^j of a
    multiple of p is 0 mod p for j ≥ 1, so reducing afterwards is sound)."""
    ring = G.ring
    lift = {gw: Fraction(c) for gw, c in elem.items()}
    tensor = {}
    for gw, c in lift.items():
        for w, m in G.expand(gw).items():
            tensor[w] = tensor.get(w, Fraction(0)) + c * m
    power = {(): Fraction(1)}
    for _ in range(k):
        nxt = {}
        for wa, ca in power.items():
            for wb, cb in tensor.items():
                for w, c in G.shuffle(wa, wb).items():
                    nxt[w] = nxt.get(w, Fraction(0)) + ca * cb * c
        power = {w: c for w, c in nxt.items() if c}
    result = {w: c / factorial(k) for w, c in power.items()}
    assert all(c.denominator % ring.p for c in result.values()), \
        "divided power not p-integral"
    exact = gamma_from_tensor(G, result, ZpLocal(ring.p))
    return {gw: ring.of(c) for gw, c in exact.items()
            if not ring.is_zero(ring.of(c))}
