"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own elimination and decomposition
code paths: kernel/rank come from a fraction-free (Bareiss) elimination,
mod-p homology from rank-nullity, and Bockstein page dimensions from the
exact-couple subquotient lattices
    E^r_n = Z^r_n / (p·Z^{r-1}_n + d(Z^{r-1}_{n+1})/p^{r-1}),
    Z^r_n = {c : d(c) ∈ p^r·C_{n-1}},
computed on the raw differential only (no basis change of the complex is
ever performed here) with `smith`, a dense Smith form of this module's own
that shares no code with the library's `eliminate`.  Products and divided
powers in Γ(V) are computed in the tensor coalgebra by shuffles.
"""

from fractions import Fraction
from math import factorial

from bockstein.gamma import GammaError
from bockstein.lie import run_length
from bockstein.scalars import Matrix, PrimeField, ZpLocal, accumulate


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
                for m1, cu in alg.from_vector(a, u).items()
                for m2, cv in alg.from_vector(n - a, v).items()}
        cols.append(tensor.bss.class_of_chain(r, n, tensor.to_vector(prod, n)))
    k = Matrix.from_columns(pa.fp, tensor.bss.page(r).dim(n), cols)
    assert k.rows == k.cols and k.rank() == k.rows, \
        f"Künneth matrix at degree {n} is not invertible"
    out = k.solve(tensor.bss.class_of_chain(r, n, tensor.to_vector(t, n)))
    assert out is not None
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
