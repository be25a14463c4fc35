"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own elimination and decomposition
code paths: kernel/rank come from a fraction-free (Bareiss) elimination,
mod-p homology from rank-nullity, and Bockstein page dimensions from the
exact-couple subquotient lattices
    E^r_n = Z^r_n / (p·Z^{r-1}_n + d(Z^{r-1}_{n+1})/p^{r-1}),
    Z^r_n = {c : d(c) ∈ p^r·C_{n-1}},
computed on the raw differential only (no basis change of the complex is
ever performed here) with `smith`, a dense Smith form of this module's own
that shares no code with the library's `eliminate`.  `pages_by_pieces`
rebuilds each page, its class names and β^r from the piece list page by
page, the route `bockstein_pages` took before it filtered one list of
piece ends.  UL's coproduct is multiplied out in UL ⊗ UL.  Page
coproducts are read off all of Δ over Z_(p) (`page_pairs_by_delta`), each
factor's page coordinates taken from the class rows of P⁻¹
(`page_coords`), not from the page code's own table.  Enveloping counts
are multiplied out term by term (`envelope_dims_by_products`).  UL's
words are put in PBW order by adjacent swaps (`straighten`),
the route the library's one-letter insertion replaced, and UL's
differential and derivations are applied by Leibniz on whole straightened
words.  The Jacobi identity is checked on every generator triple, and
products and divided powers in Γ(V) are computed in the tensor coalgebra
by this module's shuffle product (`shuffle`), and so is the Λ/Γ pairing.
The Γ-morphism and Γ-derivation detectors scan every pair of basis words
and every even word (`is_gamma_morphism_by_scan`,
`is_gamma_derivation_by_scan`), where the library checks generators.
The Chevalley-Eilenberg differential's two parts are built as two
derivations, d1's signs read off the whole of Γ(sL) (`cce_parts`), where
the library builds one derivation with closed-form signs.

`dense_decompose` and `dense_snf` are the dense elimination that the
library's sparse kernel replaced: the same pivot rule and the same basis
changes on full matrices, the entry-for-entry reference for `decompose`
and `Matrix.snf`.  `certify_piece_counts` checks a decomposition at any
size against ranks of d mod p and mod a second prime q, taken by `FpSpan`
on plain ints.  `to_vector`, `from_vector`, `dense` and `sparse` convert
between the library's column dicts and the dense coordinate vectors these
references work on.
"""

from fractions import Fraction
from math import factorial

from bockstein.gamma import (GammaAlgebra, GammaError, pairing_signs,
                             tensor_pairing_sign)
from bockstein.graded import GradedBasis, GradedMap, Piece, decompose
from bockstein.lie import PbwAlgebra, abelian, run_length
from bockstein.scalars import (FpSpan, Matrix, PrimeField, SnfResult,
                               ZpLocal, accumulate)


# ---------------------------------------------------------------------------
# Dense coordinates
# ---------------------------------------------------------------------------

def dense(col, dim):
    """The dense vector of length dim of a column dict."""
    return [col.get(i, 0) for i in range(dim)]


def sparse(vec):
    """The column dict of the nonzeros of a dense vector."""
    return {i: x for i, x in enumerate(vec) if x}


def to_vector(basis, n, elem, ring):
    """Dense coordinates in degree n of a sparse element."""
    return dense(basis.to_column(n, elem, ring), basis.dim(n))


def from_vector(basis, n, vec, ring):
    """The sparse element of dense coordinates in degree n."""
    return basis.from_column(
        n, {i: x for i, x in enumerate(vec) if not ring.is_zero(x)})


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
# Piece counts certified by ranks over F_p and F_q
# ---------------------------------------------------------------------------

Q = 2 ** 31 - 1     # a prime; q ≠ p, and no denominator in the inputs has it


def _rank_mod(columns, q):
    """Rank over F_q of sparse Z_(p) columns, each entry read mod q."""
    span = FpSpan(q)
    rank = 0
    for col in columns:
        red = {}
        for i, x in col.items():
            if x.__class__ is not int:
                if x.denominator % q == 0:
                    raise ValueError(f"{x} has no image mod {q}")
                x = x.numerator * pow(x.denominator, -1, q)
            red[i] = x % q
        rank += span.add(red) is None
    return rank


def certify_piece_counts(C, pieces, q=Q):
    """Check a piece list of the Z_(p) complex C against ranks of d read by
    `FpSpan` on plain ints, sharing nothing with `eliminate`, the ring
    classes or `_verify_decomposition`; raises AssertionError naming the
    first degree that fails.  In each degree n:
    - the pieces cover the basis once: free and elementary pieces with top
      degree n plus elementary pieces with top degree n + 1 make dim C_n;
    - rank(d_n ⊗ F_p) is the number of exponent-0 pieces with top degree n,
      since P^-1·d·P = D is invertible mod p;
    - rank(d_n ⊗ F_q) is at most the number of elementary pieces with top
      degree n, which is rank(d_n) over Q.  A count below it is a certain
      bug; an equal count is strong evidence, not proof."""
    p = C.ring.p
    free, tops, units = {}, {}, {}
    for pc in pieces:
        n = pc.top_degree
        if pc.kind == "free":
            free[n] = free.get(n, 0) + 1
        else:
            tops[n] = tops.get(n, 0) + 1
            units[n] = units.get(n, 0) + (pc.exponent == 0)
    for n in range(C.n_max + 1):
        cover = free.get(n, 0) + tops.get(n, 0) + tops.get(n + 1, 0)
        assert cover == C.dim(n), (
            f"degree {n}: pieces cover {cover} of {C.dim(n)} basis vectors")
        cols = C.d.sparse_columns(n)
        rank_p = _rank_mod(cols, p)
        assert rank_p == units.get(n, 0), (
            f"degree {n}: rank mod {p} is {rank_p}, "
            f"{units.get(n, 0)} exponent-0 pieces")
        rank_q = _rank_mod(cols, q)
        assert rank_q <= tops.get(n, 0), (
            f"degree {n}: rank mod {q} is {rank_q}, "
            f"{tops.get(n, 0)} elementary pieces")


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


def pages_by_pieces(C, r_max):
    """Pages E^1..E^{r_max} of the Z_(p) complex C, each rebuilt from the
    piece list of `decompose`: per page, every free piece and every piece
    p^k with k ≥ r adds its ends inside the window, degree by degree in
    piece order; a class is named [first basis vector of its P column],
    made unique on the page with ~2, ~3, ... in that order, and each
    degree is sorted by name.  β^r is written by class name and read back
    through the page basis.  Returns per page (classes, beta): classes a
    dict degree -> [(name, new_index, exponent, rep)] in page order, beta a
    GradedMap over F_p on the page basis."""
    dec = decompose(C)
    fp = C.ring.residue_field()
    window = C.n_max - 1
    pages = []
    for r in range(1, r_max + 1):
        raw, pairs = {}, []
        for pc in dec.pieces:
            if pc.kind == "free":
                ends = [(pc.top_degree, pc.top_index)]
            elif pc.exponent >= r:
                ends = [(pc.top_degree, pc.top_index),
                        (pc.top_degree - 1, pc.bottom_index)]
            else:
                continue
            k = 0 if pc.kind == "free" else pc.exponent
            added = []
            for n, j in ends:
                if n <= window:
                    rec = [None, j, k, dec.P[n][j]]
                    raw.setdefault(n, []).append(rec)
                    added.append(rec)
            if k == r and len(added) == 2:
                pairs.append((pc.top_degree, added[0], added[1]))
        used = set()
        for n in sorted(raw):
            for rec in raw[n]:
                name = f"[{C.basis.name(n, min(rec[3]))}]"
                if name in used:
                    k = 2
                    while f"{name}~{k}" in used:
                        k += 1
                    name = f"{name}~{k}"
                used.add(name)
                rec[0] = name
            raw[n].sort(key=lambda rec: rec[0])
        classes = {n: [tuple(rec) for rec in recs] for n, recs in raw.items()}
        basis = GradedBasis({n: [c[0] for c in cls]
                             for n, cls in classes.items()}, max(window, 0))
        beta = GradedMap(basis, basis, -1, fp)
        for n in {n for n, _, _ in pairs}:
            elems = [{} for _ in classes[n]]
            names = [c[0] for c in classes[n]]
            for m, top, bottom in pairs:
                if m == n:
                    elems[names.index(top[0])][bottom[0]] = fp.one
            beta.set_columns(n, elems)
        pages.append((classes, beta))
    return pages


# ---------------------------------------------------------------------------
# Page coproducts through the Smith form of UL ⊗ UL
# ---------------------------------------------------------------------------

def class_pairs(pa, n):
    """(a, i, j): class i of degree a with class j of degree n - a on the
    page of `pa` (a PageAlgebra), in the order of the pair positions
    offset[a] + i·dim(n−a) + j."""
    return [(a, i, j)
            for a in range(n + 1)
            for i in range(pa.page.dim(a))
            for j in range(pa.page.dim(n - a))]


def page_pairs_by_snf(pa, tensor, n, t):
    """Coordinates over class_pairs(pa, n) of the page class of a chain t of
    UL ⊗ UL, read off the tensor square's own decomposition (`tensor` is a
    TensorSquareBss) and solved against the Künneth matrix, whose columns
    are the tensor-square classes of the products u_i ⊗ v_j of class
    representatives."""
    alg, ring, r = pa.alg, pa.alg.ring, pa.r
    basis, dim = tensor.complex.basis, tensor.bss.page(r).dim(n)
    cols = []
    for a, i, j in class_pairs(pa, n):
        u = pa.page.classes[a][i].rep
        v = pa.page.classes[n - a][j].rep
        prod = {(m1, m2): ring.mul(cu, cv)
                for m1, cu in alg.basis.from_column(a, u).items()
                for m2, cv in alg.basis.from_column(n - a, v).items()}
        cols.append(dense(tensor.bss.class_of_chain(
            r, n, basis.to_column(n, prod, ring)), dim))
    k = Matrix.from_columns(pa.fp, dim, cols)
    assert k.rows == k.cols and k.rank() == k.rows, \
        f"Künneth matrix at degree {n} is not invertible"
    out = k.solve(dense(tensor.bss.class_of_chain(
        r, n, basis.to_column(n, t, ring)), dim))
    assert out is not None
    return sparse(out)


def page_coords(pa, mono):
    """(degree, [(class, coefficient mod p)]) of a PBW monomial on the page
    of `pa`: its column of P⁻¹ at the page's classes, one class at a time,
    reduced mod p."""
    alg, ring = pa.alg, pa.alg.ring
    a = alg.monomial_degree(mono)
    j = alg.basis.index(a, mono)
    col = pa.result.decomposition.Pinv[a][j]
    coords = []
    for i, cl in enumerate(pa.page.classes.get(a, [])):
        u = ring.reduce_mod_p(col.get(cl.new_index, 0))
        if u:
            coords.append((i, u))
    return a, coords


def page_pairs_by_delta(pa, n, chain, reduced):
    """Coordinates over class_pairs(pa, n) of the page class of Δ (of Δ̄
    when `reduced`) of a UL chain of degree n (a column dict), by the route
    the page coproduct took before it was formed over F_p: all of Δ over
    Z_(p) (`PbwAlgebra.coproduct_elem`), the terms with an empty factor
    filtered out for Δ̄, and each term's coefficient reduced mod p and
    spread over the pairs of its factors' page coordinates
    (`page_coords`)."""
    alg, ring, p, dim = pa.alg, pa.alg.ring, pa.fp.p, pa.page.dim
    t = alg.coproduct_elem(alg.basis.from_column(n, chain))
    if reduced:
        t = {k: v for k, v in t.items() if k[0] and k[1]}
    offset = [0]
    for a in range(n):
        offset.append(offset[-1] + dim(a) * dim(n - a))
    coords = {}
    out = {}
    for (m1, m2), c in t.items():
        for m in (m1, m2):
            if m not in coords:
                coords[m] = page_coords(pa, m)
        a, u = coords[m1]
        v = coords[m2][1]
        c = ring.reduce_mod_p(c)
        for i, ui in u:
            for j, vj in v:
                k = offset[a] + i * dim(n - a) + j
                out[k] = out.get(k, 0) + c * ui * vj
    return {k: x % p for k, x in out.items() if x % p}


# ---------------------------------------------------------------------------
# UL's coalgebra by products in UL ⊗ UL
# ---------------------------------------------------------------------------
#
# Δ is built as the algebra map with Δ(g) = g⊗1 + 1⊗g, multiplying in
# UL ⊗ UL through the library's product `mul`, never its closed form.

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
    blocks = {n: f.block(n) for n in range(target.n_max + 1)}

    def image(mono):
        n = source.monomial_degree(mono)
        if n not in blocks:
            return {}
        return from_vector(target.basis, n, blocks[n].apply(
            to_vector(source.basis, n, {mono: ring.one}, ring)), ring)

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
# Enveloping counts by products of truncated geometric series
# ---------------------------------------------------------------------------

def envelope_dims_by_products(p, gen_counts, window):
    """Degreewise dimensions of the enveloping algebra on primitive
    generators, exponent ≤ 1 on odd degrees and < p on even ones: the
    series multiplied out term by term, one factor 1 + t^d + ... +
    t^(top·d) per generator, the route `structure._envelope_dims` took
    before its two-pass recurrence."""
    series = [1] + [0] * window
    for d, count in sorted(gen_counts.items()):
        top = 1 if d % 2 else p - 1
        for _ in range(count):
            series = [sum(series[n - e * d]
                          for e in range(min(top, n // d) + 1))
                      for n in range(window + 1)]
    return series


# ---------------------------------------------------------------------------
# Graded Jacobi on every generator triple
# ---------------------------------------------------------------------------

def jacobi_violations(L):
    """The "Jacobi fails" lines of `DgLie.validate`, from all n³ generator
    triples, none skipped."""
    ring = L.ring
    out = []
    gens = range(L.n_gens())

    def show(elem):
        return " + ".join(f"{c}·{L.names[k]}"
                          for k, c in sorted(elem.items())) or "0"

    for i in gens:
        for j in gens:
            for k in gens:
                x, y, z = {i: ring.one}, {j: ring.one}, {k: ring.one}
                lhs = L.bracket(x, L.bracket(y, z))
                r1 = L.bracket(L.bracket(x, y), z)
                r2 = L.bracket(y, L.bracket(x, z))
                s = ring.of(-1 if L.degrees[i] * L.degrees[j] % 2 else 1)
                diff = accumulate(ring, dict(lhs), r1, ring.neg(ring.one))
                accumulate(ring, diff, r2, ring.neg(s))
                if diff:
                    out.append(f"Jacobi fails on ({L.names[i]},{L.names[j]},"
                               f"{L.names[k]}): defect {show(diff)}")
    return out


# ---------------------------------------------------------------------------
# UL's product and differential by straightening whole words
# ---------------------------------------------------------------------------
#
# `straighten` orders a word by adjacent swaps, recursing on the first
# pair out of order: the route the library took before it inserted one
# letter at a time (`PbwAlgebra._insert`).  It reads only the Lie algebra
# and the ring.  d(x_1···x_k) = Σ_i (-1)^{|x_1···x_{i-1}|} x_1···∂x_i···x_k
# straightens each substituted word whole, never through `mul`, the
# library's last-letter Leibniz step (`PbwAlgebra._leibniz`) or the stored
# differential.

def straighten(alg, word):
    """A word of generator indices as a dict of PBW monomials, by adjacent
    swaps x_b x_a = (-1)^{|x_a||x_b|} x_a x_b + [x_b, x_a] and odd squares
    x² = ½[x, x]; the memo lives for one call."""
    L, ring = alg.L, alg.ring
    memo = {}

    def walk(word):
        if word in memo:
            return memo[word]
        result = {word: ring.one}
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a < b or (a == b and L.degrees[a] % 2 == 0):
                continue
            result = {}
            if a == b:
                half = ring.div(ring.one, ring.of(2))
                for k, c in L.bracket_gens(a, a).items():
                    accumulate(ring, result,
                               walk(word[:i] + (k,) + word[i + 2:]),
                               ring.mul(half, c))
            else:
                s = -1 if L.degrees[a] * L.degrees[b] % 2 else 1
                accumulate(ring, result, walk(word[:i] + (b, a) + word[i + 2:]),
                           ring.of(s))
                for k, c in L.bracket_gens(a, b).items():
                    accumulate(ring, result,
                               walk(word[:i] + (k,) + word[i + 2:]), c)
            break
        memo[word] = result
        return result

    return walk(tuple(word))


def ul_d_by_leibniz(alg, elem):
    """d of an element of UL, term by term from ∂ on generators."""
    ring = alg.ring
    out = {}
    for mono, c in elem.items():
        for pos, g in enumerate(mono):
            sign = -1 if alg.monomial_degree(mono[:pos]) % 2 else 1
            for k, ck in alg.L.d_gen.get(g, {}).items():
                word = mono[:pos] + (k,) + mono[pos + 1:]
                accumulate(ring, out, straighten(alg, word),
                           ring.mul(ring.of(sign), ring.mul(ck, c)))
    return out


def derive_by_straightening(alg, mono, degree, gen_images):
    """A derivation of the given degree on a monomial of UL: each letter
    replaced by its image monomials, the whole word straightened, with the
    Koszul sign of the operator passing the prefix.  Every letter is
    replaced in the one word, where the library extends θ(head) by the last
    letter alone (`PbwAlgebra._leibniz`)."""
    ring = alg.ring
    out = {}
    sign = 1
    for pos, g in enumerate(mono):
        for image, c in gen_images.get(g, {}).items():
            word = mono[:pos] + image + mono[pos + 1:]
            accumulate(ring, out, straighten(alg, word),
                       ring.mul(ring.of(sign), c))
        if degree * alg.L.degrees[g] % 2:
            sign = -sign
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
# product and γ^k(x) = x^k/k! there.  These routes use only `shuffle`,
# never the library's closed-form product or pairing.

def shuffle(G, a, b):
    """Shuffle product, integer coefficients, of two tensor words (tuples
    of indices of G's generators), with the Koszul sign of each letter of
    b passing letters of a; the memo lives for one call."""
    degrees, memo = G.degrees, {}

    def walk(a, b):
        if not a or not b:
            return {a + b: 1}
        out = memo.get((a, b))
        if out is None:
            out = {}
            for w, c in walk(a[1:], b).items():
                k = (a[0],) + w
                out[k] = out.get(k, 0) + c
            # bringing b[0] to the front moves it past all of a
            sign = -1 if (degrees[b[0]]
                          * sum(degrees[i] for i in a)) % 2 else 1
            for w, c in walk(a, b[1:]).items():
                k = (b[0],) + w
                out[k] = out.get(k, 0) + sign * c
            out = memo[a, b] = {w: c for w, c in out.items() if c}
        return out

    return walk(tuple(a), tuple(b))


def gamma_expand(G, gword):
    """Tensor-word expansion (integer coefficients) of a gamma word: the
    shuffle product of its blocks (i,)*k, as γ^k(v) = v^k/k! = v⊗···⊗v."""
    out = {(): 1}
    for i, k in gword:
        nxt = {}
        for w, c in out.items():
            for w2, c2 in shuffle(G, w, (i,) * k).items():
                nxt[w2] = nxt.get(w2, 0) + c * c2
        out = {w: c for w, c in nxt.items() if c}
    return out


def gamma_expand_elem(G, elem):
    """Element of Γ(V) -> tensor expansion over G's ring."""
    out = {}
    for gw, c in elem.items():
        accumulate(G.ring, out, gamma_expand(G, gw), c)
    return out


def lambda_gamma_pairing(ring, degrees, lam_word, gamma_expansion: dict):
    """⟨v_1···v_k, ω⟩ for a Λ-monomial (tuple of generator indices, the
    PBW order) against a tensor expansion of ω ∈ Γ(W), dual generators
    matched index to index."""
    coeff = gamma_expansion.get(lam_word)
    if coeff is None:
        return ring.zero
    sign = tensor_pairing_sign([degrees[i] for i in lam_word])
    return ring.mul(ring.of(sign), ring.of(coeff))


def pairing_matrix_by_expansion(ring, lam, G, n):
    """The reference for `gamma.pairing_matrix`: each Λ-monomial of `lam`
    paired against the tensor expansion of each gamma word of degree n;
    rows = Λ basis."""
    rows, cols = lam.monomials(n), G.words(n)
    m = Matrix.zeros(ring, len(rows), len(cols))
    for j, gw in enumerate(cols):
        exp = {w: ring.of(c) for w, c in gamma_expand(G, gw).items()}
        for i, mono in enumerate(rows):
            m.a[i][j] = lambda_gamma_pairing(ring, G.degrees, mono, exp)
    return m


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
        accumulate(ring, residual, gamma_expand(G, gw), ring.neg(c))
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
                accumulate(ring, tensor, shuffle(G, ta, tb), ring.mul(ca, cb))
    return gamma_from_tensor(G, tensor)


def gamma_divided_power(G, elem, k):
    """γ^k of a homogeneous even-degree element as the k-fold shuffle power
    over Q divided by k!, on an integer lift of the coefficients (γ^j of a
    multiple of p is 0 mod p for j ≥ 1, so reducing afterwards is sound)."""
    ring = G.ring
    lift = {gw: Fraction(c) for gw, c in elem.items()}
    tensor = {}
    for gw, c in lift.items():
        for w, m in gamma_expand(G, gw).items():
            tensor[w] = tensor.get(w, Fraction(0)) + c * m
    power = {(): Fraction(1)}
    for _ in range(k):
        nxt = {}
        for wa, ca in power.items():
            for wb, cb in tensor.items():
                for w, c in shuffle(G, wa, wb).items():
                    nxt[w] = nxt.get(w, Fraction(0)) + ca * cb * c
        power = {w: c for w, c in nxt.items() if c}
    result = {w: c / factorial(k) for w, c in power.items()}
    assert all(c.denominator % ring.p for c in result.values()), \
        "divided power not p-integral"
    exact = gamma_from_tensor(G, result, ZpLocal(ring.p))
    return {gw: ring.of(c) for gw, c in exact.items()
            if not ring.is_zero(ring.of(c))}


# ---------------------------------------------------------------------------
# Γ-morphism and Γ-derivation detectors by scanning every word pair
# ---------------------------------------------------------------------------

# Every pair of basis words and every even word is checked, each word's
# image read through GradedMap.image: the reference for the generator
# checks of gamma._first_failure.

def first_failure_by_scan(A, product_ok, gamma_ok):
    """The first ("product", w1, w2) over all pairs |w1| ≤ |w2|, then the
    first ("gamma", w, k) over all even words w and k ≥ 2; None if none."""
    for n1 in range(1, A.n_max + 1):
        for w1 in A.words(n1):
            for n2 in range(n1, A.n_max + 1 - n1):
                for w2 in A.words(n2):
                    if not product_ok(n1, w1, w2):
                        return "product", w1, w2
    for n in range(2, A.n_max + 1, 2):
        for w in A.words(n):
            for k in range(2, A.n_max // n + 1):
                if not gamma_ok(w, k):
                    return "gamma", w, k
    return None


def _images_by_scan(f, A):
    """Each word of A's basis -> its image under f through GradedMap.image."""
    return {w: f.image(n, {w: f.ring.one})
            for n in A.basis.degrees() for w in A.words(n)}


def _apply(ring, images, elem):
    out = {}
    for w, c in elem.items():
        accumulate(ring, out, images[w], c)
    return out


def is_gamma_morphism_by_scan(f, src, tgt):
    """(verdict, witness) of gamma.is_gamma_morphism, by the full scan."""
    ring = f.ring
    images = _images_by_scan(f, src)
    if _apply(ring, images, {(): ring.one}) != {(): ring.one}:
        return False, ("unit", (), 0)

    def product_ok(n1, w1, w2):
        return (_apply(ring, images, src.word_product(w1, w2))
                == tgt.mul(images[w1], images[w2]))

    def gamma_ok(w, k):
        return (_apply(ring, images, src.divided_power({w: ring.one}, k))
                == tgt.divided_power(images[w], k))

    witness = first_failure_by_scan(src, product_ok, gamma_ok)
    return witness is None, witness


def is_gamma_derivation_by_scan(theta, A):
    """(verdict, witness) of gamma.is_gamma_derivation, by the full scan."""
    ring, deg = theta.ring, theta.degree
    images = _images_by_scan(theta, A)

    def product_ok(n1, w1, w2):
        a, b = {w1: ring.one}, {w2: ring.one}
        sign = ring.of(-1 if (deg * n1) % 2 else 1)
        return _apply(ring, images, A.word_product(w1, w2)) == accumulate(
            ring, A.mul(images[w1], b), A.mul(a, images[w2]), sign)

    def gamma_ok(w, k):
        a = {w: ring.one}
        return (_apply(ring, images, A.divided_power(a, k))
                == A.mul(images[w], A.divided_power(a, k - 1)))

    witness = first_failure_by_scan(A, product_ok, gamma_ok)
    return witness is None, witness


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg cochains as two derivations
# ---------------------------------------------------------------------------

def cce_parts(L):
    """(ΛV, d0, d1) for a valid DGL, the route `cce.cochains` took before
    it built one derivation: d0 dual to ∂ and d1 dual to the bracket, each
    its own derivation of ΛV, with d1's sign on v_x·v_y read from
    `pairing_signs` of Γ(sL) at the position of that monomial."""
    ring, n_max = L.ring, L.n_max
    lam = PbwAlgebra(abelian(ring, n_max, [(f"v{name}", deg + 1) for name,
                                           deg in zip(L.names, L.degrees)]))
    sgamma = GammaAlgebra(ring, n_max, [(f"s{name}", deg + 1) for name,
                                        deg in zip(L.names, L.degrees)])
    # d0 v_x = (-1)^{|v_x|} Σ_y (∂y)_x v_y
    d0_images = {}
    for x in range(L.n_gens()):
        s = ring.of(-1 if (L.degrees[x] + 1) % 2 else 1)
        img = {(y,): ring.mul(s, L.d_gen[y][x]) for y in range(L.n_gens())
               if x in L.d_gen.get(y, {})}
        if img:
            d0_images[x] = img
    # ⟨d1 v_z, sx·sy⟩ = (-1)^{|sy|}⟨v_z, s[x,y]⟩, halved on γ²(sx)
    d1_images = {}
    for z in range(L.n_gens()):
        n = L.degrees[z] + 2
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
            img[mono] = ring.div(val, ring.of(2)) if x == y else val
        if img:
            d1_images[z] = img
    return lam, lam.derivation(1, d0_images), lam.derivation(1, d1_images)
