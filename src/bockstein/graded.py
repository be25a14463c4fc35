"""Finite-type free graded modules, graded maps, chain complexes, homology.

Degrees live in a window [0, N_max].  Homology is computed by decomposing
the complex into free and elementary pieces: one sparse in-place
elimination (`scalars.eliminate`) per degree, top degree down, on the
nonzeros of d, each basis change applied wherever that basis is used (the
differentials in and out, P and, once its degree is done, P^-1 kept as
column dicts).  P is exact over the ring; P^-1 is kept over the residue
field F_p, as every reader wants coordinates mod p, and has one reader
(`Decomposition.coordinates`): the columns a chain touches, read in place
through a map new index -> position (`FieldHomology` keeps one per
degree, `bss.SpectralPage` per page and degree).  A sparse recomposition
certifies every decomposition: P^-1·P = 1 over F_p and d·P = P·D exactly.
Over Z_(p) the same decomposition later drives the Bockstein pages, so
torsion bookkeeping happens exactly once; over F_p every piece has
exponent 0, so the free pieces are a homology basis.

Everything here is sparse.  A chain, or coordinates in any basis, is a
column dict: position -> nonzero entry.  A `GradedBasis` knows each
degree's keys (PBW monomials, Γ words, names) and their positions, and
converts between an element (key -> scalar) and its column dict.  A
`GradedMap` stores each block only as the column dicts of its nonzeros and
does all its arithmetic on them; `block(n)` builds a dense `Matrix` on
demand, for the small page-level maps and for tests.
`check_square_zero` applies d to d's columns and names the first entry of
d∘d that is not zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import (BasisChange, Matrix, RingError, accumulate, eliminate,
                      unit_vectors)


class WindowError(ValueError):
    """A degree outside the trusted window was requested."""


class ComplexError(ValueError):
    """d∘d ≠ 0, or a malformed map or element."""


class GradedBasis:
    """Ordered basis keys per degree in [0, n_max]; finite rank everywhere.

    A key is whatever names a basis vector to its owner: a PBW monomial, a
    Γ word, a generator index or a plain name.  `name` prints a key (keys
    are their own names by default); each key's name is made on its first
    use and kept, since a report names few of them.  Each degree keeps a
    key -> position dict, so elements (sparse dicts key -> scalar) and
    column dicts (position -> scalar) convert here and nowhere else.
    """

    def __init__(self, keys_by_degree: dict, n_max: int, name=None):
        self.n_max = n_max
        self._name = name
        self._keys, self._pos, self._names = {}, {}, {}
        for n, keys in keys_by_degree.items():
            if not keys:
                continue
            if n < 0 or n > n_max:
                raise WindowError(f"degree {n} outside window [0, {n_max}]")
            self._keys[n] = list(keys)
            self._pos[n] = {k: j for j, k in enumerate(keys)}
            if len(self._pos[n]) != len(keys):
                raise ValueError(f"duplicate basis names in degree {n}")

    def dim(self, n: int) -> int:
        return len(self._keys.get(n, []))

    def names(self, n: int) -> list:
        return [self.name(n, j) for j in range(self.dim(n))]

    def name(self, n: int, j: int) -> str:
        """The name of the basis vector at position j of degree n."""
        key = self._keys[n][j]
        if self._name is None:
            return key
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = self._name(key)
        return name

    def keys(self, n: int) -> list:
        """The keys of degree n in basis order (do not mutate)."""
        return self._keys.get(n, [])

    def degrees(self):
        return sorted(self._keys)

    def total_dim(self) -> int:
        return sum(len(v) for v in self._keys.values())

    def index(self, n: int, key) -> int:
        j = self._pos.get(n, {}).get(key)
        if j is None:
            raise ComplexError(f"{key!r} is not a basis element of degree {n}")
        return j

    def to_column(self, n: int, elem: dict, ring) -> dict:
        """The column dict in degree n of a sparse element, in basis order;
        zero terms skipped."""
        pos, is_zero = self._pos.get(n, {}), ring.is_zero
        col = []
        for key, c in elem.items():
            if not is_zero(c):
                j = pos.get(key)
                if j is None:
                    raise ComplexError(
                        f"{key!r} is not a basis element of degree {n}")
                col.append((j, c))
        col.sort()
        return dict(col)

    def from_column(self, n: int, col: dict) -> dict:
        """The sparse element of a column dict of nonzeros in degree n."""
        keys = self.keys(n)
        return {keys[i]: c for i, c in col.items()}

    def __eq__(self, other):
        return (isinstance(other, GradedBasis) and self.n_max == other.n_max
                and self._keys == other._keys)

    def __repr__(self):
        return f"GradedBasis({self._keys}, n_max={self.n_max})"


class GradedMap:
    """Degree-d linear map between graded bases, stored as column dicts.

    The block at degree n maps source degree n to target degree n + d.  It
    is stored only as one column dict per source basis vector, target
    position -> nonzero entry in row order (`sparse_columns`), and a zero
    block is not stored at all; setting a degree replaces its block.
    `image` and `apply`, composition, sums, comparison, reduction mod p and
    duals all work on the columns.  `block(n)` and `blocks` build dense
    `Matrix` copies on each read, for small maps and tests.
    """

    def __init__(self, source: GradedBasis, target: GradedBasis, degree: int,
                 ring):
        self.source = source
        self.target = target
        self.degree = degree
        self.ring = ring
        self._cols = {}         # n -> column dicts of the nonzero block at n

    def set_sparse_columns(self, n: int, cols: list):
        """Set the block at degree n from column dicts (row position ->
        entry), one per source basis vector; zero entries are dropped, and
        an all-zero block clears the degree."""
        rows, is_zero = self.target.dim(n + self.degree), self.ring.is_zero
        clean = []
        for col in cols:
            if not col:     # most columns of a page's β^r
                clean.append({})
                continue
            keys = sorted(i for i, x in col.items() if not is_zero(x))
            if keys and (keys[0] < 0 or keys[-1] >= rows):
                raise ComplexError(
                    f"block at degree {n} has a row outside 0..{rows - 1}")
            clean.append({i: col[i] for i in keys})
        self._store(n, clean)

    def set_columns(self, n: int, elems: list):
        """Set the block at degree n from its columns, sparse elements of
        the target in degree n + deg."""
        m, ring = n + self.degree, self.ring
        self._store(n, [self.target.to_column(m, elem, ring)
                        for elem in elems])

    def _store(self, n: int, cols: list):
        """Keep the clean column dicts of degree n, one per source basis
        vector, or clear the degree if all are empty."""
        if len(cols) != self.source.dim(n):
            raise ComplexError(
                f"block at degree {n} has {len(cols)} columns, expected "
                f"{self.source.dim(n)}")
        if any(cols):
            self._cols[n] = cols
        else:
            self._cols.pop(n, None)

    def set_block(self, n: int, m: Matrix):
        if m.rows != self.target.dim(n + self.degree) or m.cols != self.source.dim(n):
            raise ComplexError(
                f"block at degree {n} has shape {m.rows}x{m.cols}, expected "
                f"{self.target.dim(n + self.degree)}x{self.source.dim(n)}")
        self.set_sparse_columns(n, m.sparse_columns())

    def sparse_columns(self, n: int) -> list:
        """The block at degree n as column dicts (row -> nonzero entry, in
        row order); stored, so do not mutate."""
        cols = self._cols.get(n)
        return cols if cols is not None else [
            {} for _ in range(self.source.dim(n))]

    def degrees(self) -> list:
        """The degrees whose block is not zero."""
        return sorted(self._cols)

    def block(self, n: int) -> Matrix:
        """The block at degree n as a dense Matrix, built on each call."""
        return Matrix.from_sparse_columns(self.ring,
                                          self.target.dim(n + self.degree),
                                          self.sparse_columns(n))

    @property
    def blocks(self) -> dict:
        """Degree -> dense Matrix of each nonzero block, built on each read
        (a new dict, so writing to it changes nothing)."""
        return {n: self.block(n) for n in self.degrees()}

    def apply(self, n: int, col: dict) -> dict:
        """f of a column dict of source degree n, as a column dict of the
        target degree n + deg."""
        cols = self._cols.get(n)
        return _times(self.ring, cols, col) if cols else {}

    def image(self, n: int, elem: dict) -> dict:
        """f of a sparse element of source degree n, as a sparse element of
        the target."""
        return self.target.from_column(n + self.degree, self.apply(
            n, self.source.to_column(n, elem, self.ring)))

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self ∘ other."""
        if other.target is not self.source and other.target != self.source:
            raise ComplexError("composition source/target mismatch")
        out = GradedMap(other.source, self.target, self.degree + other.degree,
                        self.ring)
        for n, cols in other._cols.items():
            mid = n + other.degree
            if mid in self._cols:
                out.set_sparse_columns(n, [self.apply(mid, c) for c in cols])
        return out

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if self.degree != other.degree:
            raise ComplexError("cannot add maps of different degrees")
        ring = self.ring
        out = GradedMap(self.source, self.target, self.degree, ring)
        for n in set(self._cols) | set(other._cols):
            out.set_sparse_columns(n, [
                accumulate(ring, dict(a), b, ring.one) for a, b in
                zip(self.sparse_columns(n), other.sparse_columns(n))])
        return out

    def differs_at(self, other: "GradedMap") -> int | None:
        """The least degree where the blocks of two maps differ, or None."""
        return min((n for n in set(self._cols) | set(other._cols)
                    if self._cols.get(n) != other._cols.get(n)), default=None)

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.degree == other.degree
                and self.differs_at(other) is None)

    def is_zero(self) -> bool:
        return not self._cols

    def reduce_mod_p(self) -> "GradedMap":
        red = self.ring.reduce_mod_p
        out = GradedMap(self.source, self.target, self.degree,
                        self.ring.residue_field())
        for n, cols in self._cols.items():
            out.set_sparse_columns(
                n, [{i: red(x) for i, x in col.items()} for col in cols])
        return out


def dual_basis(basis: GradedBasis, marker: str = "#") -> GradedBasis:
    return GradedBasis({n: [name + marker for name in basis.names(n)]
                        for n in basis.degrees()}, basis.n_max)


def dualize(f: GradedMap, source_dual: GradedBasis,
            target_dual: GradedBasis) -> GradedMap:
    """Dual of a degree-d map: transposed blocks with Koszul sign bookkeeping.

    The dual map sends (target)^# -> (source)^# and, indexing duals by the
    degrees they pair against, its block at degree n+d is the transpose of the
    block at n, scaled by (-1)^{d*n} (trivial for degree-0 maps).
    """
    ring = f.ring
    out = GradedMap(target_dual, source_dual, -f.degree, ring)
    for n, cols in f._cols.items():
        m = n + f.degree
        rows = _transpose(cols, target_dual.dim(m))
        if (f.degree * n) % 2 == 1:
            rows = [{j: ring.neg(x) for j, x in row.items()} for row in rows]
        out.set_sparse_columns(m, rows)
    return out


def _times(ring, A: list, col: dict) -> dict:
    """A·col for A a list of column dicts and col a sparse column; over F_p
    col may hold Z_(p) entries, read mod p."""
    out = {}
    for k, x in col.items():
        accumulate(ring, out, A[k], x)
    return out


def check_square_zero(d: GradedMap) -> GradedMap:
    """d, once d∘d = 0; else ComplexError naming the first entry that is not
    zero: least source degree, then basis order of source and target.
    Applies d to each column of d in that order, so d∘d is never built."""
    for n in d.degrees():
        for j, col in enumerate(d.sparse_columns(n)):
            dd = d.apply(n + d.degree, col)
            if dd:
                i = min(dd)
                raise ComplexError(
                    f"d∘d ≠ 0 at degree {n}: d(d({d.source.name(n, j)})) "
                    f"has coefficient {dd[i]} on "
                    f"{d.target.name(n + 2 * d.degree, i)}")
    return d


class GradedChainComplex:
    """Free chain complex: basis + degree -1 differential with d∘d = 0."""

    def __init__(self, basis: GradedBasis, d: GradedMap, ring):
        if d.degree != -1:
            raise ComplexError("chain differential must have degree -1")
        self.basis = basis
        self.d = d
        self.ring = ring
        self.n_max = basis.n_max
        check_square_zero(d)

    def dim(self, n: int) -> int:
        return self.basis.dim(n)


# ---------------------------------------------------------------------------
# Elementary-piece decomposition over Z_(p) or F_p
# ---------------------------------------------------------------------------

@dataclass
class Piece:
    """Free piece (top_degree only) or elementary piece p^k: top -> bottom.

    Indices refer to positions in the transformed (new) basis of the
    respective degree.
    """

    kind: str                      # "free" | "elementary"
    top_degree: int
    top_index: int
    exponent: int = 0              # for elementary pieces: d(top) = p^k bottom
    bottom_index: int = -1         # position in degree top_degree - 1


@dataclass
class Decomposition:
    """P^-1·d·P = D, D the pieces: P[n] holds the new basis of degree n as
    column dicts over the complex's ring, exactly; Pinv[n][j] old basis
    vector j in new coordinates mod p, ints in [1, p), a column of P^-1."""

    complex: GradedChainComplex
    pieces: list
    P: dict = field(default_factory=dict)
    Pinv: dict = field(default_factory=dict)

    def representative(self, n: int, index: int) -> dict:
        """Chain in original coordinates of new-basis vector (n, index): the
        column of P itself, so do not mutate."""
        return self.P[n][index]

    def coordinates(self, n: int, col: dict, positions: list) -> dict:
        """The coordinates mod p, position -> nonzero in position order, of
        a degree-n chain (a column dict over the complex's ring) on the
        new-basis vectors that `positions` places: positions[i] is the
        position of new-basis vector i, or None to leave it out.  The one
        reader of P^-1: the columns the chain touches are read in place."""
        ring, cols = self.complex.ring, self.Pinv[n]
        p, out = ring.p, {}
        for j, x in col.items():
            x = ring.reduce_mod_p(x)
            for i, u in cols[j].items():
                h = positions[i]
                if h is not None:
                    out[h] = out.get(h, 0) + x * u
        return {h: x % p for h, x in sorted(out.items()) if x % p}


def decompose(C: GradedChainComplex) -> Decomposition:
    """Split C into free and elementary pieces with recorded basis change.

    Differentials are brought to Smith form from the top degree down by one
    in-place `eliminate` per degree n on the column dicts of d_n.  Its row
    operations change the basis of C_{n-1}, so they act on P[n-1] and the
    columns of d_{n-1} as well as on P^-1[n-1] and the rows of d_n; its
    column operations change the basis of C_n and act on P[n], P^-1[n] and
    d_n.  Columns hit from above are left out of the elimination: they are
    cycles, so their columns of d_n vanish, and the pieces found so far stay
    intact.  The rows of d_{n+1} are not updated, since d_{n+1} is not read
    again.  Over F_p every nonzero entry is a unit, so every elementary
    piece has exponent 0.  P^-1 is updated over F_p, P and d exactly; its
    rows of degree n become the columns every reader wants once n is done.
    """
    ring = C.ring
    fp = ring.residue_field()
    n_max = C.n_max
    cur = {n: [dict(col) for col in C.d.sparse_columns(n)]  # d_0: no rows
           for n in range(n_max + 1)}
    P = {n: unit_vectors(ring, C.dim(n)) for n in range(n_max + 1)}
    Pinv = {n: unit_vectors(fp, C.dim(n)) for n in range(n_max + 1)}
    pieces = []
    hit = 0          # basis vectors 0..hit-1 of degree n are hit from above
    for n in range(n_max, -1, -1):
        free_cols = list(range(hit, C.dim(n)))
        exponents = []
        if n > 0:
            rows = BasisChange(ring, out=[P[n - 1], cur[n - 1]],
                               into=[Pinv[n - 1]], into_ring=fp)
            cols = BasisChange(ring, out=[P[n]], into=[Pinv[n]],
                               into_ring=fp)
            exponents = eliminate(ring, cur[n], C.dim(n - 1), rows, cols,
                                  free_cols)
        for i, k in enumerate(exponents):
            pieces.append(Piece("elementary", n, free_cols[i], k, i))
        for j in free_cols[len(exponents):]:
            pieces.append(Piece("free", n, j))
        hit = len(exponents)
        Pinv[n] = _transpose(Pinv[n], C.dim(n))

    dec = Decomposition(C, pieces, P, Pinv)
    _verify_decomposition(dec)
    return dec


def _verify_decomposition(dec: Decomposition):
    """Certify P^-1·d·P = D: P^-1[n]·P[n] = 1 over F_p and
    d_n·P[n] = P[n-1]·D_n exactly, D_n the canonical piece matrix.  The
    first makes det P a unit, so P is invertible over Z_(p) and P^-1 is the
    reduction of its inverse; the second is then P^-1·d·P = D.  Column by
    column on nonzeros; raises naming the first degree that fails."""
    C = dec.complex
    ring = C.ring
    fp = ring.residue_field()
    want = {}            # (n, top index) -> d of the new basis vector
    for pc in dec.pieces:
        if pc.kind == "elementary":
            n, pk = pc.top_degree, ring.of(ring.p ** pc.exponent)
            want[n, pc.top_index] = {
                i: ring.mul(pk, x)
                for i, x in dec.P[n - 1][pc.bottom_index].items()}
    for n in range(C.n_max + 1):
        d = C.d.sparse_columns(n)
        for j, col in enumerate(dec.P[n]):
            if (_times(fp, dec.Pinv[n], col) != {j: 1}
                    or _times(ring, d, col) != want.get((n, j), {})):
                raise ComplexError(
                    f"decomposition verification failed at degree {n}")


def _transpose(lines: list, n: int) -> list:
    """Row dicts as column dicts (or back) of a matrix with n of them."""
    out = [{} for _ in range(n)]
    for i, line in enumerate(lines):
        for j, x in line.items():
            out[j][i] = x
    return out


@dataclass
class HomologySummary:
    """H_n = Z_(p)^{betti_n} + sum of Z/p^{k} summands, within the window."""

    n_max: int
    _betti: dict
    _torsion: dict

    def trusted(self, n: int) -> bool:
        return 0 <= n <= self.n_max - 1

    def _check(self, n: int):
        if not self.trusted(n):
            raise WindowError(
                f"degree {n} outside trust window [0, {self.n_max - 1}]: "
                "boundaries from above are unknown at the cutoff")

    def betti(self, n: int) -> int:
        self._check(n)
        return self._betti.get(n, 0)

    def torsion_exponents(self, n: int) -> list:
        self._check(n)
        return sorted(self._torsion.get(n, []))

    def mod_p_dim(self, n: int) -> int:
        """dim_Fp H_n(C ⊗ F_p) via universal coefficients."""
        self._check(n)
        low = len(self._torsion.get(n - 1, [])) if n >= 1 else 0
        return self.betti(n) + len(self._torsion.get(n, [])) + low


def homology(C: GradedChainComplex) -> HomologySummary:
    """Betti numbers and p-torsion orders per degree ≤ n_max - 1."""
    betti, torsion = {}, {}
    for pc in decompose(C).pieces:
        if pc.kind == "free":
            betti[pc.top_degree] = betti.get(pc.top_degree, 0) + 1
        elif pc.exponent >= 1:
            torsion.setdefault(pc.top_degree - 1, []).append(pc.exponent)
    return HomologySummary(C.n_max, betti, torsion)


# ---------------------------------------------------------------------------
# Homology over a field, read off the piece decomposition
# ---------------------------------------------------------------------------

class FieldHomology:
    """Per-degree homology of a complex over F_p, any differential degree ±1.

    Reads the piece decomposition of the complex: over a field every piece
    has exponent 0, so the free pieces form a homology basis.  A degree +1
    differential is decomposed as the chain complex C_m = C^{N-m}, N = n_max.
    """

    def __init__(self, basis: GradedBasis, d: GradedMap):
        if not d.ring.is_field:
            raise RingError("FieldHomology expects a field")
        self.basis = basis
        self.d = d
        self.ring = d.ring
        if d.degree == 1:      # reindex the blocks as C_m = C^{N-m}
            N = basis.n_max
            basis = GradedBasis({N - n: basis.names(n)
                                 for n in basis.degrees()}, N)
            d = GradedMap(basis, basis, -1, self.ring)
            for n in self.d.degrees():
                d.set_sparse_columns(N - n, self.d.sparse_columns(n))
        self._dec = decompose(GradedChainComplex(basis, d, self.ring))
        self._free = {}        # chain degree -> free piece indices, in order
        # chain degree -> new index -> its place among them, or None
        self._pos = {m: [None] * len(c) for m, c in self._dec.Pinv.items()}
        for pc in self._dec.pieces:
            if pc.kind == "free":
                free = self._free.setdefault(pc.top_degree, [])
                self._pos[pc.top_degree][pc.top_index] = len(free)
                free.append(pc.top_index)

    def _m(self, n: int) -> int:
        """Chain degree of degree n: n itself, or N - n for a cochain d."""
        return n if self.d.degree == -1 else self.basis.n_max - n

    def dim(self, n: int) -> int:
        return len(self._free.get(self._m(n), []))

    def class_of(self, n: int, col: dict) -> dict:
        """Homology coordinates of a cycle, as column dicts both; raises if
        not a cycle.  Read off P^-1 on the free pieces of its degree."""
        if self.d.apply(n, col):
            raise ComplexError("not a cycle")
        m = self._m(n)
        return self._dec.coordinates(m, col, self._pos[m])

    def representative(self, n: int, h_index: int) -> dict:
        m = self._m(n)
        return self._dec.representative(m, self._free[m][h_index])


def induced_map(f: GradedMap, H_src: FieldHomology, H_tgt: FieldHomology,
                window: int) -> dict:
    """H(f) in degrees ≤ window, per degree as the list of its column dicts
    (the image of each source class in target class coordinates); f must
    be a (co)chain map there."""
    out = {}
    for n in range(window + 1):
        if 0 <= n + f.degree <= H_tgt.basis.n_max:
            out[n] = [H_tgt.class_of(n + f.degree,
                                     f.apply(n, H_src.representative(n, j)))
                      for j in range(H_src.dim(n))]
    return out
