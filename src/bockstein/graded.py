"""Finite-type free graded modules, graded maps, chain complexes, homology.

Degrees live in a window [0, N_max].  Homology is computed by decomposing
the complex into free and elementary pieces: one sparse in-place
elimination (`scalars.eliminate`) per degree, top degree down, on the
nonzeros of d, each basis change applied wherever that basis is used (the
differentials in and out, P kept as column dicts, P^-1 as row dicts).  A
sparse recomposition checks every decomposition.  Over Z_(p) the same
decomposition later drives the Bockstein pages, so torsion bookkeeping
happens exactly once; over F_p every piece has exponent 0, so the free
pieces are a homology basis.

Sparse elements meet matrix blocks only here: a `GradedBasis` knows each
degree's keys (PBW monomials, Γ words, names) and their positions, and a
`GradedMap` keeps each block dense (`blocks`) and as column dicts of its
nonzeros (`sparse_columns`), reads an element's image off those columns
(`image`) and is built from the images of basis keys (`set_columns`).
`check_square_zero` multiplies block nonzeros and names the first entry of
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
    are their own names by default).  Each degree keeps a key -> position
    dict, so elements (sparse dicts key -> scalar) and coordinate vectors
    convert here and nowhere else.
    """

    def __init__(self, keys_by_degree: dict, n_max: int, name=None):
        self.n_max = n_max
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
            self._names[n] = [k if name is None else name(k) for k in keys]

    def dim(self, n: int) -> int:
        return len(self._keys.get(n, []))

    def names(self, n: int) -> list:
        return list(self._names.get(n, []))

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

    def to_vector(self, n: int, elem: dict, ring) -> list:
        """Coordinates in degree n of a sparse element; zero terms skipped."""
        vec = [ring.zero] * self.dim(n)
        for key, c in elem.items():
            if not ring.is_zero(c):
                vec[self.index(n, key)] = c
        return vec

    def from_vector(self, n: int, vec, ring) -> dict:
        return {k: c for k, c in zip(self.keys(n), vec) if not ring.is_zero(c)}

    def __eq__(self, other):
        return (isinstance(other, GradedBasis) and self.n_max == other.n_max
                and self._names == other._names)

    def __repr__(self):
        return f"GradedBasis({dict(self._names)}, n_max={self.n_max})"


class GradedMap:
    """Degree-d linear map between graded bases; per-degree matrix blocks.

    The block at degree n is a dim(target, n+d) x dim(source, n) matrix;
    missing blocks are zero.  Blocks are set through `set_block` and
    `set_columns` only: each block's nonzeros are also kept as column dicts
    (`sparse_columns`), which `image` and the sparse kernels read; they come
    with the block from `set_columns`, and from a scan of the block on the
    first read otherwise.
    """

    def __init__(self, source: GradedBasis, target: GradedBasis, degree: int,
                 ring, blocks: dict | None = None):
        self.source = source
        self.target = target
        self.degree = degree
        self.ring = ring
        self.blocks = {}
        self._columns = {}      # n -> the block as column dicts, once read
        if blocks:
            for n, m in blocks.items():
                self.set_block(n, m)

    def set_block(self, n: int, m: Matrix):
        if m.rows != self.target.dim(n + self.degree) or m.cols != self.source.dim(n):
            raise ComplexError(
                f"block at degree {n} has shape {m.rows}x{m.cols}, expected "
                f"{self.target.dim(n + self.degree)}x{self.source.dim(n)}")
        self._columns.pop(n, None)
        if not m.is_zero():
            self.blocks[n] = m

    def set_columns(self, n: int, elems: list):
        """Set the block at degree n from its columns, sparse elements of
        the target in degree n + deg; an all-zero block stays unset.  The
        column dicts are kept, so `sparse_columns` need not scan the block."""
        if not any(elems):
            return
        m, is_zero = n + self.degree, self.ring.is_zero
        cols = []
        for elem in elems:
            col = {self.target.index(m, key): c for key, c in elem.items()}
            cols.append({i: col[i] for i in sorted(col)
                         if not is_zero(col[i])})
        self.set_block(n, Matrix.from_sparse_columns(
            self.ring, self.target.dim(m), cols))
        if n in self.blocks:
            self._columns[n] = cols

    def block(self, n: int) -> Matrix:
        if n in self.blocks:
            return self.blocks[n]
        return Matrix.zeros(self.ring, self.target.dim(n + self.degree),
                            self.source.dim(n))

    def sparse_columns(self, n: int) -> list:
        """The block at degree n as column dicts (row -> nonzero entry, in
        row order); kept after the first call, so do not mutate."""
        cols = self._columns.get(n)
        if cols is None:
            cols = (self.blocks[n].sparse_columns() if n in self.blocks
                    else [{} for _ in range(self.source.dim(n))])
            self._columns[n] = cols
        return cols

    def image(self, n: int, elem: dict) -> dict:
        """f of a sparse element of source degree n, as a sparse element of
        the target: the sum of the block columns of its keys."""
        ring, is_zero = self.ring, self.ring.is_zero
        cols = [(self.source.index(n, key), c) for key, c in elem.items()
                if not is_zero(c)]
        out = {}
        if n in self.blocks:
            keys = self.target.keys(n + self.degree)
            block = self.sparse_columns(n)
            for j, c in cols:
                accumulate(ring, out, {keys[i]: x
                                       for i, x in block[j].items()}, c)
        return out

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self ∘ other."""
        if other.target is not self.source and other.target != self.source:
            raise ComplexError("composition source/target mismatch")
        out = GradedMap(other.source, self.target, self.degree + other.degree,
                        self.ring)
        for n in range(other.source.n_max + 1):
            mid = n + other.degree
            if mid < 0 or mid + self.degree < 0:
                continue
            if mid > self.source.n_max or n + out.degree > self.target.n_max:
                continue
            out.set_block(n, self.block(mid) * other.block(n))
        return out

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if self.degree != other.degree:
            raise ComplexError("cannot add maps of different degrees")
        out = GradedMap(self.source, self.target, self.degree, self.ring)
        for n in set(self.blocks) | set(other.blocks):
            out.set_block(n, self.block(n) + other.block(n))
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedMap) or self.degree != other.degree:
            return False
        for n in set(self.blocks) | set(other.blocks):
            if self.block(n).a != other.block(n).a:
                return False
        return True

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def apply(self, n: int, vec):
        return self.block(n).apply(vec)

    def reduce_mod_p(self) -> "GradedMap":
        fp = self.ring.residue_field()
        out = GradedMap(self.source, self.target, self.degree, fp)
        for n, m in self.blocks.items():
            out.set_block(n, m.reduce_mod_p())
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
    for n, m in f.blocks.items():
        mt = m.transpose()
        if (f.degree * n) % 2 == 1:
            mt = mt.scaled(ring.neg(ring.one))
        out.set_block(n + f.degree, mt)
    return out


def _times(ring, A: list, col: dict) -> dict:
    """A·col for A a list of column dicts and col a sparse column."""
    out = {}
    for k, x in col.items():
        accumulate(ring, out, A[k], x)
    return out


def check_square_zero(d: GradedMap):
    """Raise ComplexError unless d∘d = 0, naming the first entry that is not
    zero: least source degree, then basis order of source and target.
    Multiplies the nonzeros of the blocks' columns."""
    for n in sorted(d.blocks):
        if n + d.degree not in d.blocks:
            continue
        outer = d.sparse_columns(n + d.degree)
        for j, col in enumerate(d.sparse_columns(n)):
            dd = _times(d.ring, outer, col)
            if dd:
                i = min(dd)
                raise ComplexError(
                    f"d∘d ≠ 0 at degree {n}: d(d({d.source.names(n)[j]})) "
                    f"has coefficient {dd[i]} on "
                    f"{d.target.names(n + 2 * d.degree)[i]}")


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
    complex: GradedChainComplex
    pieces: list
    P: dict = field(default_factory=dict)       # n -> columns (dicts) of the
    Pinv: dict = field(default_factory=dict)    # new basis; n -> rows of P^-1

    def representative(self, n: int, index: int):
        """Chain in original coordinates for new-basis vector (n, index)."""
        vec = [self.complex.ring.zero] * self.complex.dim(n)
        for i, x in self.P[n][index].items():
            vec[i] = x
        return vec

    def coordinates(self, n: int, vec):
        """Coordinates of an original-basis chain in the new basis."""
        ring = self.complex.ring
        add, mul, is_zero = ring.add, ring.mul, ring.is_zero
        out = []
        for row in self.Pinv[n]:
            s = ring.zero
            for k, x in row.items():
                if not is_zero(vec[k]):
                    s = add(s, mul(x, vec[k]))
            out.append(s)
        return out

    def basis_coordinates(self, n: int, j: int):
        """Coordinates in the new basis of original basis vector j of degree
        n: column j of P^-1."""
        zero = self.complex.ring.zero
        return [row.get(j, zero) for row in self.Pinv[n]]


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
    piece has exponent 0.
    """
    ring = C.ring
    n_max = C.n_max
    cur = {n: [dict(col) for col in C.d.sparse_columns(n)]  # d_0: no rows
           for n in range(n_max + 1)}
    P = {n: unit_vectors(ring, C.dim(n)) for n in range(n_max + 1)}
    Pinv = {n: unit_vectors(ring, C.dim(n)) for n in range(n_max + 1)}
    pieces = []
    hit = 0          # basis vectors 0..hit-1 of degree n are hit from above
    for n in range(n_max, -1, -1):
        free_cols = list(range(hit, C.dim(n)))
        exponents = []
        if n > 0:
            rows = BasisChange(ring, out=[P[n - 1], cur[n - 1]],
                               into=[Pinv[n - 1]])
            cols = BasisChange(ring, out=[P[n]], into=[Pinv[n]])
            exponents = eliminate(ring, cur[n], C.dim(n - 1), rows, cols,
                                  free_cols)
        for i, k in enumerate(exponents):
            pieces.append(Piece("elementary", n, free_cols[i], k, i))
        for j in free_cols[len(exponents):]:
            pieces.append(Piece("free", n, j))
        hit = len(exponents)

    dec = Decomposition(C, pieces, P, Pinv)
    _verify_decomposition(dec)
    return dec


def _verify_decomposition(dec: Decomposition):
    """Recompose: P^-1[n]·P[n] = 1 and d_n·P[n] = P[n-1]·D_n, D_n the
    canonical piece matrix, so that P^-1·d·P = D in every degree.  Column
    by column on nonzeros."""
    C = dec.complex
    ring, one = C.ring, C.ring.one
    want = {}            # (n, top index) -> d of the new basis vector
    for pc in dec.pieces:
        if pc.kind == "elementary":
            n, pk = pc.top_degree, ring.of(ring.p ** pc.exponent)
            want[n, pc.top_index] = {
                i: ring.mul(pk, x)
                for i, x in dec.P[n - 1][pc.bottom_index].items()}
    for n in range(C.n_max + 1):
        inv_cols = _transpose(dec.Pinv[n], C.dim(n))
        d = C.d.sparse_columns(n)
        for j, col in enumerate(dec.P[n]):
            if (_times(ring, inv_cols, col) != {j: one}
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
            d = GradedMap(basis, basis, -1, self.ring,
                          {N - n: m for n, m in d.blocks.items() if n < N})
        self._dec = decompose(GradedChainComplex(basis, d, self.ring))
        self._free = {}        # chain degree -> free piece indices, in order
        for pc in self._dec.pieces:
            if pc.kind == "free":
                self._free.setdefault(pc.top_degree, []).append(pc.top_index)

    def _m(self, n: int) -> int:
        """Chain degree of degree n: n itself, or N - n for a cochain d."""
        return n if self.d.degree == -1 else self.basis.n_max - n

    def dim(self, n: int) -> int:
        return len(self._free.get(self._m(n), []))

    def class_of(self, n: int, vec):
        """Homology coordinates of a cycle; raises if not a cycle."""
        ring = self.ring
        if any(not ring.is_zero(x) for x in self.d.block(n).apply(vec)):
            raise ComplexError("not a cycle")
        m = self._m(n)
        w = self._dec.coordinates(m, vec)
        return [w[j] for j in self._free.get(m, [])]

    def representative(self, n: int, h_index: int):
        m = self._m(n)
        return self._dec.representative(m, self._free[m][h_index])


def induced_map(f: GradedMap, H_src: FieldHomology, H_tgt: FieldHomology,
                window: int) -> dict:
    """Per-degree matrices of H(f) in degrees ≤ window; f must be a (co)chain
    map there."""
    ring = f.ring
    out = {}
    for n in range(window + 1):
        if not (0 <= n + f.degree <= H_tgt.basis.n_max):
            continue
        cols = []
        for j in range(H_src.dim(n)):
            rep = H_src.representative(n, j)
            img = f.apply(n, rep)
            cols.append(H_tgt.class_of(n + f.degree, img))
        out[n] = Matrix.from_columns(ring, H_tgt.dim(n + f.degree), cols) \
            if cols else Matrix.zeros(ring, H_tgt.dim(n + f.degree), 0)
    return out
