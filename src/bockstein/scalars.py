"""Exact arithmetic in Z_(p) and F_p, dense matrices, one sparse elimination.

Z_(p) elements are ints when integral and otherwise `fractions.Fraction`s
whose denominator is coprime to p; F_p elements are ints in [0, p).  A ring
object supplies the arithmetic so matrix code is ring-agnostic.  Everything
is exact: no floats anywhere, and no `/` between two ints.

A sparse vector is a dict key -> nonzero scalar, and `accumulate`
(acc += c·terms) is the one loop that adds them: it inlines the ring's
arithmetic and keeps the ring's forms, so every sparse sum in the library
and every row and basis update of the elimination goes through it.

Smith forms come from one in-place elimination, `eliminate`, on a matrix
kept as synced row and column dicts of its nonzeros.  Its row and column
operations are elementary basis changes (`BasisChange`), each applied to
every matrix that uses the basis: as column dicts where the basis indexes
columns (P), as row dicts where it indexes rows (P^-1).  Each step costs the
nonzeros it touches, and its pivot comes off a heap of the rows' least
entries.  `Matrix.snf` converts a dense matrix in and U, V and
their inverses out, all exact; `graded.decompose` tracks the complex's own
basis and keeps P^-1 over F_p, as only its residue is read, so P^-1 costs
int arithmetic mod p and no Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush


class RingError(ValueError):
    """Wrong ring, bad prime, or an element outside the ring."""


class DimensionError(ValueError):
    """Incompatible matrix/vector shapes."""


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise RingError(f"{p} is not an odd prime")


def _integral(r):
    """r as an int when it is integral; r is an int or a Fraction."""
    if r.__class__ is int or r.denominator != 1:
        return r
    return r.numerator


@dataclass(frozen=True)
class ZpLocal:
    """The integers localized at the odd prime p: fractions a/b with p∤b.

    An element is an `int` when it is integral and otherwise a `Fraction`
    whose denominator is prime to p; every method returns that form.  On
    the hot path nearly every entry is an integer, so sums and products stay
    in int arithmetic, and a `Fraction` is made only for a true quotient.
    `/` is never applied to two ints, since that would give a float.
    """

    p: int
    is_field = False
    tag = "Z_(p)"

    def __post_init__(self):
        _check_prime(self.p)

    def of(self, x):
        if x.__class__ is int:
            return x
        f = Fraction(x)
        if f.denominator % self.p == 0:
            raise RingError(
                f"denominator of {f} is divisible by p={self.p}: not in Z_(p)")
        return _integral(f)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a, b):
        r = a + b
        return r if r.__class__ is int else _integral(r)

    def sub(self, a, b):
        r = a - b
        return r if r.__class__ is int else _integral(r)

    def mul(self, a, b):
        r = a * b
        return r if r.__class__ is int else _integral(r)

    def neg(self, a):
        r = -a
        return r if r.__class__ is int else _integral(r)

    def is_zero(self, a) -> bool:
        # truth of an int is one C test; this skips the slow
        # Fraction.__eq__ dispatch on the hottest call in the library
        return not a

    def valuation(self, a) -> int:
        """p-adic valuation; raises on zero (v(0) = +inf)."""
        n = a.numerator
        if n == 0:
            raise ZeroDivisionError("valuation of zero is undefined")
        v = 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        return v

    def is_unit(self, a) -> bool:
        return a.numerator % self.p != 0

    def inv(self, a):
        if a.numerator % self.p == 0:
            raise RingError(f"{a} is not a unit in Z_({self.p})")
        return self.div(1, a)

    def div(self, a, b):
        """Exact quotient a/b; raises if the quotient leaves Z_(p)."""
        if b == 0:
            raise ZeroDivisionError
        if a.__class__ is int and b.__class__ is int:
            if a % b == 0:
                return a // b
            f = Fraction(a, b)
        else:
            f = a / b      # a Fraction, since one operand is
        if f.denominator % self.p == 0:
            raise RingError(
                f"denominator of {f} is divisible by p={self.p}: not in Z_(p)")
        return _integral(f)

    def divides(self, b, a) -> bool:
        """Whether b | a in Z_(p): v(b) <= v(a)."""
        if a == 0:
            return True
        if b == 0:
            return False
        return self.valuation(b) <= self.valuation(a)

    def unit_part(self, a):
        """Write a = unit * p^v and return the unit."""
        return self.div(a, self.p ** self.valuation(a))

    def reduce_mod_p(self, a) -> int:
        """Image in F_p."""
        p = self.p
        if a.__class__ is int:
            return a % p
        return a.numerator * pow(a.denominator, p - 2, p) % p

    def residue_field(self) -> "PrimeField":
        return PrimeField(self.p)


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p, p an odd prime; elements are ints in [0, p)."""

    p: int
    is_field = True
    tag = "F_p"

    def __post_init__(self):
        _check_prime(self.p)

    def of(self, x) -> int:
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise RingError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, self.p - 2, self.p)) % self.p
        return int(x) % self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise RingError("division by zero in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def divides(self, b, a) -> bool:
        return b % self.p != 0 or a % self.p == 0

    def valuation(self, a) -> int:
        """0 on every nonzero element; raises on zero, like ZpLocal."""
        if a % self.p == 0:
            raise ZeroDivisionError("valuation of zero is undefined")
        return 0

    def unit_part(self, a):
        return a

    def reduce_mod_p(self, a) -> int:
        """a in [0, p): F_p is its own residue field."""
        return a % self.p

    def residue_field(self) -> "PrimeField":
        return self


class Matrix:
    """Dense exact matrix over ZpLocal or PrimeField."""

    def __init__(self, ring, rows: int, cols: int, entries=None):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.a = [[ring.zero] * cols for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise DimensionError("entry grid does not match shape")
            self.a = [[ring.of(x) for x in row] for row in entries]

    # -- construction helpers -------------------------------------------

    @classmethod
    def identity(cls, ring, n: int) -> "Matrix":
        m = cls(ring, n, n)
        for i in range(n):
            m.a[i][i] = ring.one
        return m

    @classmethod
    def zeros(cls, ring, rows: int, cols: int) -> "Matrix":
        return cls(ring, rows, cols)

    @classmethod
    def from_columns(cls, ring, rows: int, columns) -> "Matrix":
        m = cls(ring, rows, len(columns))
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise DimensionError("column length mismatch")
            for i in range(rows):
                m.a[i][j] = ring.of(col[i])
        return m

    def copy(self) -> "Matrix":
        m = Matrix(self.ring, self.rows, self.cols)
        m.a = [row[:] for row in self.a]
        return m

    def column(self, j: int):
        return [self.a[i][j] for i in range(self.rows)]

    def sparse_columns(self) -> list:
        """The columns as dicts row -> nonzero entry."""
        is_zero = self.ring.is_zero
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.a):
            for j, x in enumerate(row):
                if not is_zero(x):
                    cols[j][i] = x
        return cols

    @classmethod
    def from_sparse_columns(cls, ring, rows: int, columns) -> "Matrix":
        m = cls(ring, rows, len(columns))
        for j, col in enumerate(columns):
            for i, x in col.items():
                m.a[i][j] = x
        return m

    # -- algebra ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.a == other.a)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ring = self.ring
        is_zero, add, mul = ring.is_zero, ring.add, ring.mul
        r = Matrix(ring, self.rows, other.cols)
        for i in range(self.rows):
            ai = self.a[i]
            ri = r.a[i]
            for k in range(self.cols):
                c = ai[k]
                if is_zero(c):
                    continue
                bk = other.a[k]
                for j in range(other.cols):
                    if not is_zero(bk[j]):
                        ri[j] = add(ri[j], mul(c, bk[j]))
        return r

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        r = self.copy()
        for i in range(self.rows):
            for j in range(self.cols):
                r.a[i][j] = self.ring.add(r.a[i][j], other.a[i][j])
        return r

    def scaled(self, c) -> "Matrix":
        r = self.copy()
        for i in range(self.rows):
            for j in range(self.cols):
                r.a[i][j] = self.ring.mul(c, r.a[i][j])
        return r

    def transpose(self) -> "Matrix":
        r = Matrix(self.ring, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                r.a[j][i] = self.a[i][j]
        return r

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(x) for row in self.a for x in row)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        ring = self.ring
        is_zero, add, mul = ring.is_zero, ring.add, ring.mul
        out = [ring.zero] * self.rows
        for k, c in enumerate(vec):
            if is_zero(c):
                continue
            for i in range(self.rows):
                x = self.a[i][k]
                if not is_zero(x):
                    out[i] = add(out[i], mul(x, c))
        return out

    def reduce_mod_p(self) -> "Matrix":
        """Image of a Z_(p) matrix in F_p (a copy of an F_p matrix)."""
        fp = self.ring.residue_field()
        m = Matrix(fp, self.rows, self.cols)
        m.a = [[self.ring.reduce_mod_p(x) for x in row] for row in self.a]
        return m

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.a)
        return f"Matrix({self.ring.tag}, {self.rows}x{self.cols}: {body})"

    # -- field elimination -------------------------------------------------

    def rref(self):
        """Row-reduce over a field; returns (R, pivot_columns)."""
        if not self.ring.is_field:
            raise RingError("rref requires a field")
        R = self.copy()
        ring = self.ring
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, self.rows)
                       if not ring.is_zero(R.a[i][c])), None)
            if pr is None:
                continue
            R.a[r], R.a[pr] = R.a[pr], R.a[r]
            inv = ring.inv(R.a[r][c])
            R.a[r] = [ring.mul(inv, x) for x in R.a[r]]
            for i in range(self.rows):
                if i != r and not ring.is_zero(R.a[i][c]):
                    f = R.a[i][c]
                    R.a[i] = [ring.sub(x, ring.mul(f, y))
                              for x, y in zip(R.a[i], R.a[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return R, pivots

    def rank(self) -> int:
        return len(self.snf().invariant_exponents)

    def inverse(self) -> "Matrix":
        """V*U from the SNF U*A*V = I; RingError unless every exponent is 0."""
        if self.rows != self.cols:
            raise DimensionError("only square matrices invert")
        res = self.snf()
        if res.invariant_exponents != [0] * self.rows:
            raise RingError("matrix is not invertible over the ring")
        return res.V * res.U

    # -- Smith normal form over Z_(p) or F_p ---------------------------------

    def snf(self) -> "SnfResult":
        """U*A*V = S diagonal with entries p^{k_1} | p^{k_2} | ... then zeros.

        One run of `eliminate` on the columns of A: each row operation is a
        basis change of the target, applied to U (rows) and U^-1 (columns);
        each column operation one of the source, applied to V (columns) and
        V^-1 (rows).  Over F_p every nonzero entry is a unit, so all
        exponents are 0 and S = diag(1, ..., 1, 0, ...): a rank
        factorization.
        """
        ring = self.ring
        S = self.sparse_columns()
        U, Uinv = unit_vectors(ring, self.rows), unit_vectors(ring, self.rows)
        V, Vinv = unit_vectors(ring, self.cols), unit_vectors(ring, self.cols)
        exponents = eliminate(ring, S, self.rows,
                              BasisChange(ring, out=[Uinv], into=[U]),
                              BasisChange(ring, out=[V], into=[Vinv]),
                              range(self.cols))
        # a list of row dicts is the column dicts of the transpose
        return SnfResult(
            U=Matrix.from_sparse_columns(ring, self.rows, U).transpose(),
            S=Matrix.from_sparse_columns(ring, self.rows, S),
            V=Matrix.from_sparse_columns(ring, self.cols, V),
            Uinv=Matrix.from_sparse_columns(ring, self.rows, Uinv),
            Vinv=Matrix.from_sparse_columns(ring, self.cols, Vinv).transpose(),
            invariant_exponents=exponents)

    # -- kernels and solving -------------------------------------------------

    def kernel_basis(self):
        """Basis of ker A as column vectors; saturated over Z_(p)."""
        if self.ring.is_field:
            R, pivots = self.rref()
            free = [j for j in range(self.cols) if j not in pivots]
            basis = []
            for j in free:
                v = [self.ring.zero] * self.cols
                v[j] = self.ring.one
                for r, pc in enumerate(pivots):
                    v[pc] = self.ring.neg(R.a[r][j])
                basis.append(v)
            return basis
        res = self.snf()
        rank = len(res.invariant_exponents)
        return [res.V.column(j) for j in range(rank, self.cols)]

    def solve(self, b):
        """Exact solution x of A x = b, or None when b is not in the image."""
        if len(b) != self.rows:
            raise DimensionError("right-hand side length mismatch")
        ring = self.ring
        b = [ring.of(x) for x in b]
        if ring.is_field:
            aug = Matrix(ring, self.rows, self.cols + 1)
            for i in range(self.rows):
                aug.a[i][:self.cols] = self.a[i][:]
                aug.a[i][self.cols] = b[i]
            R, pivots = aug.rref()
            if self.cols in pivots:
                return None
            x = [ring.zero] * self.cols
            for r, pc in enumerate(pivots):
                x[pc] = R.a[r][self.cols]
            return x
        res = self.snf()
        rank = len(res.invariant_exponents)
        ub = res.U.apply(b)
        y = [ring.zero] * self.cols
        for i in range(self.rows):
            if i < rank:
                piv = res.S.a[i][i]
                if not ring.divides(piv, ub[i]):
                    return None
                y[i] = ring.div(ub[i], piv)
            elif not ring.is_zero(ub[i]):
                return None
        return res.V.apply(y)


@dataclass
class SnfResult:
    """U*A*V = S with U, V invertible and S = diag(p^{k_i}, ..., 0); over F_p
    every k_i is 0."""

    U: Matrix
    S: Matrix
    V: Matrix
    Uinv: Matrix
    Vinv: Matrix
    invariant_exponents: list = field(default_factory=list)


def unit_vectors(ring, n: int) -> list:
    """The identity as n unit vectors: its columns, or equally its rows."""
    one = ring.one
    return [{i: one} for i in range(n)]


def accumulate(ring, acc: dict, terms: dict, coeff) -> dict:
    """acc += coeff · terms on sparse vectors (dicts key -> scalar).

    Entries that cancel are removed, so a zero vector is the empty dict.
    Mutates and returns acc; terms may hold ints or ring elements (over
    F_p, ints of any size and sign), and over F_p coeff may also be a
    Z_(p) quotient, read mod p.  The ring's arithmetic is inlined, as this
    is the inner loop of every sparse sum and of `eliminate`; each entry
    written is in the ring's form: over Z_(p) an int when integral, over
    F_p an int in [0, p).
    """
    if not terms:
        return acc
    get = acc.get
    if ring.is_field:
        p = ring.p
        if coeff.__class__ is not int:
            coeff = coeff.numerator * pow(coeff.denominator, p - 2, p)
        coeff %= p
        if not coeff:
            return acc
        for k, c in terms.items():
            v = (get(k, 0) + coeff * c) % p
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
        return acc
    if not coeff:
        return acc
    for k, c in terms.items():
        v = get(k, 0) + coeff * c
        if v.__class__ is not int:
            v = _integral(v)
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


class FpSpan:
    """Span of sparse F_p columns (dicts row -> int), added one at a time.

    An independent column is kept reduced and scaled to 1 at its least row,
    its pivot, with its expression in the columns added so far.  Reduction
    clears the least row while it is a pivot, so a step costs the nonzeros
    it touches.
    """

    def __init__(self, p: int, columns=()):
        self.p, self.added, self._pivots = p, 0, {}
        for col in columns:
            self.add(col)

    def _reduce(self, vec: dict):
        """(residue, c) with vec = residue + Σ c[k]·column k; the residue is
        empty or its least row is no pivot."""
        p, pivots = self.p, self._pivots
        res = {i: x % p for i, x in vec.items() if x % p}
        combo = {}
        heap = sorted(res)
        while heap:
            i = heappop(heap)
            if i not in res:
                continue
            if i not in pivots:
                break
            x, (col, comb) = res[i], pivots[i]
            for k, y in col.items():
                if k not in res:
                    heappush(heap, k)
                res[k] = (res.get(k, 0) - x * y) % p
                if not res[k]:
                    del res[k]
            for k, y in comb.items():
                combo[k] = (combo.get(k, 0) + x * y) % p
        return res, combo

    def add(self, col: dict):
        """Add the next column j.  Returns None when it is independent of
        the columns before it, else the kernel vector e_j - Σ c_k·e_k that
        writes it in the earlier independent ones: being unique, these are
        the vectors of the reduced-echelon kernel basis
        (`Matrix.kernel_basis`) of the columns added."""
        p, j = self.p, self.added
        self.added += 1
        res, combo = self._reduce(col)
        rel = {k: -x % p for k, x in combo.items() if x}
        rel[j] = 1
        if not res:
            return rel
        piv = min(res)
        s = pow(res[piv], p - 2, p)
        self._pivots[piv] = ({k: x * s % p for k, x in res.items()},
                             {k: x * s % p for k, x in rel.items()})
        return None

    def __contains__(self, vec: dict) -> bool:
        return not self._reduce(vec)[0]


def fp_kernel(p: int, columns) -> list:
    """Kernel of the F_p matrix with these sparse columns, as dicts: the
    basis `Matrix.kernel_basis` gives, one vector per dependent column."""
    span = FpSpan(p)
    return [v for v in map(span.add, columns) if v is not None]


class BasisChange:
    """Elementary changes of one basis, applied wherever that basis is used.

    `out` holds the matrices whose columns are indexed by the basis (maps out
    of the space, such as P, the new basis in old coordinates), each stored
    as its list of column dicts; `into` those whose rows are (maps into it,
    such as P^-1), each stored as its list of row dicts.  Each operation acts
    on the columns of every `out` matrix and, inverted, on the rows of every
    `into` matrix, so every product out·into of the basis is unchanged.  An
    operation costs the nonzeros of the vectors it reads.

    `into_ring` is the ring of the `into` matrices: by default the ring
    itself, or its residue field F_p when only their image mod p is read
    (`graded.decompose`); the products out·into are then 1 mod p.  A swap
    is its own inverse, so `swap` exchanges the two vectors in every matrix,
    `out` and `into` alike.
    """

    def __init__(self, ring, out=(), into=(), into_ring=None):
        self.ring = ring
        self.out = list(out)
        self.into = list(into)
        self.into_ring = ring if into_ring is None else into_ring

    def swap(self, i: int, j: int):
        """e_i <-> e_j."""
        for M in self.out:
            M[i], M[j] = M[j], M[i]
        for M in self.into:
            M[i], M[j] = M[j], M[i]

    def scale(self, i: int, c):
        """e_i -> c·e_i, c a unit; `into` matrices over F_p are scaled by
        the inverse of c mod p."""
        ring, into_ring = self.ring, self.into_ring
        for M in self.out:
            M[i] = accumulate(ring, {}, M[i], c)
        cinv = into_ring.inv(c if into_ring is ring else ring.reduce_mod_p(c))
        for M in self.into:
            M[i] = accumulate(into_ring, {}, M[i], cinv)

    def add(self, j: int, i: int, c):
        """e_j -> e_j + c·e_i, i ≠ j."""
        ring = self.ring
        for M in self.out:
            accumulate(ring, M[j], M[i], c)
        negc = ring.neg(c)
        for M in self.into:
            accumulate(self.into_ring, M[i], M[j], negc)


def _swap_lines(A: list, B: list, i: int, j: int):
    """Swap lines i and j of a matrix kept both as lines A and as the
    crossing lines B (rows and columns, either way round)."""
    A[i], A[j] = A[j], A[i]
    for k in A[i].keys() | A[j].keys():
        b = B[k]
        x, y = b.pop(i, None), b.pop(j, None)
        if y is not None:
            b[i] = y
        if x is not None:
            b[j] = x


def eliminate(ring, S: list, n_rows: int, rows: BasisChange,
              cols: BasisChange, col_order) -> list:
    """Bring S to Smith form in place; returns the exponents of its pivots.

    S is a list of column dicts (row -> nonzero entry) with n_rows rows; a
    synced list of row dicts is kept beside it, so every step costs the
    nonzeros it touches.  Step t pivots on an entry of least valuation, then
    least row (from t on), then earliest position in col_order (from t on);
    moves it to (t, col_order[t]), scales its row by the inverse of its unit
    part (skipped when that is 1; the pivot becomes p^v in closed form, and
    the unit is inverted over the ring only when the row holds other
    entries) and clears its column, then its row, each only when it holds
    more than the pivot.  Row operations are changes of the target basis
    (`rows`) and column operations changes of the source basis (`cols`); S
    itself is updated here, not through either.  Columns outside col_order
    must be zero.

    The pivot is the top of a heap of (valuation, row, position) entries,
    so the heap order is the pivot rule.  Each nonempty row from t on has
    one live entry, its least (valuation, position), pushed again whenever
    that can change: when the row swap moves the row, when a column swap
    moves its least entry, when the column clear updates it.  An entry is
    stale when its row is below t or no longer holds it, and stale entries
    are popped when they reach the top, so the search costs the rows a step
    changed, not the rows left.
    """
    mul, div, neg = ring.mul, ring.div, ring.neg
    valuation = ring.valuation
    C = S
    R = [{} for _ in range(n_rows)]
    for j, col in enumerate(C):
        for i, x in col.items():
            R[i][j] = x
    col_order = list(col_order)
    pos = {j: k for k, j in enumerate(col_order)}
    live = [None] * n_rows     # row -> its live heap entry, None if empty
    heap = []

    def refresh(i):
        """Push row i's least (valuation, row, position) as its live entry."""
        Ri = R[i]
        if len(Ri) == 1:
            (j, x), = Ri.items()
            e = (valuation(x), i, pos[j])
        elif Ri:
            v, k = min((valuation(x), pos[j]) for j, x in Ri.items())
            e = (v, i, k)
        else:
            live[i] = None
            return
        live[i] = e
        heappush(heap, e)

    for i in range(n_rows):
        if R[i]:
            refresh(i)
    exponents = []
    for t in range(min(n_rows, len(col_order))):
        # rows t.. hold entries only in columns col_order[t:]
        while heap:
            e = heap[0]
            if e[1] >= t and live[e[1]] is e:
                break
            heappop(heap)
        else:
            break
        v, pi, k = e
        ct, ck = col_order[t], col_order[k]
        if pi != t:
            rows.swap(t, pi)
            _swap_lines(R, C, t, pi)
            e = live[t]         # row t's entry, moved to row pi
            if e is None:
                live[pi] = None
            else:
                live[pi] = e = (e[0], pi, e[2])
                heappush(heap, e)
        if ck != ct:
            cols.swap(ct, ck)
            _swap_lines(C, R, ct, ck)
            # column ct holds the pivot's row and the rows cleared below; in
            # the other rows an entry moved from position t to k, which
            # changes the least only if it was that entry
            for i in C[ck]:
                if i not in C[ct] and live[i][2] == t:
                    refresh(i)
        Rt, Cct = R[t], C[ct]
        u = ring.unit_part(Rt[ct])
        if u != 1:              # the pivot u·p^v becomes p^v
            uinv = ring.inv(u) if len(Rt) > 1 else None
            rows.scale(t, u)
            for j, x in Rt.items():
                Rt[j] = C[j][t] = ring.p ** v if j == ct else mul(uinv, x)
        piv = Rt[ct]
        if len(Cct) > 1:
            for i in sorted(Cct):
                if i == t:
                    continue
                c = div(Cct[i], piv)
                rows.add(t, i, c)
                Ri = accumulate(ring, R[i], Rt, neg(c))   # row i -= c·row t
                for j in Rt:
                    x = Ri.get(j)
                    if x is None:
                        C[j].pop(i, None)
                    else:
                        C[j][i] = x
                refresh(i)
        if len(Rt) > 1:
            for j in sorted((j for j in Rt if j != ct), key=pos.__getitem__):
                # column ct is piv·e_t now, so column j += c·column ct only
                # cancels the entry (t, j)
                cols.add(j, ct, neg(div(Rt.pop(j), piv)))
                del C[j][t]
        exponents.append(v)
    return exponents
