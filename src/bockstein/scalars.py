"""Exact arithmetic in Z_(p) and F_p, dense matrices, one sparse elimination.

Z_(p) elements are `fractions.Fraction`s whose denominator is coprime to p;
F_p elements are ints in [0, p).  A ring object supplies the arithmetic so
matrix code is ring-agnostic.  Everything is exact: no floats anywhere.

Smith forms come from one in-place elimination, `eliminate`, on a matrix
kept as synced row and column dicts of its nonzeros.  Its row and column
operations are elementary basis changes (`BasisChange`), each applied to
every matrix that uses the basis: as column dicts where the basis indexes
columns (P), as row dicts where it indexes rows (P^-1).  Each step costs the
nonzeros it touches.  `Matrix.snf` converts a dense matrix in and U, V and
their inverses out; `graded.decompose` tracks the complex's own basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


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


@dataclass(frozen=True)
class ZpLocal:
    """The integers localized at the odd prime p: fractions a/b with p∤b."""

    p: int
    is_field = False
    tag = "Z_(p)"

    def __post_init__(self):
        _check_prime(self.p)

    def of(self, x) -> Fraction:
        if isinstance(x, str):
            x = Fraction(x)
        f = Fraction(x)
        if f.denominator % self.p == 0:
            raise RingError(
                f"denominator of {f} is divisible by p={self.p}: not in Z_(p)")
        return f

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        # ints and Fractions both carry .numerator; this skips the slow
        # Fraction.__eq__ dispatch on the hottest call in the library
        return a.numerator == 0

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
        return a != 0 and self.valuation(a) == 0

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a} is not a unit in Z_({self.p})")
        return 1 / a

    def div(self, a, b):
        """Exact quotient a/b; raises if the quotient leaves Z_(p)."""
        if b == 0:
            raise ZeroDivisionError
        q = a / b
        return self.of(q)

    def divides(self, b, a) -> bool:
        """Whether b | a in Z_(p)."""
        if a == 0:
            return True
        if b == 0:
            return False
        return (a / b).denominator % self.p != 0

    def unit_part(self, a):
        """Write a = unit * p^v and return the unit."""
        return a / Fraction(self.p) ** self.valuation(a)

    def reduce_mod_p(self, a) -> int:
        """Image in F_p."""
        num = a.numerator % self.p
        den = a.denominator % self.p
        return (num * pow(den, self.p - 2, self.p)) % self.p

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

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

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

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scaled(self.ring.neg(self.ring.one))

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
        """Image of a Z_(p) matrix in F_p."""
        if self.ring.is_field:
            return self.copy()
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
                y[i] = ub[i] / piv
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
    Mutates and returns acc; terms may hold ints or ring elements.
    """
    if not terms or ring.is_zero(coeff):
        return acc
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    for k, c in terms.items():
        v = acc.get(k)
        v = mul(coeff, c) if v is None else add(v, mul(coeff, c))
        if is_zero(v):
            acc.pop(k, None)
        else:
            acc[k] = v
    return acc


class BasisChange:
    """Elementary changes of one basis, applied wherever that basis is used.

    `out` holds the matrices whose columns are indexed by the basis (maps out
    of the space, such as P, the new basis in old coordinates), each stored
    as its list of column dicts; `into` those whose rows are (maps into it,
    such as P^-1), each stored as its list of row dicts.  Each operation acts
    on the columns of every `out` matrix and, inverted, on the rows of every
    `into` matrix, so every product out·into of the basis is unchanged.  An
    operation costs the nonzeros of the vectors it reads.
    """

    def __init__(self, ring, out=(), into=()):
        self.ring = ring
        self.out = list(out)
        self.into = list(into)

    def swap(self, i: int, j: int):
        """e_i <-> e_j."""
        for M in self.out + self.into:
            M[i], M[j] = M[j], M[i]

    def scale(self, i: int, c):
        """e_i -> c·e_i, c a unit."""
        mul = self.ring.mul
        for M in self.out:
            M[i] = {k: mul(x, c) for k, x in M[i].items()}
        cinv = self.ring.inv(c)
        for M in self.into:
            M[i] = {k: mul(cinv, x) for k, x in M[i].items()}

    def add(self, j: int, i: int, c):
        """e_j -> e_j + c·e_i, i ≠ j."""
        ring = self.ring
        for M in self.out:
            accumulate(ring, M[j], M[i], c)
        negc = ring.neg(c)
        for M in self.into:
            accumulate(ring, M[i], M[j], negc)


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
    moves it to (t, col_order[t]), scales it to a pure power of p (skipped
    when the factor is 1) and clears its column, then its row.  Row
    operations are changes of the target basis (`rows`) and column
    operations changes of the source basis (`cols`); S itself is updated
    here, not through either.  Columns outside col_order must be zero.
    """
    is_zero, sub, mul, div, neg = (ring.is_zero, ring.sub, ring.mul,
                                   ring.div, ring.neg)
    valuation = ring.valuation
    C = S
    R = [{} for _ in range(n_rows)]
    for j, col in enumerate(C):
        for i, x in col.items():
            R[i][j] = x
    col_order = list(col_order)
    pos = {j: k for k, j in enumerate(col_order)}
    least = {}      # row -> its least (valuation, position), None if empty;
    exponents = []  # dropped whenever the row changes
    for t in range(min(n_rows, len(col_order))):
        # rows t.. hold entries only in columns col_order[t:]
        best = None
        for i in range(t, n_rows):
            if i not in least:
                least[i] = min(((valuation(x), pos[j])
                                for j, x in R[i].items()), default=None)
            m = least[i]
            if m is not None and (best is None or m[0] < best[0]):
                best = (m[0], i, m[1])
                if m[0] == 0:
                    break
        if best is None:
            break
        v, pi, k = best
        ct = col_order[t]
        if pi != t:
            rows.swap(t, pi)
            _swap_lines(R, C, t, pi)
            least.pop(pi, None)
        if col_order[k] != ct:
            cols.swap(ct, col_order[k])
            _swap_lines(C, R, ct, col_order[k])
            for i in C[ct].keys() | C[col_order[k]].keys():
                least.pop(i, None)
        u = ring.unit_part(R[t][ct])
        if u != 1:
            rows.scale(t, u)
            uinv = ring.inv(u)
            R[t] = {j: mul(uinv, x) for j, x in R[t].items()}
            for j, x in R[t].items():
                C[j][t] = x
        Rt = R[t]
        piv = Rt[ct]
        for i in sorted(C[ct]):
            if i == t:
                continue
            c = div(C[ct][i], piv)
            rows.add(t, i, c)
            least.pop(i, None)
            Ri = R[i]
            for j, y in Rt.items():       # row i -= c·row t
                x = Ri.get(j)
                x = neg(mul(c, y)) if x is None else sub(x, mul(c, y))
                if is_zero(x):
                    del Ri[j]
                    del C[j][i]
                else:
                    Ri[j] = C[j][i] = x
        for j in sorted((j for j in Rt if j != ct), key=pos.__getitem__):
            # column ct is piv·e_t now, so column j += c·column ct only
            # cancels the entry (t, j)
            cols.add(j, ct, neg(div(Rt.pop(j), piv)))
            del C[j][t]
        exponents.append(v)
    return exponents
