"""Exact arithmetic and matrix algebra over Z_(p) and F_p."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bockstein.scalars import (DimensionError, FpSpan, Matrix, PrimeField,
                               RingError, ZpLocal, accumulate, fp_kernel)
from oracles import bareiss_rank, dense_snf, fp_rank

Z3 = ZpLocal(3)
Z5 = ZpLocal(5)
F3 = PrimeField(3)


def _in_zp(p):
    """Ints and Fractions with a denominator prime to p, integral ones
    (such as Fraction(6, 3)) included."""
    den = st.integers(1, 40).filter(lambda d: d % p)
    return st.one_of(st.integers(-10**6, 10**6),
                     st.builds(Fraction, st.integers(-500, 500), den))


def _assert_form(x, want):
    """x equals the Fraction want, is an int exactly when integral, and is
    never a float."""
    assert isinstance(x, (int, Fraction)) and x == want
    assert isinstance(x, int) == (want.denominator == 1)


def _ref_valuation(p, q: Fraction) -> int:
    n, v = abs(q.numerator), 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


@st.composite
def zp_operands(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    return ZpLocal(p), draw(_in_zp(p)), draw(_in_zp(p))


class TestZpLocal:
    def test_rejects_bad_primes(self):
        for bad in (2, 4, 6, 9, 1, 0, -3):
            with pytest.raises(ValueError):
                ZpLocal(bad)

    def test_of_rejects_p_in_denominator(self):
        assert Z3.of(Fraction(1, 2)) == Fraction(1, 2)
        with pytest.raises(RingError):
            Z3.of(Fraction(1, 3))
        with pytest.raises(RingError):
            Z3.of(Fraction(5, 12))

    def test_valuation(self):
        assert Z3.valuation(Fraction(9, 2)) == 2
        assert Z3.valuation(Fraction(1)) == 0
        assert Z3.valuation(Fraction(6)) == 1
        with pytest.raises(ZeroDivisionError):
            Z3.valuation(Fraction(0))

    def test_units_and_inverse(self):
        assert Z3.is_unit(Fraction(2))
        assert not Z3.is_unit(Fraction(3))
        assert Z3.inv(Fraction(2)) == Fraction(1, 2)
        with pytest.raises(RingError):
            Z3.inv(Fraction(6))
        # int operands, the form every integral entry takes
        assert Z3.is_unit(-2) and not Z3.is_unit(0) and not Z3.is_unit(6)
        assert Z3.inv(-1) == -1 and type(Z3.inv(-1)) is int
        _assert_form(Z3.inv(-2), Fraction(-1, 2))
        with pytest.raises(RingError):
            Z3.inv(3)
        with pytest.raises(RingError,
                           match=r"^denominator of 1/3 is divisible by p=3: "
                                 r"not in Z_\(p\)$"):
            Z3.div(1, 3)

    def test_divides(self):
        assert Z3.divides(Fraction(3), Fraction(6))
        assert not Z3.divides(Fraction(9), Fraction(6))
        assert Z3.divides(Fraction(2), Fraction(1))   # units divide anything

    def test_unit_part(self):
        a = Fraction(18, 5)
        v = Z3.valuation(a)
        assert a == Fraction(3) ** v * Z3.unit_part(a)
        assert Z3.is_unit(Z3.unit_part(a))

    def test_reduce_mod_p(self):
        assert Z3.reduce_mod_p(Fraction(7)) == 1
        assert Z3.reduce_mod_p(Fraction(1, 2)) == 2   # 2^{-1} = 2 mod 3
        assert Z3.reduce_mod_p(Fraction(9, 4)) == 0

    def test_residue_field(self):
        fp = Z3.residue_field()
        assert isinstance(fp, PrimeField) and fp.p == 3
        # F_p is its own residue field, so code reading residues needs no
        # branch on the ring
        assert F3.residue_field() is F3
        assert [F3.reduce_mod_p(x) for x in (-4, 0, 2, 7)] == [2, 0, 2, 1]
        assert [type(Z3.reduce_mod_p(x)) for x in (-4, Fraction(1, 2))] \
            == [int, int]
        assert Z3.reduce_mod_p(-4) == 2

    @settings(max_examples=300, deadline=None)
    @given(zp_operands())
    def test_ring_operations(self, args):
        R, a, b = args
        fa, fb = Fraction(a), Fraction(b)
        _assert_form(R.of(a), fa)
        _assert_form(R.add(a, b), fa + fb)
        _assert_form(R.sub(a, b), fa - fb)
        _assert_form(R.mul(a, b), fa * fb)
        _assert_form(R.neg(a), -fa)
        assert R.is_zero(a) == (fa == 0)
        den = fa.denominator % R.p
        assert R.reduce_mod_p(a) == fa.numerator * pow(den, -1, R.p) % R.p

    @settings(max_examples=300, deadline=None)
    @given(zp_operands())
    def test_quotients(self, args):
        R, a, b = args
        fa, fb = Fraction(a), Fraction(b)
        if fb == 0:
            with pytest.raises(ZeroDivisionError):
                R.div(a, b)
        elif (fa / fb).denominator % R.p:
            _assert_form(R.div(a, b), fa / fb)
        else:
            with pytest.raises(RingError):
                R.div(a, b)
        assert R.divides(b, a) == (
            fa == 0 or (fb != 0 and (fa / fb).denominator % R.p != 0))
        if fa == 0:
            with pytest.raises(ZeroDivisionError):
                R.valuation(a)
            return
        v = _ref_valuation(R.p, fa)
        assert R.valuation(a) == v
        _assert_form(R.unit_part(a), fa / R.p ** v)
        if v == 0:
            _assert_form(R.inv(a), 1 / fa)
        else:
            with pytest.raises(RingError):
                R.inv(a)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([3, 5, 7]), st.integers(-500, 500),
           st.integers(1, 40))
    def test_p_in_denominator_raises(self, p, n, d):
        R = ZpLocal(p)
        x = Fraction(n * p + 1, d * p)     # numerator prime to p
        with pytest.raises(RingError):
            R.of(x)
        with pytest.raises(RingError):
            R.div(n * p + 1, d * p)

    def test_solve_with_non_integral_solution(self):
        m = Matrix(Z3, 2, 2, [[2, 0], [0, 3]])
        sol = m.solve([1, 6])
        _assert_form(sol[0], Fraction(1, 2))
        _assert_form(sol[1], Fraction(2))
        assert m.apply(sol) == [1, 6]
        assert Matrix(Z3, 1, 1, [[6]]).solve([1]) is None


@st.composite
def accumulate_cases(draw):
    """(ring, acc, terms, coeff): acc in the ring's form; terms ints and
    Fractions over Z_(p), ints of any size and sign over F_p; coeff 0, ±1,
    a unit or a multiple of p, and over F_p also any Z_(p) element."""
    ring = draw(st.sampled_from([Z3, Z5, F3, PrimeField(5)]))
    p = ring.p
    keys = st.integers(0, 6)
    if ring.is_field:
        value = st.integers(-3 * p, 3 * p)
        unit = st.integers(1, p - 1)
    else:
        value = _in_zp(p)
        unit = _in_zp(p).filter(lambda x: Fraction(x).numerator % p)
    acc = {k: ring.of(x)
           for k, x in draw(st.dictionaries(keys, value)).items()
           if not ring.is_zero(ring.of(x))}
    terms = draw(st.dictionaries(keys, value))
    coeffs = [st.sampled_from([0, 1, -1]), unit,
              st.integers(-5, 5).map(lambda k: k * p)]
    if ring.is_field:
        coeffs.append(_in_zp(p))
    coeff = draw(st.one_of(*coeffs))
    return ring, acc, terms, coeff


class TestAccumulate:
    @settings(max_examples=400, deadline=None)
    @given(accumulate_cases())
    def test_matches_fraction_reference(self, case):
        ring, acc, terms, coeff = case
        f = Fraction(coeff)
        if ring.is_field:       # a Z_(p) coefficient is read mod p
            f = f.numerator * pow(f.denominator, -1, ring.p)
        want = {k: Fraction(x) for k, x in acc.items()}
        for k, c in terms.items():
            want[k] = want.get(k, 0) + f * Fraction(c)
        if ring.is_field:
            want = {k: x % ring.p for k, x in want.items()}
        want = {k: x for k, x in want.items() if x}
        out = accumulate(ring, acc, terms, coeff)
        assert out is acc
        assert out.keys() == want.keys()
        for k, x in out.items():
            if ring.is_field:
                assert type(x) is int and 0 < x < ring.p and x == want[k]
            else:
                _assert_form(x, want[k])


class TestPrimeField:
    def test_arithmetic(self):
        assert F3.add(2, 2) == 1
        assert F3.mul(2, 2) == 1
        assert F3.inv(2) == 2
        with pytest.raises(RingError):
            F3.inv(0)

    def test_of_fraction(self):
        assert F3.of(Fraction(1, 2)) == 2
        with pytest.raises(RingError):
            F3.of(Fraction(1, 3))


def _rand_matrix(ring, rows, cols, rng, span=6):
    m = Matrix(ring, rows, cols)
    for i in range(rows):
        for j in range(cols):
            m.a[i][j] = ring.of(rng.randint(-span, span))
    return m


class TestMatrixBasics:
    def test_shape_mismatch(self):
        a = Matrix.identity(Z3, 2)
        b = Matrix.zeros(Z3, 3, 3)
        with pytest.raises(DimensionError):
            a * b
        with pytest.raises(DimensionError):
            a + b

    def test_mul_identity(self):
        rng = random.Random(1)
        m = _rand_matrix(Z3, 3, 4, rng)
        assert Matrix.identity(Z3, 3) * m == m
        assert m * Matrix.identity(Z3, 4) == m

    def test_inverse(self):
        for ring in (Z3, F3):
            m = Matrix(ring, 2, 2, [[1, 2], [1, 1]])
            inv = m.inverse()
            assert m * inv == Matrix.identity(ring, 2)
            assert inv * m == Matrix.identity(ring, 2)
        singular = Matrix(Z3, 2, 2, [[Fraction(3), Fraction(0)],
                                     [Fraction(0), Fraction(1)]])
        with pytest.raises(RingError):
            singular.inverse()   # det = 3 is not a unit in Z_(3)
        with pytest.raises(RingError):
            Matrix(F3, 2, 2, [[1, 2], [2, 1]]).inverse()   # det = -3 = 0
        with pytest.raises(DimensionError):
            Matrix(F3, 1, 2, [[1, 0]]).inverse()

    def test_rank_against_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            m = _rand_matrix(Z3, 5, 5, rng)
            assert m.rank() == bareiss_rank(m.a)

    def test_fp_rank_against_oracle(self):
        rng = random.Random(8)
        for _ in range(25):
            m = Matrix(F3, 4, 6)
            grid = [[rng.randint(0, 2) for _ in range(6)] for _ in range(4)]
            m = Matrix(F3, 4, 6, [[F3.of(x) for x in row] for row in grid])
            assert m.rank() == fp_rank(grid, 3)


class TestSnf:
    def test_trivial_cases(self):
        z = Matrix.zeros(Z3, 2, 3)
        res = z.snf()
        assert res.invariant_exponents == []
        assert res.U * z * res.V == res.S

        i3 = Matrix.identity(Z3, 3)
        res = i3.snf()
        assert res.invariant_exponents == [0, 0, 0]

    def test_diag_p_one(self):
        m = Matrix(Z3, 2, 2, [[Fraction(3), Fraction(0)],
                              [Fraction(0), Fraction(1)]])
        res = m.snf()
        assert res.invariant_exponents == [0, 1]
        assert res.U * m * res.V == res.S
        assert res.S.a[0][0] == 1 and res.S.a[1][1] == 3

    def test_fraction_entries(self):
        m = Matrix(Z3, 1, 1, [[Fraction(9, 2)]])
        res = m.snf()
        assert res.invariant_exponents == [2]
        assert res.S.a[0][0] == 9

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([Z3, F3]), st.integers(0, 4), st.integers(0, 4),
           st.data())
    def test_random_snf_invariants(self, ring, rows, cols, data):
        ents = data.draw(st.lists(
            st.integers(-40, 40), min_size=rows * cols, max_size=rows * cols))
        m = Matrix(ring, rows, cols,
                   [[ring.of(ents[i * cols + j]) for j in range(cols)]
                    for i in range(rows)])
        res = m.snf()
        # transforms invertible over Z_(p) and consistent
        assert res.U * res.Uinv == Matrix.identity(ring, rows)
        assert res.V * res.Vinv == Matrix.identity(ring, cols)
        assert res.U * m * res.V == res.S
        assert res.Uinv * res.S * res.Vinv == m
        # diagonal p-powers, nondecreasing, off-diagonal zero
        exps = res.invariant_exponents
        assert exps == sorted(exps)
        for i in range(rows):
            for j in range(cols):
                if i == j and i < len(exps):
                    assert res.S.a[i][j] == Fraction(3) ** exps[i]
                else:
                    assert ring.is_zero(res.S.a[i][j])
        if ring.is_field:
            # S = diag(1, ..., 1, 0, ...): a rank factorization
            assert exps == [0] * len(exps)
            assert len(exps) == fp_rank(m.a, 3)
        else:
            assert len(exps) == bareiss_rank(m.a)


    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([Z3, Z5, F3, PrimeField(5)]), st.integers(0, 7),
           st.integers(0, 7), st.data())
    def test_matches_dense_reference(self, ring, rows, cols, data):
        # mostly zeros, and entries of every valuation, so that pivot ties
        # are common
        ents = data.draw(st.lists(
            st.sampled_from([0, 0, 0, 1, -1, 2, 3, -9, 10, 25, 27]),
            min_size=rows * cols, max_size=rows * cols))
        m = Matrix(ring, rows, cols,
                   [[ring.of(ents[i * cols + j]) for j in range(cols)]
                    for i in range(rows)])
        got, want = m.snf(), dense_snf(m)
        assert got.invariant_exponents == want.invariant_exponents
        for name in ("U", "S", "V", "Uinv", "Vinv"):
            assert getattr(got, name) == getattr(want, name), name


class TestKernelSolve:
    def test_kernel_of_p_times_zero(self):
        m = Matrix(Z3, 1, 2, [[Fraction(3), Fraction(0)]])
        ker = m.kernel_basis()
        # over Z_(3), 3x = 0 forces x = 0: kernel is spanned by e2 only
        assert len(ker) == 1
        assert ker[0] == [Fraction(0), Fraction(1)]

    def test_solve_requires_divisibility(self):
        m = Matrix(Z3, 1, 1, [[Fraction(3)]])
        assert m.solve([Fraction(1)]) is None
        assert m.solve([Fraction(6)]) == [Fraction(2)]

    def test_solve_over_field(self):
        m = Matrix(F3, 1, 1, [[F3.of(3)]])   # zero matrix over F_3
        assert m.solve([1]) is None
        m = Matrix(F3, 2, 2, [[1, 2], [0, 1]])
        sol = m.solve([0, 1])
        assert m.apply(sol) == [0, 1]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_solve_roundtrip(self, data):
        ring = Z5
        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(1, 4))
        ents = data.draw(st.lists(st.integers(-10, 10),
                                  min_size=rows * cols, max_size=rows * cols))
        m = Matrix(ring, rows, cols,
                   [[ring.of(ents[i * cols + j]) for j in range(cols)]
                    for i in range(rows)])
        x = [ring.of(v) for v in
             data.draw(st.lists(st.integers(-5, 5), min_size=cols,
                                max_size=cols))]
        b = m.apply(x)
        sol = m.solve(b)
        assert sol is not None
        assert m.apply(sol) == b

    def test_kernel_members_annihilate(self):
        rng = random.Random(11)
        for _ in range(20):
            m = _rand_matrix(Z3, 3, 5, rng)
            ker = m.kernel_basis()
            assert len(ker) == 5 - m.rank()
            for v in ker:
                assert all(Z3.is_zero(x) for x in m.apply(v))


@st.composite
def sparse_fp_columns(draw):
    """(p, rows, columns): sparse int columns over F_3 or F_5, with zero
    columns, repeated columns and entries outside [0, p) among them."""
    p = draw(st.sampled_from([3, 5]))
    rows = draw(st.integers(0, 6))
    entry = st.integers(-2 * p, 2 * p)
    column = st.dictionaries(st.integers(0, rows - 1), entry,
                             max_size=min(rows, 3)) if rows else st.just({})
    base = draw(st.lists(column, max_size=5))
    picks = draw(st.lists(st.integers(-1, len(base) - 1), max_size=8))
    cols = [dict(base[k]) if k >= 0 else {} for k in picks] \
        if base else draw(st.lists(st.just({}), max_size=3))
    return p, rows, cols


def _dense(col: dict, rows: int) -> list:
    return [col.get(i, 0) for i in range(rows)]


class TestFpSpan:
    """The sparse F_p reducer against dense rref: the kernel basis is the
    same list of vectors, and span membership agrees with solve."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_fp_columns(), st.data())
    def test_matches_dense_rref(self, case, data):
        p, rows, cols = case
        fp = PrimeField(p)
        m = Matrix.from_columns(fp, rows, [_dense(c, rows) for c in cols])
        assert [_dense(v, len(cols)) for v in fp_kernel(p, cols)] \
            == m.kernel_basis()
        span = FpSpan(p, cols)
        coeffs = data.draw(st.lists(st.integers(0, p - 1),
                                    min_size=len(cols), max_size=len(cols)))
        inside = {}
        for c, col in zip(coeffs, cols):
            accumulate(fp, inside, {i: fp.of(x) for i, x in col.items()}, c)
        other = data.draw(st.dictionaries(
            st.integers(0, rows - 1), st.integers(-p, p),
            max_size=rows) if rows else st.just({}))
        for vec in (inside, other, {}):
            assert (vec in span) == (m.solve(_dense(vec, rows)) is not None)

    def test_kernel_of_no_columns_is_empty(self):
        assert fp_kernel(3, []) == []
        assert {} in FpSpan(3) and {0: 3} in FpSpan(3)
        assert {0: 1} not in FpSpan(3)

    def test_repeated_and_zero_columns(self):
        # columns a, {}, a, 2a: kernel e2, e3 - e1, e4 - 2e1 (mod 3)
        a = {0: 1, 2: 2}
        assert fp_kernel(3, [a, {}, a, {0: 2, 2: 1}]) == [
            {1: 1}, {0: 2, 2: 1}, {0: 1, 3: 1}]
