"""Exact arithmetic and matrix algebra over Z_(p) and F_p."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bockstein.scalars import (DimensionError, Matrix, PrimeField, RingError,
                               ZpLocal)
from oracles import bareiss_rank, dense_snf, fp_rank

Z3 = ZpLocal(3)
Z5 = ZpLocal(5)
F3 = PrimeField(3)


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
