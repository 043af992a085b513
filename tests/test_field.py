"""Prime field and scalar polynomial arithmetic."""

import pytest

from polynull import NEG_INF, FieldSpec, Poly

from conftest import make_rng, poly, schoolbook_mul


def lagrange_interpolate(points, values, field):
    """Independent reference: unique poly of degree < len(points)."""
    p = field.p
    result = Poly.zero(field)
    for i, (xi, yi) in enumerate(zip(points, values)):
        num = Poly.one(field)
        den = 1
        for j, xj in enumerate(points):
            if j == i:
                continue
            num = num * Poly(field, [-xj, 1])
            den = den * (xi - xj) % p
        result = result + num * Poly(field, [yi * pow(den, -1, p)])
    return result


class TestFieldSpec:
    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec(2**31 - 3)

    def test_rejects_wide_modulus(self):
        with pytest.raises(ValueError, match="31 bits"):
            FieldSpec(2**61 - 1)

    def test_default_prime_is_word_size(self, field):
        assert field.p == 2**31 - 1


class TestPolyAdd:
    def test_constant_cancellation(self, field):
        f = poly(field, 1, 1)
        g = poly(field, field.p - 1, 1)
        assert f + g == poly(field, 0, 2)

    def test_identity(self, field):
        f = poly(field, 3, 0, 7)
        assert f + Poly.zero(field) == f

    def test_additive_inverse_degree(self, field):
        f = poly(field, 0, 0, 1)
        g = f * Poly(field, [field.p - 1])
        total = f + g
        assert total.is_zero()
        assert total.degree is NEG_INF
        assert total.degree < -(10**18)


class TestPolyMul:
    def test_difference_of_squares(self, field):
        f = poly(field, 1, 1)
        g = poly(field, 1, field.p - 1)
        assert f * g == poly(field, 1, 0, field.p - 1)

    def test_identity(self, field):
        f = poly(field, 5, 0, 2)
        assert f * Poly.one(field) == f

    @pytest.mark.parametrize("degree", [7, 50, 200])
    def test_matches_schoolbook(self, field, degree):
        rng = make_rng(degree)
        f = Poly.random(field, degree, rng)
        g = Poly.random(field, degree, rng)
        expected = schoolbook_mul(list(f.coeffs), list(g.coeffs), field.p)
        assert (f * g).coeffs == tuple(expected)

    def test_degree_adds(self, field):
        rng = make_rng(2)
        for _ in range(20):
            f = Poly.random(field, rng.randrange(6), rng)
            g = Poly.random(field, rng.randrange(6), rng)
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).degree == f.degree + g.degree


class TestTruncate:
    def test_drops_high_terms(self, field):
        f = poly(field, 1, 1, 0, 1)
        assert f.truncate(2) == poly(field, 1, 1)

    def test_order_zero(self, field):
        assert poly(field, 4, 2).truncate(0).is_zero()

    def test_full_retention(self, field):
        f = poly(field, 2, 0, 3)
        assert f.truncate(int(f.degree) + 1) == f


class TestShiftVar:
    def test_square_expansion(self, field):
        f = poly(field, 0, 0, 1)
        assert f.shift_var(1) == poly(field, 1, 2, 1)

    def test_zero_shift(self, field):
        f = poly(field, 1, 2, 3)
        assert f.shift_var(0) == f

    def test_round_trip(self, field):
        rng = make_rng(9)
        f = Poly.random(field, 8, rng)
        x0 = rng.randrange(field.p)
        assert f.shift_var(x0).shift_var(-x0) == f

    def test_preserves_degree_and_composes(self, field):
        rng = make_rng(10)
        f = Poly.random(field, 6, rng)
        a, b = rng.randrange(field.p), rng.randrange(field.p)
        assert f.shift_var(a).degree == f.degree
        assert f.shift_var(a).shift_var(b) == f.shift_var((a + b) % field.p)


class TestEval:
    def test_simple(self, field):
        assert int(poly(field, 1, 1)(1)) == 2

    def test_zero_poly(self, field):
        rng = make_rng(3)
        for _ in range(5):
            assert int(Poly.zero(field)(rng.randrange(field.p))) == 0

    def test_interpolation_round_trip(self, field):
        rng = make_rng(4)
        f = Poly.random(field, 9, rng)
        points = list(range(10))
        values = [int(f(a)) for a in points]
        assert lagrange_interpolate(points, values, field) == f


class TestAlgebraicProperties:
    def test_ring_axioms(self, field):
        rng = make_rng(5)
        for _ in range(25):
            f = Poly.random(field, rng.randrange(8), rng)
            g = Poly.random(field, rng.randrange(8), rng)
            h = Poly.random(field, rng.randrange(8), rng)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + g == g + f

    def test_eval_is_multiplicative(self, field):
        rng = make_rng(6)
        for _ in range(25):
            f = Poly.random(field, rng.randrange(10), rng)
            g = Poly.random(field, rng.randrange(10), rng)
            a = rng.randrange(field.p)
            assert (f * g)(a) == f(a) * g(a) % field.p
