import random
from fractions import Fraction

import pytest

from charp.lengths import (
    NotMPrimary,
    corner_length_identity,
    hk_table,
)
from charp.rings import RingContext


@pytest.fixture
def fermat2():
    return RingContext(2, ["x", "y", "z"], "x^3+y^3+z^3")


@pytest.fixture
def poly2():
    return RingContext(2, ["x", "y"])


class TestHkTable:
    def test_maximal_ideal_values(self, fermat2):
        table = hk_table(fermat2.maximal_ideal(), 2)
        assert [r.colength_bracket for r in table.rows] == [1, 8, 36]
        assert [r.q for r in table.rows] == [1, 2, 4]
        assert table.leading_coefficient_estimate == Fraction(36, 16)
        # at e = 1 the estimate is l(R/m^[2]) / 2^2 = 8/4
        assert hk_table(fermat2.maximal_ideal(), 1).leading_coefficient_estimate == 2

    @pytest.mark.parametrize("p, e, expected", [
        (2, 4, {2: 8, 4: 36, 8: 144, 16: 576}),
        (5, 2, {5: 55, 25: 1405}),
        # the largest q per prime that the frobenius-hk benchmark reaches
        (2, 7, {2: 8, 4: 36, 8: 144, 16: 576, 32: 2304, 64: 9216, 128: 36864}),
        (5, 3, {5: 55, 25: 1405, 125: 35155}),
        (7, 2, {7: 109, 49: 5401}),
        (11, 2, {11: 271, 121: 32941}),
        (13, 2, {13: 379, 169: 64261}),
    ])
    def test_fermat_cubic_monsky_values(self, p, e, expected):
        # e_HK(m) = 9/4 for a smooth plane cubic (Monsky, Math. Ann. 263,
        # 1983): l(R/m^[q]) = 9q^2/4 for p = 2, q >= 4, and (9q^2 - 5)/4
        # for odd p
        ring = RingContext(p, ["x", "y", "z"], "x^3+y^3+z^3")
        table = hk_table(ring.maximal_ideal(), e)
        assert {r.q: r.colength_bracket for r in table.rows[1:]} == expected

    @pytest.mark.parametrize("p, e, expected", [
        (3, 3, [1, 27, 252, 2268]),
        (5, 2, [1, 75, 1900]),
        (7, 2, [1, 145, 7201]),
    ])
    def test_fermat_quartic_values(self, p, e, expected):
        # e_HK(m) = 3 + 1/p^2 for x^4+y^4+z^4 at p = +-3 (mod 8) (Han and
        # Monsky, "Some surprising Hilbert-Kunz functions", Math. Z. 214,
        # 1993); the values below are as measured: at q >= p^2 they equal
        # (3 + 1/p^2) q^2 for p = 3 and 5, and at p = 7 = -1 (mod 8),
        # 7201 = 3 * 49^2 - 2
        ring = RingContext(p, ["x", "y", "z"], "x^4+y^4+z^4")
        table = hk_table(ring.maximal_ideal(), e)
        assert [r.colength_bracket for r in table.rows] == expected
        assert [r.q for r in table.rows] == [p**k for k in range(e + 1)]

    def test_regular_ring_leading_term_is_exact(self, poly2):
        # l(F_2[x,y]/(x,y)^[q]) = q^2 exactly
        table = hk_table(poly2.maximal_ideal(), 3)
        assert [r.colength_bracket for r in table.rows] == [1, 4, 16, 64]
        assert table.leading_coefficient_estimate == 1

    def test_nondecreasing(self, fermat2):
        table = hk_table(fermat2.ideal("x^2", "y^2", "z^2"), 2)
        values = [r.colength_bracket for r in table.rows]
        assert values == sorted(values)

    def test_rejects_non_m_primary(self, fermat2):
        with pytest.raises(NotMPrimary):
            hk_table(fermat2.ideal("x"), 2)


class TestCornerLengthIdentity:
    def test_worked_example_linked_ideal(self, fermat2):
        J = fermat2.ideal("x^2", "y^2", "z")
        for e, expected in ((1, 12), (2, 48)):
            res = corner_length_identity(J, e, random.Random(e))
            assert res.equal
            assert res.lhs == res.rhs == expected

    def test_maximal_ideal(self, fermat2):
        for e in (1, 2):
            res = corner_length_identity(fermat2.maximal_ideal(), e,
                                         random.Random(e))
            assert res.equal

    def test_records_link_data(self, fermat2):
        res = corner_length_identity(fermat2.ideal("x^2", "y^2", "z"), 1,
                                     random.Random(5))
        assert res.linked == res.linking.colon(fermat2.ideal("x^2", "y^2", "z"))

    def test_rejects_non_m_primary(self, fermat2):
        with pytest.raises(NotMPrimary):
            corner_length_identity(fermat2.ideal("x"), 1)
