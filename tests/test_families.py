"""Family classifiers against independent reference computations."""

import random

from cppforge.families import _deg9_forced_iii, classify_deg9
from cppforge.gf import mk_field, mk_tower
from cppforge.poly import Poly, roots_in


def _case_iii_shapes(base) -> list:
    out = []
    for a3 in base.elements():
        for a4 in base.units():
            for a5 in base.elements():
                A = [0, 0, a3, a4, a5, *_deg9_forced_iii(base, a3, a4, a5)]
                if classify_deg9(base, A).case_index == "iii":
                    out.append(A)
    return out


class TestDeg9CaseIii:
    def _check(self, base, shapes):
        top4 = mk_tower(base, 4)
        for A in shapes:
            a3, a4 = A[2], A[3]
            # reference: search for a root of w in the tower GF(q^4)
            w = Poly(base, [base.mul(2, a4), 0, base.mul(2, a3), 0, 0, 0, 0, 0, 1])
            assert classify_deg9(base, A).good == (not roots_in(w, top4))

    def test_good_matches_tower_root_search_gf3(self):
        shapes = _case_iii_shapes(mk_field(3, 1))
        assert len(shapes) == 9
        self._check(mk_field(3, 1), shapes)

    def test_good_matches_tower_root_search_gf9_sample(self):
        base = mk_field(3, 2)
        shapes = _case_iii_shapes(base)
        assert len(shapes) == 270
        self._check(base, random.Random(9).sample(shapes, 30))
