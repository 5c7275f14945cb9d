import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shakekit import exactlinalg, verify
from shakekit.cli import band_presentation_from_json
from shakekit.exactlinalg import inertia_symmetric_exact
from shakekit.goeritz import (
    Band,
    BandPresentation,
    GoeritzData,
    add_two_twists,
    classical_signature_goeritz,
    goeritz_form,
    torus_band_presentation,
)
from shakekit.seifert import an_family, classical_signature_seifert


class TestBandValidation:
    def test_odd_self_writhe_rejected(self):
        with pytest.raises(ValueError):
            Band(orientable=True, self_writhe=3)

    def test_orientable_odd_twists_rejected(self):
        with pytest.raises(ValueError):
            Band(orientable=True, half_twists=1)

    @pytest.mark.parametrize("fields, message", [
        (dict(orientable="no"), "expected true or false for \"orientable\", got 'no'"),
        (dict(orientable=1), "expected true or false for \"orientable\", got 1"),
        (dict(orientable=False, half_twists=True), "expected integer \"half_twists\", got True"),
        (dict(orientable=False, half_twists=3.0), "expected integer \"half_twists\", got 3.0"),
        (dict(orientable=True, self_writhe=2.0), "expected integer \"self_writhe\", got 2.0"),
    ], ids=["orientable-str", "orientable-int", "twists-bool", "twists-float", "writhe-float"])
    def test_refuses_coerced_values(self, fields, message):
        # Band(orientable="no") built an orientable band
        with pytest.raises(ValueError, match=re.escape(message)):
            Band(**fields)

    def test_nonorientable_odd_twists_allowed(self):
        band = Band(orientable=False, half_twists=3)
        assert band.half_twists == 3

    def test_crossings_must_be_symmetric(self):
        bands = [Band(orientable=True), Band(orientable=True)]
        with pytest.raises(ValueError):
            BandPresentation(bands, [[0, 1], [2, 0]])

    def test_crossings_diagonal_must_be_zero(self):
        with pytest.raises(ValueError):
            BandPresentation([Band(orientable=True)], [[1]])

    def test_crossings_shape(self):
        with pytest.raises(ValueError):
            BandPresentation([Band(orientable=True)], [[0, 0]])

    def test_rejects_non_integer_crossings(self):
        bands = [Band(orientable=True), Band(orientable=True)]
        for x in (1.0, True, 0.5):
            with pytest.raises(ValueError):
                BandPresentation(bands, [[0, x], [x, 0]])

    def test_default_crossings(self):
        bp = BandPresentation([Band(orientable=True), Band(orientable=False)])
        assert bp.crossings == ((0, 0), (0, 0))
        assert len(bp.bands) == 2


class TestGoeritzForm:
    def test_diagonal_combines_writhe_and_twists(self):
        bp = BandPresentation(
            [Band(orientable=True, half_twists=2, self_writhe=-4)],
        )
        assert goeritz_form(bp).G == ((-2,),)

    def test_off_diagonal_from_crossings(self):
        bands = [Band(orientable=True), Band(orientable=False, half_twists=1)]
        bp = BandPresentation(bands, [[0, -2], [-2, 0]])
        gd = goeritz_form(bp)
        assert gd.G == ((0, -2), (-2, 1))
        assert gd.nonorientable == frozenset({1})
        assert gd.eta == 1

    def test_eta_sums_nonorientable_block(self):
        gd = GoeritzData([[3, 1, 0], [1, -2, 5], [0, 5, 4]], [0, 2])
        # block entries: G[0][0] + G[0][2] + G[2][0] + G[2][2]
        assert gd.eta == 3 + 0 + 0 + 4

    def test_goeritz_data_validation(self):
        with pytest.raises(ValueError):
            GoeritzData([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            GoeritzData([[0]], [1])

    def test_json_round_trip(self):
        gd = GoeritzData([[3, 2], [2, 1]], [1])
        assert GoeritzData(**gd.to_json()) == gd

    def test_goeritz_data_rejects_non_integers(self):
        for G, marked in (([[1.0]], ()), ([[True]], ()), ([[1, 2.5], [2.5, 1]], ()),
                          ([[1]], [0.0]), ([[1]], [False])):
            with pytest.raises(ValueError):
                GoeritzData(G, marked)

    def test_band_presentation_from_json(self):
        doc = {
            "bands": [
                {"orientable": False, "half_twists": 3},
                {"orientable": True, "self_writhe": 2},
            ],
            "crossings": [[0, 1], [1, 0]],
        }
        bp = band_presentation_from_json(doc)
        assert goeritz_form(bp).G == ((3, 1), (1, 2))
        with pytest.raises(ValueError):
            band_presentation_from_json({"crossings": []})
        with pytest.raises(ValueError):
            band_presentation_from_json({"bands": [{}]})
        with pytest.raises(ValueError, match="unknown key 'halftwists' in band 0"):
            band_presentation_from_json({"bands": [{"orientable": False, "halftwists": 3}]})
        with pytest.raises(ValueError, match="unknown key 'crossing' in the band presentation"):
            band_presentation_from_json({"bands": [{"orientable": True}], "crossing": [[0]]})


class TestTorusSignature:
    def test_one_band_form(self):
        gd = goeritz_form(torus_band_presentation(3))
        assert gd.G == ((7,),)
        assert gd.eta == 7

    def test_signature_family(self):
        # sign([2n+1]) = 1 and eta = 2n+1 give sigma = -2n
        for n in range(21):
            assert classical_signature_goeritz(torus_band_presentation(n)) == -2 * n

    def test_unknot(self):
        assert classical_signature_goeritz(torus_band_presentation(0)) == 0

    def test_empty_presentation(self):
        assert classical_signature_goeritz(BandPresentation([])) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            torus_band_presentation(-1)

    def test_index_is_an_int_never_coerced(self):
        # torus_band_presentation(True) was the trefoil's presentation
        for n in (True, 1.0, "1"):
            with pytest.raises(ValueError, match=re.escape(f"torus knot index n, got {n!r}")):
                torus_band_presentation(n)


class TestAgainstSeifertRoute:
    def test_orientable_presentation_matches_seifert_signature(self):
        # encode A + A^T for a family member as an all-orientable band form;
        # both routes must report the same classical signature
        for n in range(1, 4):
            a = an_family(n)
            dim = len(a)
            sym = [[a[i][j] + a[j][i] for j in range(dim)] for i in range(dim)]
            bands = [
                Band(orientable=True, self_writhe=sym[i][i]) for i in range(dim)
            ]
            crossings = [
                [sym[i][j] if i != j else 0 for j in range(dim)] for i in range(dim)
            ]
            bp = BandPresentation(bands, crossings)
            assert classical_signature_goeritz(bp) == classical_signature_seifert(a)


class TestTwoTwists:
    def test_one_by_one_example(self):
        gd = GoeritzData([[3]])
        gd2 = add_two_twists(gd, [2])
        assert gd2.G == ((3 + 16, 4), (4, 1))
        assert gd2.nonorientable == frozenset({1})
        assert gd2.eta == 1

    def test_zero_linking_appends_plus_one(self):
        gd = GoeritzData([[5, 1], [1, -2]])
        gd2 = add_two_twists(gd, [0, 0])
        assert gd2.G == ((5, 1, 0), (1, -2, 0), (0, 0, 1))
        assert (inertia_symmetric_exact(gd2.G).signature
                == inertia_symmetric_exact(gd.G).signature + 1)

    def test_empty_form(self):
        gd2 = add_two_twists(GoeritzData([]), [])
        assert gd2.G == ((1,),)
        assert gd2.eta == 1

    def test_rejects_nonorientable_input(self):
        with pytest.raises(ValueError):
            add_two_twists(GoeritzData([[3]], [0]), [1])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            add_two_twists(GoeritzData([[3]]), [1, 2])

    def test_rejects_non_integer_counts(self):
        for x in (1.0, True, 0.5):
            with pytest.raises(ValueError):
                add_two_twists(GoeritzData([[3]]), [x])

    def test_stability_examples(self):
        gd = GoeritzData([[3]])
        assert add_two_twists(gd, [2]).sigma == gd.sigma
        gd = GoeritzData([[0, 1], [1, 0]])
        assert add_two_twists(gd, [3, -1]).sigma == gd.sigma

    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            )
        )
    )
    def test_signature_never_moves(self, data):
        entries, l = data
        n = len(entries)
        sym = [[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)]
        gd = GoeritzData(sym)
        gd2 = add_two_twists(gd, l)
        assert (inertia_symmetric_exact(gd2.G).signature
                == inertia_symmetric_exact(gd.G).signature + 1)
        assert gd2.sigma == gd.sigma

    def test_stability_random_sweep(self):
        rng = random.Random(2718)
        for _ in range(100):
            dim = rng.randint(0, 6)
            m = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i, dim):
                    m[i][j] = m[j][i] = rng.randint(-4, 4)
            l = [rng.randint(-3, 3) for _ in range(dim)]
            gd = GoeritzData(m)
            assert add_two_twists(gd, l).sigma == gd.sigma

    def test_verify_row_eliminates_each_form_once(self, monkeypatch):
        # sign_G is cached, so the row's sign(G2) = sign(G) + 1 check and its sigma check share
        # one elimination per form: 100 cases of G and G2
        forms = []
        real = exactlinalg._form_inertia
        monkeypatch.setattr(exactlinalg, "_form_inertia",
                            lambda rows: forms.append(rows) or real(rows))
        assert verify._check_two_twist_stability().startswith("sign(G2) = sign(G) + 1")
        assert len(forms) == 200

    def test_sign_g_is_the_forms_signature(self):
        gd = GoeritzData([[3, 1], [1, 2]], [0])
        assert (gd.sign_G, gd.eta, gd.sigma) == (2, 3, -1)
        assert gd.sign_G == inertia_symmetric_exact(gd.G).signature
