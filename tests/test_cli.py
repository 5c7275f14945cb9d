import json
import math
import random
import subprocess
import sys
import time

import pytest

import shakekit
from oracles import det_int, litherland_signature, torus_seifert
from shakekit import cli, exactlinalg, verify
from shakekit.cli import main

A1_DOC = {
    "dim": 4,
    "entries": [
        [1, 1, 1, 0],
        [0, 0, 1, -1],
        [1, 2, 0, 0],
        [0, 0, -1, 0],
    ],
}

A2_DOC = {
    "dim": 6,
    "entries": [
        [1, 1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, -1],
        [1, 2, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
    ],
}

TREFOIL_DOC = {"dim": 2, "entries": [[-1, 1], [0, -1]]}

TORUS_BANDS = {"bands": [{"orientable": False, "half_twists": 3}], "crossings": [[0]]}


@pytest.fixture
def write_json(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlexander:
    def test_family_matrix(self, capsys, write_json):
        path = write_json("a1.json", A1_DOC)
        code, out, _ = run_cli(capsys, "alexander", path)
        assert code == 0
        assert json.loads(out) == {
            "alexander": "t^-2 - 3*t^-1 + 5 - 3*t + t^2",
            "coeffs": {"-2": 1, "-1": -3, "0": 5, "1": -3, "2": 1},
            "dim": 4,
        }

    def test_odd_dimension_is_domain_error(self, capsys, write_json):
        path = write_json("odd.json", {"dim": 1, "entries": [[1]]})
        code, out, err = run_cli(capsys, "alexander", path)
        assert code == 1
        assert not out
        assert "error:" in err

    def test_non_seifert_matrix_is_domain_error(self, capsys, write_json):
        path = write_json("zeros.json", {"dim": 2, "entries": [[0, 0], [0, 0]]})
        code, out, err = run_cli(capsys, "alexander", path)
        assert code == 1
        assert not out
        assert "must be 1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "alexander", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "alexander", str(path))
        assert code == 2


class TestSignature:
    def test_seifert_route(self, capsys, write_json):
        path = write_json("a2.json", A2_DOC)
        code, out, _ = run_cli(capsys, "signature", "--seifert", path)
        assert code == 0
        assert json.loads(out) == {"method": "seifert", "signature": 2}

    def test_goeritz_route(self, capsys, write_json):
        path = write_json("torus.json", TORUS_BANDS)
        code, out, _ = run_cli(capsys, "signature", "--goeritz", path)
        assert code == 0
        assert json.loads(out) == {"method": "goeritz", "signature": -2}

    def test_seifert_route_refuses_an_odd_dimension_as_alexander_does(self, capsys, write_json):
        path = write_json("odd.json", {"dim": 1, "entries": [[1]]})
        code, out, err = run_cli(capsys, "signature", "--seifert", path)
        assert code == 1 and not out
        assert err == "error: dimension 1 is odd; the t^(-dim/2) normalization needs it even\n"
        assert run_cli(capsys, "alexander", path)[2] == err

    @pytest.mark.parametrize("doc", [
        {"dim": True, "entries": [[1]]},
        {"dim": 1.0, "entries": [[1]]},
        {"dim": 2.0, "entries": TREFOIL_DOC["entries"]},
    ], ids=["true", "float-1", "float-2"])
    def test_dim_is_not_coerced(self, capsys, write_json, doc):
        path = write_json("m.json", doc)
        code, out, err = run_cli(capsys, "signature", "--seifert", path)
        assert code == 2
        assert not out
        assert '"dim"' in err


class TestLt:
    def test_at_minus_one(self, capsys, write_json):
        path = write_json("a1.json", A1_DOC)
        code, out, _ = run_cli(capsys, "lt", path, "--root", "1/2")
        assert code == 0
        assert json.loads(out) == {
            "root": "1/2",
            "signature": 0,
            "inertia": {"n_plus": 2, "n_zero": 0, "n_minus": 2},
        }

    @pytest.mark.parametrize("p, q, want", [(5, 6, -16), (7, 8, -30)], ids=["T(5,6)", "T(7,8)"])
    def test_at_minus_one_the_form_answers_where_the_pencil_cannot(self, capsys, write_json,
                                                                    p, q, want):
        # the pencil's D_k(-1) cannot be counted here (two zeros in a row), so lt reads the
        # form A + A^T, as signature --seifert does, before and after alexander memoises it
        A = torus_seifert(p, q)
        path = write_json("torus.json", {"dim": len(A), "entries": A})
        exactlinalg._pencil.cache_clear()
        code, out, err = run_cli(capsys, "lt", path, "--root", "1/2")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["signature"] == want == litherland_signature(p, q, 1, 2)
        assert doc["inertia"]["n_zero"] == 0
        code, signature, _ = run_cli(capsys, "signature", "--seifert", path)
        assert code == 0 and json.loads(signature)["signature"] == want
        assert run_cli(capsys, "alexander", path)[0] == 0
        assert run_cli(capsys, "lt", path, "--root", "1/2") == (0, out, "")

    def test_theta_route(self, capsys, write_json):
        path = write_json("a2.json", A2_DOC)
        code, out, _ = run_cli(capsys, "lt", path, "--theta", str(math.pi))
        assert code == 0
        assert json.loads(out)["signature"] == 2

    @pytest.mark.parametrize("doc, root", [
        ({"dim": 1, "entries": [[1]]}, ["--root", "1/3"]),
        ({"dim": 3, "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, ["--root", "1/2"]),
        ({"dim": 1, "entries": [[1]]}, ["--theta", "2.0"]),
    ], ids=["one-third", "identity-3", "theta"])
    def test_an_odd_dimension_is_refused_as_alexander_does(self, capsys, write_json, doc, root):
        # no knot has an odd Seifert matrix, nor an odd signature
        path = write_json("odd.json", doc)
        code, out, err = run_cli(capsys, "lt", path, *root)
        n = doc["dim"]
        assert (code, out) == (1, "")
        assert err == f"error: dimension {n} is odd; the t^(-dim/2) normalization needs it even\n"
        assert run_cli(capsys, "alexander", path)[2] == err

    def test_near_singular_root(self, capsys, write_json):
        path = write_json("trefoil.json", TREFOIL_DOC)
        code, _, err = run_cli(capsys, "lt", path, "--root", "1/6")
        assert code == 1
        assert err == "error: form is singular at 1/6: leading minor D_2 = 0 exactly\n"
        assert "perturb" not in err

    def test_root_one_rejected(self, capsys, write_json):
        path = write_json("a1.json", A1_DOC)
        code, _, err = run_cli(capsys, "lt", path, "--root", "0/1")
        assert code == 1
        assert "omega = 1" in err

    def test_bad_root_syntax(self, capsys, write_json):
        path = write_json("a1.json", A1_DOC)
        code, _, err = run_cli(capsys, "lt", path, "--root", "half")
        assert code == 2
        assert "k/m" in err

    @pytest.mark.parametrize("root", ["\u0661/\u0662", "1/\uff12"])
    def test_root_digits_are_ascii(self, capsys, write_json, root):
        path = write_json("a1.json", A1_DOC)
        code, out, err = run_cli(capsys, "lt", path, "--root", root)
        assert code == 2
        assert not out
        assert "k/m" in err

    def test_fifth_root_on_trefoil(self, capsys, write_json):
        path = write_json("trefoil.json", TREFOIL_DOC)
        code, _, _ = run_cli(capsys, "lt", path, "--root", "1/5")
        assert code == 0

    @pytest.mark.parametrize("theta", ["\u0661.\u0665", "1_0.5", " 1.5", "1.5\uff10", "0x1p0"])
    def test_theta_is_ascii_float_syntax(self, capsys, write_json, theta):
        path = write_json("trefoil.json", TREFOIL_DOC)
        with pytest.raises(SystemExit) as exc:
            main(["lt", path, f"--theta={theta}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "ASCII float syntax" in captured.err

    @pytest.mark.parametrize("theta", ["1.5", "-2.5", ".5", "5.", "1e-3", "2E+0"])
    def test_theta_float_syntax(self, capsys, write_json, theta):
        path = write_json("trefoil.json", TREFOIL_DOC)
        code, out, _ = run_cli(capsys, "lt", path, f"--theta={theta}")
        assert code == 0
        assert json.loads(out)["root"] == f"theta={float(theta)!r}"

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_is_malformed(self, capsys, write_json, theta):
        path = write_json("trefoil.json", TREFOIL_DOC)
        code, out, err = run_cli(capsys, "lt", path, f"--theta={theta}")
        assert code == 2
        assert not out
        assert "finite" in err


class TestKnotRule:
    """alexander, signature --seifert and lt refuse a matrix with det(A - A^T) != 1 before any
    elimination of its pencil or form, after the parity check, with alexander's message."""

    READERS = {"alexander": ["alexander"], "signature": ["signature", "--seifert"],
               "lt": ["lt", "--root", "1/3"]}

    @pytest.mark.parametrize("reader", READERS)
    def test_a_non_knot_matrix_exits_1_with_alexanders_message(self, capsys, write_json,
                                                                kernel_calls, reader):
        exactlinalg._pencil.cache_clear()
        path = write_json("identity.json", {"dim": 2, "entries": [[1, 0], [0, 1]]})
        code, out, err = run_cli(capsys, *self.READERS[reader], path)
        assert (code, out) == (1, "")
        assert err == ("error: not a knot Seifert matrix: det(A - A^T) must be 1, "
                       "got Alexander value 0 at t = 1\n")
        # one elimination, of the integer form A - A^T; no pencil is built
        calls = [(call.lows, call.bits, call.pivots) for call in kernel_calls]
        assert calls == [([0, 0], 2, True)] and exactlinalg._pencil.held == {}

    @pytest.mark.parametrize("reader", READERS)
    def test_a_large_random_matrix_is_refused_at_once(self, capsys, write_json, reader):
        # the late check took minutes here, after eliminating the whole pencil
        rng = random.Random(5)
        entries = [[rng.randint(-3, 3) for _ in range(120)] for _ in range(120)]
        path = write_json("random.json", {"dim": 120, "entries": entries})
        exactlinalg._pencil.cache_clear()
        start = time.process_time()
        code, out, err = run_cli(capsys, *self.READERS[reader], path)
        assert time.process_time() - start < 1
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("error: not a knot Seifert matrix: det(A - A^T) must be 1, got ")
        assert exactlinalg._pencil.held == {}

    def test_the_determinant_is_exact(self):
        rng = random.Random(21)
        for trial in range(300):
            n = 2 * rng.randint(1, 5)
            A = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(n)]
                 for _ in range(n)]
            want = det_int([[a - b for a, b in zip(row, col)] for row, col in zip(A, zip(*A))])
            if want == 1:
                assert exactlinalg.knot_rule(A) is None
                continue
            with pytest.raises(shakekit.DomainError) as exc:
                exactlinalg.knot_rule(A)
            assert str(exc.value).endswith(f"got Alexander value {want} at t = 1")
        with pytest.raises(shakekit.DomainError, match="Alexander value 4 at"):
            exactlinalg.knot_rule([[0, 2], [0, 0]])


class TestGoeritz:
    def test_payload(self, capsys, write_json):
        doc = {
            "bands": [
                {"orientable": False, "half_twists": 3},
                {"orientable": True, "self_writhe": 2},
            ],
            "crossings": [[0, 1], [1, 0]],
        }
        path = write_json("bands.json", doc)
        code, out, _ = run_cli(capsys, "goeritz", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["G"] == [[3, 1], [1, 2]]
        assert payload["nonorientable"] == [0]
        assert payload["eta"] == 3
        assert payload["sigma"] == payload["sign_G"] - payload["eta"]

    def test_invalid_bands(self, capsys, write_json):
        path = write_json("bad.json", {"bands": [{"orientable": True, "half_twists": 1}]})
        code, _, _ = run_cli(capsys, "goeritz", path)
        assert code == 2

    @pytest.mark.parametrize("band", [
        {"orientable": "false", "half_twists": 2.9},
        {"orientable": False, "half_twists": 2.9},
        {"orientable": 0, "half_twists": 3},
        {"orientable": True, "self_writhe": "2"},
    ])
    def test_band_fields_are_not_coerced(self, capsys, write_json, band):
        path = write_json("bad.json", {"bands": [band], "crossings": [[0]]})
        for argv in (["goeritz", path], ["signature", "--goeritz", path]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert not out
            assert "expected" in err

    def test_bands_must_be_a_list(self, capsys, write_json):
        code, _, err = run_cli(capsys, "goeritz", write_json("bad.json", {"bands": 5}))
        assert code == 2
        assert '"bands" list' in err

    @pytest.mark.parametrize("doc", [
        {"bands": [{"orientable": False, "halftwists": 3}]},
        {"bands": [{"orientable": False, "half_twists": 3}, {"orientable": False, "half_twists": 1}],
         "crossing": [[0, 1], [1, 0]]},
    ])
    def test_unknown_keys_are_refused(self, capsys, write_json, doc):
        path = write_json("bad.json", doc)
        for argv in (["goeritz", path], ["signature", "--goeritz", path]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert not out
            assert "unknown key" in err

    def test_crossings_are_not_coerced(self, capsys, write_json):
        doc = {"bands": [{"orientable": True}, {"orientable": True}],
               "crossings": [[0, 1.5], [1.5, 0]]}
        code, _, err = run_cli(capsys, "goeritz", write_json("bad.json", doc))
        assert code == 2
        assert "1.5" in err


class TestPattern:
    def test_normalize(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "normalize", "(PoQ)*")
        assert code == 0
        assert json.loads(out) == {"normal_form": "Q* o P*"}

    def test_eval_with_table(self, capsys, write_json):
        path = write_json("asg.json", {"P": {"table": {"0": 2, "3": 5}}})
        code, out, _ = run_cli(
            capsys, "pattern", "eval", "P o P_3", "--assignment", path
        )
        assert code == 0
        assert json.loads(out) == {"normal_form": "P o P_3", "value": 7}

    def test_eval_with_family_profile(self, capsys, write_json):
        path = write_json("asg.json", {"Q": {"family": {"root": "1/3"}}})
        code, out, _ = run_cli(
            capsys, "pattern", "eval", "bar(Q*)_2^4 o Q^4", "--assignment", path
        )
        assert code == 0
        assert json.loads(out)["value"] == -4

    @pytest.mark.parametrize("value", [2.5, "2", True])
    def test_table_values_are_not_coerced(self, capsys, write_json, value):
        path = write_json("asg.json", {"P": {"table": {"0": value}}})
        code, out, err = run_cli(capsys, "pattern", "eval", "P", "--assignment", path)
        assert code == 2
        assert not out
        assert "expected integer" in err

    @pytest.mark.parametrize("key", ["1_0", " 1", "1.0", "t", "\u0661\u0660", "--10"])
    def test_table_keys_are_not_coerced(self, capsys, write_json, key):
        path = write_json("asg.json", {"P": {"table": {key: 1}}})
        code, out, err = run_cli(capsys, "pattern", "eval", "P_10", "--assignment", path)
        assert code == 2
        assert not out
        assert "profile twist" in err

    @pytest.mark.parametrize("spec", [
        {"table": [1, 2]}, {"family": "1/3"}, {"family": {"root": 3}}, {},
        {"table": {"0": 2}, "family": {"root": "1/3"}}, {"table": {"0": 2}, "note": "x"},
        {"family": {"root": "1/3", "roots": "1/5"}},
    ])
    def test_malformed_profiles(self, capsys, write_json, spec):
        path = write_json("asg.json", {"P": spec})
        code, out, err = run_cli(capsys, "pattern", "eval", "P", "--assignment", path)
        assert code == 2
        assert not out
        assert "profile for 'P'" in err

    @pytest.mark.parametrize("table", [{"0": 1, "-0": 5}, {"3": 1, "03": 2}])
    def test_table_keys_naming_one_twist(self, capsys, write_json, table):
        path = write_json("asg.json", {"P": {"table": table}})
        code, out, err = run_cli(capsys, "pattern", "eval", "P", "--assignment", path)
        assert code == 2
        assert not out
        assert "both name twist" in err

    @pytest.mark.parametrize("expression", ["Q_\u0663", "Q_\u00b2"])
    def test_twist_digits_are_ascii(self, capsys, expression):
        code, out, err = run_cli(capsys, "pattern", "normalize", expression)
        assert code == 2
        assert not out
        assert "expected an integer (at position 2)" in err

    def test_eval_unassigned_atom(self, capsys):
        code, _, err = run_cli(capsys, "pattern", "eval", "P")
        assert code == 1
        assert "P" in err

    def test_oversized_power_is_refused(self, capsys, write_json):
        # the normal form holds one run; writing it out is what the limit refuses
        path = write_json("asg.json", {"P": {"table": {"0": 1}}})
        for argv in (["normalize", "P^100000000"],
                     ["eval", "P^100000000", "--assignment", path]):
            code, out, err = run_cli(capsys, "pattern", *argv)
            assert code == 1
            assert not out
            assert "normal form would have 100000000 leaves, over the limit of 2000000" in err

    def test_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "pattern", "normalize", "P^0")
        assert code == 2
        assert "position" in err

    def test_long_chain_normalizes(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "normalize", " o ".join(["P"] * 1500))
        assert code == 0
        assert json.loads(out)["normal_form"] == " o ".join(["P"] * 1500)

    @pytest.mark.parametrize("suffix", ["*", "^1"])
    def test_long_suffix_run_is_a_syntax_error(self, capsys, suffix):
        code, out, err = run_cli(capsys, "pattern", "normalize", "P" + suffix * 1500)
        assert code == 2
        assert not out
        assert f"nesting deeper than 100 levels (at position {1 + 100 * len(suffix)})" in err

    def test_deep_parentheses_are_a_syntax_error(self, capsys):
        code, out, err = run_cli(capsys, "pattern", "eval", "(" * 400 + "P" + ")" * 400)
        assert code == 2
        assert not out
        assert "nesting deeper than 100 levels (at position 100)" in err


class TestCertify:
    def test_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--framing", "2", "--complexity", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == 4
        assert payload["witness"] == {"k": 1, "m": 3}
        assert payload["term"] == "bar(Q*)_2^4 o Q^4"
        assert payload["invariant"] == "half-LT-signature"
        assert payload["i_Q"] == 0 and payload["i_Qn"] == 1

    def test_zero_framing(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--framing", "0", "--complexity", "2")
        assert code == 1

    @pytest.mark.parametrize("c", [100000000, 10**18])
    def test_complexity_past_the_leaf_limit_answers(self, capsys, c):
        code, out, _ = run_cli(capsys, "certify", "--framing", "2", "--complexity", str(c))
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == c
        assert payload["term"] == f"bar(Q*)_2^{c} o Q^{c}"

    @pytest.mark.parametrize("option, value", [
        ("--framing", "\u0663"), ("--framing", "\uff13"), ("--framing", " 3"),
        ("--framing", "3.0"), ("--complexity", "1_0"), ("--complexity", "\u00b2"),
        ("--max-order", "\u0666\u0660"), ("--max-order", "60 "),
    ])
    def test_number_options_are_ascii_decimal(self, capsys, option, value):
        argv = {"--framing": "3", "--complexity": "2", option: value}
        with pytest.raises(SystemExit) as exc:
            main(["certify", *(text for pair in argv.items() for text in pair)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert f"argument {option}: expected an integer in ASCII digits" in captured.err

    def test_signed_framings_parse(self, capsys):
        for framing, n in (("-3", -3), ("+3", 3)):
            code, out, _ = run_cli(capsys, "certify", "--framing", framing, "--complexity", "2",
                                   "--max-order", "60")
            assert code == 0
            assert json.loads(out)["n"] == n

    def test_framing_beyond_the_grid_rule(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--framing", "200", "--complexity", "1")
        assert code == 0
        assert json.loads(out)["witness"] == {"k": 1, "m": 3}

    def test_large_framing(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--framing", "1000000", "--complexity", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"] == {"k": 5, "m": 11}
        assert payload["bound"] == 2

    def test_framing_beyond_the_float_reach(self, capsys):
        # Delta_(1+n) has exponents near 10^18, past a double's integers;
        # each phase is reduced exactly modulo the order, so the float sum
        # certifies every folded sign and no exact zero test is taken
        for n, witness in ((10**18, {"k": 5, "m": 11}), (10**18 + 2, {"k": 3, "m": 11})):
            code, out, _ = run_cli(capsys, "certify", "--framing", str(n), "--complexity", "2")
            assert code == 0
            payload = json.loads(out)
            assert (payload["n"], payload["witness"], payload["bound"]) == (n, witness, 2)

    def test_exhausted_witness_budget(self, capsys):
        code, _, err = run_cli(
            capsys,
            "certify", "--framing", "2", "--complexity", "2", "--max-order", "2",
        )
        assert code == 1
        assert "witness root of order <= 2 for n = 2" in err
        assert "at all 1 prime-order roots tried" in err
        assert "retry" not in err

    @pytest.mark.parametrize("max_order", ["1", "-5"])
    def test_order_bound_under_two(self, capsys, max_order):
        code, out, err = run_cli(capsys, "certify", "--framing", "3", "--complexity", "1",
                                 "--max-order", max_order)
        assert code == 1
        assert not out
        assert f"max_order {max_order} is under the lower bound of 2" in err
        assert "positive" not in err

    def test_no_root_can_pass_the_grid_rule(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--framing", "200", "--complexity", "1",
                               "--max-order", "1000000")
        assert code == 0
        assert json.loads(out)["witness"] == {"k": 1, "m": 3}

    def test_huge_order_bound_answers(self, capsys):
        # the product of the primes <= 59 has no witness of order <= 60
        n = str(math.prod(p for p in range(2, 60) if all(p % d for d in range(2, p))))
        code, _, err = run_cli(capsys, "certify", "--framing", n, "--complexity", "1")
        assert code == 1
        assert "at all 423 prime-order roots tried" in err
        code, out, _ = run_cli(capsys, "certify", "--framing", n, "--complexity", "1",
                               "--max-order", str(10**12))
        assert code == 0
        assert json.loads(out)["witness"] == {"k": 19, "m": 73}


class TestMatrixKeys:
    @pytest.mark.parametrize("before, after", [
        (["alexander"], []), (["signature", "--seifert"], []), (["lt"], ["--root", "1/3"]),
    ], ids=["alexander", "signature", "lt"])
    def test_unknown_matrix_key_is_malformed(self, capsys, write_json, before, after):
        path = write_json("bad.json", {**TREFOIL_DOC, "transposed": True})
        code, out, err = run_cli(capsys, *before, path, *after)
        assert code == 2
        assert not out
        assert "unknown key 'transposed' in the matrix" in err


class TestDuplicateKeys:
    """A key given twice in one JSON object is refused, never collapsed to its last value."""

    @pytest.mark.parametrize("argv, text, key", [
        (("signature", "--seifert"),
         '{"dim": 2, "entries": [[-1, 1], [0, -1]], "entries": [[1, 0], [0, 1]]}', "entries"),
        (("signature", "--goeritz"),
         '{"bands": [{"orientable": false, "half_twists": 3, "half_twists": -4}],'
         ' "crossings": [[0]]}', "half_twists"),
        (("pattern", "eval", "P_1", "--assignment"), '{"P": {"table": {"1": 5, "1": 7}}}', "1"),
        (("pattern", "eval", "Q_1", "--assignment"),
         '{"Q": {"family": {"root": "1/3", "root": "5/11"}}}', "root"),
    ], ids=["matrix", "bands", "table", "family"])
    def test_duplicate_key_is_malformed(self, capsys, tmp_path, argv, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert not out
        assert f"error: duplicate key {key!r}" in err


class TestMalformedMatrices:
    """Every subcommand that reads JSON exits 2 with one error line on input it cannot use."""

    READERS = {
        "alexander": (("alexander",), ()),
        "signature-seifert": (("signature", "--seifert"), ()),
        "signature-goeritz": (("signature", "--goeritz"), ()),
        "lt": (("lt",), ("--root", "1/3")),
        "goeritz": (("goeritz",), ()),
        "pattern-eval": (("pattern", "eval", "P", "--assignment"), ()),
    }

    @pytest.mark.parametrize("reader", READERS)
    def test_json_nested_too_deeply(self, capsys, tmp_path, reader):
        # a RecursionError traceback with exit 1 before the decoder named the file
        before, after = self.READERS[reader]
        path = tmp_path / "deep.json"
        path.write_text('{"dim": 1, "entries": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(capsys, *before, str(path), *after)
        assert code == 2
        assert not out
        assert err.splitlines() == [f"error: {path}: JSON nested too deeply to decode"]

    @pytest.mark.parametrize("reader", ["alexander", "signature-seifert", "lt", "goeritz"])
    @pytest.mark.parametrize("rows, message", [
        ([[-1, 1], [0.0, -1]], "expected integer {} entry at (1,0), got 0.0"),
        ([[-1, 1], [0]], "{} must be 2x2, got no entry at (1,1)"),
    ], ids=["float", "ragged"])
    def test_entries_are_refused_by_position(self, capsys, write_json, reader, rows, message):
        before, after = self.READERS[reader]
        if reader == "goeritz":
            doc, what = {"bands": [{"orientable": False}] * 2, "crossings": rows}, "crossings"
        else:
            doc, what = {"dim": 2, "entries": rows}, "matrix"
        code, out, err = run_cli(capsys, *before, write_json("bad.json", doc), *after)
        assert code == 2
        assert not out
        assert err.splitlines() == ["error: " + message.format(what)]


class TestHugeInputsAreRefusedBriefly:
    """A refusal clips the value it echoes, so its one line stays short whatever the input's size."""

    CASES = {
        "alexander-entry": (["alexander", "FILE"], {"dim": 1, "entries": [[[0] * 200_000]]}),
        "alexander-key": (["alexander", "FILE"], {"dim": 1, "entries": [[0]], "k" * 100_000: 0}),
        "family-root": (["pattern", "eval", "P", "--assignment", "FILE"],
                        {"P": {"family": {"root": "1" * 100_000}}}),
        "table-value": (["pattern", "eval", "P", "--assignment", "FILE"],
                        {"P": {"table": {"0": [0] * 100_000}}}),
        "orientable": (["goeritz", "FILE"], {"bands": [{"orientable": [0] * 100_000}]}),
        "trailing-input": (["pattern", "normalize", "P" + ")" * 100_000], None),
        "framing-digits": (["certify", "--framing", "1" * 100_000, "--complexity", "1"], None),
        # two more echoes of the same kind: a duplicate key and a profile's atom name
        "duplicate-key": (["alexander", "FILE"], '{"%s": 0, "%s": 1}' % (("k" * 100_000,) * 2)),
        "profile-name": (["pattern", "eval", "P", "--assignment", "FILE"], {"P" * 100_000: 0}),
        # argparse's own refusals
        "invalid-choice": (["pattern", "x" * 100_000, "P"], None),
        "unrecognized-arguments": (["pattern", "normalize", "P", "x" * 100_000], None),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_2_with_a_short_error(self, tmp_path, case):
        argv, doc = self.CASES[case]
        if doc is not None:
            path = tmp_path / "huge.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            argv = [str(path) if arg == "FILE" else arg for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "shakekit.cli", *argv],
                              capture_output=True, timeout=60)
        assert proc.returncode == 2, proc.stderr[:1000]
        assert not proc.stdout
        assert len(proc.stderr) < 1000, proc.stderr[:1000]
        assert b"Traceback" not in proc.stderr
        assert b"characters in all)" in proc.stderr


N = "9" * 4000
LCM = math.lcm(*range(1, 61))
LCM_MULTIPLE = str(10**3996 // LCM * LCM)  # 3,996 digits, and no witness of order <= 60


class TestLongNumbersAreClipped:
    """A refusal clips each number it echoes, and keeps its other numbers, such as counts, whole."""

    CASES = {
        "complexity": (["certify", "--framing", "3", "--complexity", "-" + N], None, 1),
        "max-order": (["certify", "--framing", "3", "--complexity", "1", "--max-order", "-" + N],
                      None, 1),
        "power": (["pattern", "normalize", "P^-" + N], None, 2),
        "leaf-limit": (["pattern", "normalize", "P^" + N], None, 1),
        "undeclared-twist": (["pattern", "eval", "P_" + N, "--assignment", "FILE"],
                             {"P": {"table": {"0": 1}}}, 1),
        "table-value": (["pattern", "eval", "P", "--assignment", "FILE"],
                        '{"P": {"table": {"%s": 1.5}}}' % N, 2),
        "singular-root": (["lt", "--root", "1/6" + N, "FILE"], TREFOIL_DOC, 1),
        "witness-not-found": (["certify", "--framing", LCM_MULTIPLE, "--complexity", "1"], None, 1),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_short_line(self, capsys, tmp_path, case):
        argv, doc, want = self.CASES[case]
        if doc is not None:
            path = tmp_path / "input.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            argv = [str(path) if arg == "FILE" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == want
        assert not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 300, err
        assert "characters in all)" in err

    def test_counts_stay_whole(self, capsys):
        _, _, err = run_cli(capsys, "certify", "--framing", LCM_MULTIPLE, "--complexity", "1")
        assert f"for n = {LCM_MULTIPLE[:30]}" in err
        assert "(3996 characters in all)" in err
        assert err.endswith(", at all 423 prime-order roots tried\n")


class TestIntegersPastTheDigitLimit:
    """An integer past str-to-int's digit limit exits 2, naming where it was."""

    LIMIT = sys.get_int_max_str_digits()
    DIGITS = "9" * (LIMIT + 1)

    @pytest.mark.parametrize("expression", ["P^" + DIGITS, "P o Q_-" + DIGITS])
    def test_pattern_integer(self, capsys, expression):
        code, out, err = run_cli(capsys, "pattern", "normalize", expression)
        assert code == 2 and not out
        at = expression.index("^" if "^" in expression else "_") + 1
        assert err == (f"error: expected at most {self.LIMIT} digits, got {self.LIMIT + 1} "
                       f"(at position {at})\n")

    def test_integer_option(self, capsys):
        # an option's ASCII digits past the limit are refused by argparse, which exits 2
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--framing", self.DIGITS, "--complexity", "1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument --framing: expected at most {self.LIMIT} digits, got '999" in err

    def test_root_option(self, capsys, write_json):
        path = write_json("trefoil.json", TREFOIL_DOC)
        code, out, err = run_cli(capsys, "lt", path, "--root", "1/" + self.DIGITS)
        assert code == 2 and not out
        assert err.startswith("error: root '1/999")
        assert err.endswith(f"characters in all): expected at most {self.LIMIT} digits "
                            "in k and in m\n")

    def test_family_root(self, capsys, write_json):
        path = write_json("assign.json", {"P": {"family": {"root": self.DIGITS + "/1"}}})
        code, out, err = run_cli(capsys, "pattern", "eval", "P", "--assignment", path)
        assert code == 2 and not out
        assert err.startswith("error: root '999") and "in k and in m" in err

    def test_table_key(self, capsys, tmp_path):
        path = tmp_path / "assign.json"
        path.write_text('{"P": {"table": {"-%s": 1}}}' % self.DIGITS)
        code, out, err = run_cli(capsys, "pattern", "eval", "P", "--assignment", str(path))
        assert code == 2 and not out
        assert err.startswith("error: profile twist '-999")
        assert err.endswith(f": expected at most {self.LIMIT} digits\n")

    @pytest.mark.parametrize("argv, text", [
        (["alexander"], '{"dim": 2, "entries": [[-1, 1], [0, -%s]]}'),
        (["goeritz"], '{"bands": [{"orientable": false, "half_twists": %s}]}'),
        (["pattern", "eval", "P", "--assignment"], '{"P": {"table": {"0": %s}}}'),
    ], ids=["matrix", "bands", "assignment"])
    def test_json_literal(self, capsys, tmp_path, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text % self.DIGITS)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2 and not out
        assert err == (f"error: {path}: expected at most {self.LIMIT} digits in an integer, "
                       f"got {self.LIMIT + 1}\n")


class TestOutputsPastTheDigitLimit:
    """An integer past int-to-str's digit limit, read or computed, is refused in one short line.

    No message converts it: a refusal describes it by its digit count, and an
    output integer past the limit is a DomainError that names the limit.
    """

    LIMIT = sys.get_int_max_str_digits()
    N = "9" * LIMIT  # the largest integer the parser reads
    M = str(6 * 10 ** (LIMIT - 1) - 1)  # Q_M is the family member 1 + M, and 6 divides it

    CASES = {
        "normal-form-twist": (["pattern", "normalize", f"(P_{N})_{N}"], None,
                              f"output integer <an int of {LIMIT + 1} digits> is past the limit"),
        "leaf-count": (["pattern", "normalize", f"(P^{N})^{N}"], None,
                       f"normal form would have <an int of {2 * LIMIT} digits> leaves"),
        "undeclared-twist": (["pattern", "eval", f"(P_{N})_{N}", "--assignment", "FILE"],
                             {"P": {"table": {"1": 3}}},
                             f"not declared at twist <an int of {LIMIT + 1} digits>"),
        "eval-value": (["pattern", "eval", "P^2", "--assignment", "FILE"],
                       '{"P": {"table": {"0": %s}}}' % N,
                       f"an output integer is past the limit of {LIMIT} digits"),
        "singular-index": (["pattern", "eval", f"Q_{M}", "--assignment", "FILE"],
                           {"Q": {"family": {"root": "1/6"}}},
                           f"leading minors D_<an int of {LIMIT + 1} digits> = "
                           f"D_<an int of {LIMIT + 1} digits> = 0 exactly"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_short_refusal(self, capsys, tmp_path, case):
        argv, doc, says = self.CASES[case]
        if doc is not None:
            path = tmp_path / "input.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            argv = [str(path) if arg == "FILE" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 300, err
        assert says in err
        assert "Exceeds the limit" not in err


def _refusals():
    omega = shakekit.UnitCirclePoint.root(1, 6)
    return {
        "DomainError": shakekit.DomainError("outside the domain"),
        "InvalidRoot": shakekit.InvalidRoot("the form vanishes identically at omega = 1"),
        "NearSingular": shakekit.NearSingular(omega, "form is singular at 1/6", 2, 0.0, 0.0),
        "OddDimension": shakekit.OddDimension("dimension 3 is odd"),
        "UnassignedAtom": shakekit.UnassignedAtom("P"),
        "WitnessNotFound": shakekit.WitnessNotFound(2, 2, 1),
    }


class TestExitCodes:
    """Exit 1 is exactly a DomainError; any other ValueError or OSError exits 2."""

    REFUSALS = _refusals()
    MALFORMED = {
        "PatternSyntaxError": shakekit.PatternSyntaxError("expected an integer", 2),
        "ValueError": ValueError("malformed"),
        "OSError": OSError(2, "No such file or directory"),
    }

    def raise_from_a_handler(self, monkeypatch, capsys, exc):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_verify", handler)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        return run_cli(capsys, "verify")

    def test_every_public_exception_is_named(self):
        public = {name for name in shakekit.__all__
                  if isinstance(getattr(shakekit, name), type)
                  and issubclass(getattr(shakekit, name), BaseException)}
        assert public == set(self.REFUSALS) | {"PatternSyntaxError"}

    @pytest.mark.parametrize("name", REFUSALS)
    def test_a_refusal_exits_1(self, monkeypatch, capsys, name):
        exc = self.REFUSALS[name]
        code, out, err = self.raise_from_a_handler(monkeypatch, capsys, exc)
        assert (code, out, err) == (1, "", f"error: {exc}\n")

    @pytest.mark.parametrize("name", MALFORMED)
    def test_other_value_and_os_errors_exit_2(self, monkeypatch, capsys, name):
        exc = self.MALFORMED[name]
        code, out, err = self.raise_from_a_handler(monkeypatch, capsys, exc)
        assert (code, out, err) == (2, "", f"error: {exc}\n")

    def test_an_arithmetic_error_propagates(self, monkeypatch, capsys):
        with pytest.raises(ArithmeticError, match="^no Hermitian form$"):
            self.raise_from_a_handler(monkeypatch, capsys, ArithmeticError("no Hermitian form"))

    def test_refusals_keep_their_former_bases(self):
        for exc in self.REFUSALS.values():
            assert isinstance(exc, shakekit.DomainError) and isinstance(exc, ValueError)
        assert isinstance(self.REFUSALS["NearSingular"], ArithmeticError)
        assert isinstance(self.REFUSALS["WitnessNotFound"], LookupError)
        assert isinstance(self.REFUSALS["UnassignedAtom"], LookupError)
        assert not isinstance(self.MALFORMED["PatternSyntaxError"], shakekit.DomainError)


def test_a_short_invalid_choice_is_refused_in_full(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["foo"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'foo' (choose from 'alexander', " in err and "'verify')" in err


class TestClosedStdout:
    """A stdout closed before the answer is written ends the CLI with exit 1 and no traceback."""

    def start(self, *argv):
        return subprocess.Popen([sys.executable, "-m", "shakekit.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    # `shakekit verify | head -1` cannot be tested as such: verify's table is
    # one write that fits in a pipe, so it is written before head closes it
    @pytest.mark.parametrize("argv", [("verify",), ("certify", "--framing", "3", "--complexity", "2")])
    def test_closed_before_the_answer(self, argv):
        proc = self.start(*argv)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert not err, err[-1000:]
        assert proc.returncode == 1


class TestBeyondTheFloatRange:
    """Integers past the float range are answered exactly at a root of unity, or refused."""

    BIG = 10**400

    def test_certify(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--framing", str(self.BIG), "--complexity", "2")
        assert code == 0
        payload = json.loads(out)
        assert (payload["n"], payload["witness"], payload["bound"]) == (self.BIG, {"k": 5, "m": 11}, 2)

    def test_family_profile_at_a_huge_twist(self, capsys, write_json):
        # omega^11 = 1, so Q_(10^400) takes the value of Q_(k) with 1 + k = (1 + 10^400) mod 11 + 11
        path = write_json("asg.json", {"Q": {"family": {"root": "5/11"}}})
        small = (1 + self.BIG) % 11 + 10
        _, out, _ = run_cli(capsys, "pattern", "eval", f"Q_{small}", "--assignment", path)
        code, big_out, _ = run_cli(capsys, "pattern", "eval", f"Q_{self.BIG}", "--assignment", path)
        assert code == 0
        assert json.loads(big_out)["value"] == json.loads(out)["value"] == 1

    def test_family_root_of_huge_order(self, capsys, write_json):
        # t^m = 1 with m = 10^400 folds Delta_(1 + 10^400) to Delta_1, which
        # is near Delta_1(1) = 1 > 0 at the root 1/10^400: the answer is exact
        path = write_json("asg.json", {"Q": {"family": {"root": f"1/{self.BIG}"}}})
        code, out, _ = run_cli(capsys, "pattern", "eval", "Q_1", "--assignment", path)
        assert code == 0
        assert json.loads(out)["value"] == 0
        code, out, err = run_cli(capsys, "pattern", "eval", f"Q_{self.BIG}", "--assignment", path)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == 0

    def test_lt_at_a_root_of_huge_order(self, capsys, write_json):
        path = write_json("trefoil.json", TREFOIL_DOC)
        code, out, err = run_cli(capsys, "lt", path, "--root", f"1/{self.BIG}")
        assert (code, out) == (1, "")
        assert err.startswith("error: form is near-singular")


class TestVerify:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "10/10 checks passed"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 10
        assert all(c["passed"] for c in payload["checks"])

    def test_corrupted_fixture_fails_honestly(self, capsys, monkeypatch):
        real = verify.an_family
        monkeypatch.setattr(verify, "an_family",
                            lambda n: [[0] * 4 for _ in range(4)] if n == 1 else real(n))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL" in out


def test_cli_import_leaves_numpy_out():
    code = "import sys, shakekit.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestDeterminism:
    def run_subprocess(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "shakekit.cli", *argv],
            capture_output=True,
            text=True,
        )

    def test_certify_is_byte_identical(self):
        first = self.run_subprocess("certify", "--framing", "3", "--complexity", "2")
        second = self.run_subprocess("certify", "--framing", "3", "--complexity", "2")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_verify_json_is_byte_identical(self):
        first = self.run_subprocess("verify", "--json")
        second = self.run_subprocess("verify", "--json")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
