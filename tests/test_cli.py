import json
import math
import subprocess
import sys

import pytest

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

    def test_non_seifert_matrix_is_input_error(self, capsys, write_json):
        path = write_json("zeros.json", {"dim": 2, "entries": [[0, 0], [0, 0]]})
        code, _, err = run_cli(capsys, "alexander", path)
        assert code == 2
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

    def test_theta_route(self, capsys, write_json):
        path = write_json("a2.json", A2_DOC)
        code, out, _ = run_cli(capsys, "lt", path, "--theta", str(math.pi))
        assert code == 0
        assert json.loads(out)["signature"] == 2

    def test_near_singular_root(self, capsys, write_json):
        path = write_json("trefoil.json", TREFOIL_DOC)
        code, _, err = run_cli(capsys, "lt", path, "--root", "1/6")
        assert code == 1
        assert "near-singular" in err
        assert "perturb" in err

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

    def test_fifth_root_on_trefoil(self, capsys, write_json):
        path = write_json("trefoil.json", TREFOIL_DOC)
        code, _, _ = run_cli(capsys, "lt", path, "--root", "1/5")
        assert code == 0

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_is_malformed(self, capsys, write_json, theta):
        path = write_json("trefoil.json", TREFOIL_DOC)
        code, out, err = run_cli(capsys, "lt", path, f"--theta={theta}")
        assert code == 2
        assert not out
        assert "finite" in err


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

    @pytest.mark.parametrize("key", ["1_0", " 1", "1.0", "t"])
    def test_table_keys_are_not_coerced(self, capsys, write_json, key):
        path = write_json("asg.json", {"P": {"table": {key: 1}}})
        code, out, err = run_cli(capsys, "pattern", "eval", "P_10", "--assignment", path)
        assert code == 2
        assert not out
        assert "profile twist" in err

    @pytest.mark.parametrize("spec", [
        {"table": [1, 2]}, {"family": "1/3"}, {"family": {"root": 3}}, {},
    ])
    def test_malformed_profiles(self, capsys, write_json, spec):
        path = write_json("asg.json", {"P": spec})
        code, out, err = run_cli(capsys, "pattern", "eval", "P", "--assignment", path)
        assert code == 2
        assert not out
        assert "profile for 'P'" in err

    def test_eval_unassigned_atom(self, capsys):
        code, _, err = run_cli(capsys, "pattern", "eval", "P")
        assert code == 1
        assert "P" in err

    def test_oversized_power_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "pattern", "normalize", "P^100000000")
        assert code == 1
        assert not out
        assert "limit of 2000000" in err

    def test_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "pattern", "normalize", "P^0")
        assert code == 2
        assert "position" in err


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

    def test_oversized_complexity_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "certify", "--framing", "2", "--complexity", "100000000"
        )
        assert code == 1
        assert not out
        assert err.startswith("error: normal form would have 100000000 leaves")

    def test_exhausted_witness_budget(self, capsys):
        code, _, err = run_cli(
            capsys,
            "certify", "--framing", "1", "--complexity", "2", "--max-order", "1",
        )
        assert code == 1
        assert "witness" in err


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

    def test_corrupted_fixture_fails_honestly(self, capsys, write_json):
        broken = {"dim": 4, "entries": [[0] * 4 for _ in range(4)]}
        path = write_json("broken-a1.json", broken)
        code, out, _ = run_cli(capsys, "verify", "--a1-fixture", path)
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
