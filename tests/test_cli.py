"""End-to-end tests of the command-line front end.

Everything runs in-process through main(argv); stdout and stderr are
captured with capsys, and exit codes are asserted directly.
"""

import json
from pathlib import Path

import pytest

from bockstein.cli import main


EXAMPLE1 = """\
prime 3
nmax 20
generator e 1
generator f 2
differential f = 3 e
"""

ABC = """\
prime 3
nmax 14
generator a 5
generator b 6
generator c 2
differential b = 3 a
"""

TWIST = "map a = a\nmap b = 1 b + 1 c^3\nmap c = c\n"
IDMAP = "map a = a\nmap b = b\nmap c = c\n"

BAD_ALGEBRA = """\
prime 3
nmax 8
generator x 1
generator y 3
bracket x y = 1 x
"""


@pytest.fixture
def ex1(tmp_path):
    f = tmp_path / "example1.dgl"
    f.write_text(EXAMPLE1)
    return str(f)


@pytest.fixture
def abc(tmp_path):
    f = tmp_path / "abc.dgl"
    f.write_text(ABC)
    return str(f)


class TestValidate:
    def test_valid(self, ex1, capsys):
        assert main(["validate", ex1]) == 0
        assert "valid DGL over Z_(3)" in capsys.readouterr().out

    def test_invalid_algebra_exits_1(self, tmp_path, capsys):
        f = tmp_path / "bad.dgl"
        f.write_text(BAD_ALGEBRA)
        assert main(["validate", str(f)]) == 1
        assert "invalid: bracket degree mismatch" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        f = tmp_path / "bad.dgl"
        f.write_text("prime 3\nnmax 4\ngenerator a 1\n"
                     "differential a = 1/3 a\n")
        assert main(["validate", str(f)]) == 2
        assert "not in Z_(3)" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "/nonexistent.dgl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_prime_exits_2(self, ex1, capsys):
        assert main(["validate", ex1, "--prime", "4"]) == 2
        assert "4 is not an odd prime" in capsys.readouterr().err


    def test_negative_nmax_line_exits_2(self, tmp_path, capsys):
        f = tmp_path / "neg.dgl"
        f.write_text("prime 3\nnmax -2\ngenerator e 1\n")
        assert main(["validate", str(f)]) == 2
        assert "line 2: nmax must be ≥ 0, got -2" in capsys.readouterr().err

    def test_nmax_zero_is_valid(self, tmp_path, capsys):
        f = tmp_path / "zero.dgl"
        f.write_text("prime 3\nnmax 0\ngenerator e 1\n")
        assert main(["validate", str(f)]) == 0
        assert main(["bss", str(f)]) == 0


def exit_code(argv) -> int:
    """Exit code of main(argv), including argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestBss:
    def test_lie_pages(self, ex1, capsys):
        assert main(["bss", ex1, "--target", "lie", "--rmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "β^1 [f] -> [e]" in out
        assert "page E^2:" in out
        assert "collapsed at page 2" in out

    def test_ul_pages(self, ex1, capsys):
        assert main(["bss", ex1, "--target", "ul", "--rmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "β^2 [f^3] -> [e*f^2]" in out
        assert "degree 17: [e*f^8]" in out
        assert "degree 18: [f^9]" in out

    def test_rmax_below_1_exits_2(self, ex1, capsys):
        assert exit_code(["bss", ex1, "--rmax", "0"]) == 2
        assert "--rmax: must be ≥ 1, got 0" in capsys.readouterr().err

    def test_negative_nmax_flag_exits_2(self, ex1, capsys):
        assert exit_code(["bss", ex1, "--nmax", "-1"]) == 2
        assert "--nmax: must be ≥ 0, got -1" in capsys.readouterr().err

    def test_window_warning(self, ex1, capsys):
        main(["bss", ex1, "--target", "ul", "--rmax", "2"])
        assert "raise nmax to at least 21" in capsys.readouterr().out

    def test_json_report(self, ex1, capsys):
        assert main(["--json", "bss", ex1, "--target", "lie",
                     "--rmax", "1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["stable_page"] == 2
        assert rep["1"]["classes"]["2"] == ["[f]"]

    def test_check_envelopes(self, abc, capsys):
        assert main(["bss", abc, "--check-envelopes", "--rmax", "2"]) == 0
        assert "page/enveloping consistency: ok" in capsys.readouterr().out


    def test_validated_once(self, ex1, capsys, monkeypatch):
        calls = _count_axiom_checks(monkeypatch)
        assert main(["bss", ex1, "--check-envelopes"]) == 0
        assert calls == [1]


def _count_axiom_checks(monkeypatch) -> list:
    """Patch DgLie's axiom check to record one entry per computation."""
    from bockstein.lie import DgLie
    calls, check = [], DgLie._check_axioms

    def counted(L):
        calls.append(1)
        return check(L)

    monkeypatch.setattr(DgLie, "_check_axioms", counted)
    return calls


class TestHomology:
    def test_ul(self, ex1, capsys):
        assert main(["homology", ex1]) == 0
        out = capsys.readouterr().out
        assert "H_0: free rank 1, mod-p dim 1" in out
        assert "H_5: free rank 0, torsion Z/3^2, mod-p dim 1" in out
        assert "H_17: free rank 0, torsion Z/3^3, mod-p dim 1" in out

    def test_lie(self, ex1, capsys):
        assert main(["homology", ex1, "--target", "lie"]) == 0
        out = capsys.readouterr().out
        assert "H_1: free rank 0, torsion Z/3^1, mod-p dim 1" in out


class TestCochains:
    def test_dual_generators_and_differential(self, ex1, capsys):
        assert main(["cochains", ex1]) == 0
        out = capsys.readouterr().out
        assert "generator ve degree 2" in out
        assert "generator vf degree 3" in out
        assert "d(ve) = 3 vf" in out

    def test_negative_nmax_flag_exits_2(self, ex1, capsys):
        assert exit_code(["cochains", ex1, "--nmax", "-1"]) == 2
        assert "--nmax: must be ≥ 0, got -1" in capsys.readouterr().err


class TestCheckMorphism:
    def test_identity_is_lie_type(self, abc, tmp_path, capsys):
        m = tmp_path / "id.map"
        m.write_text(IDMAP)
        assert main(["check-morphism", abc, abc, str(m)]) == 0
        out = capsys.readouterr().out
        assert "Hopf morphism: valid" in out
        assert "lie type: yes" in out

    def test_frobenius_twist_mod_p(self, abc, tmp_path, capsys):
        m = tmp_path / "twist.map"
        m.write_text(TWIST)
        assert main(["check-morphism", abc, abc, str(m), "--mod-p"]) == 0
        out = capsys.readouterr().out
        assert "lie type: no" in out
        assert "('b', {'b': 1, 'c^3': 1})" in out
        assert "('gamma', ((2, 1),), 3)" in out

    @pytest.mark.parametrize("change, values", [
        (("prime 3", "prime 5"), "prime: 3 and 5"),
        (("nmax 14", "nmax 8"), "nmax: 14 and 8"),
        (("nmax 14", "nmax 18"), "nmax: 14 and 18"),
    ], ids=["prime", "smaller-target-window", "larger-target-window"])
    def test_mismatched_source_and_target_exit_2(self, abc, tmp_path, capsys,
                                                 change, values):
        # without --prime/--nmax each file keeps its own ring and window
        other = tmp_path / "other.dgl"
        other.write_text(ABC.replace(*change))
        m = tmp_path / "id.map"
        m.write_text(IDMAP)
        assert main(["check-morphism", abc, str(other), str(m)]) == 2
        assert f"source and target differ in {values}" in \
            capsys.readouterr().err

    def test_each_file_is_validated_once(self, abc, tmp_path, capsys,
                                         monkeypatch):
        # the F_p copies made for --mod-p keep the Z_(3) verdict
        calls = _count_axiom_checks(monkeypatch)
        m = tmp_path / "twist.map"
        m.write_text(TWIST)
        assert main(["check-morphism", abc, abc, str(m), "--mod-p"]) == 0
        assert calls == [1, 1]

    def test_twist_not_hopf_over_zp(self, abc, tmp_path, capsys):
        # over Z_(3) the binomial middle terms survive, so the twisted
        # map fails the coalgebra check outright
        m = tmp_path / "twist.map"
        m.write_text(TWIST)
        assert main(["check-morphism", abc, abc, str(m)]) == 1
        assert "not a Hopf morphism" in capsys.readouterr().err


class TestExamples:
    def test_example1_outputs(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["examples", "example1", "--out", str(out)]) == 0
        text = (out / "example1.expected").read_text()
        assert "β^2 [f^3] -> [e*f^2]" in text
        assert "Lie pages:" in text
        dgl = (out / "example1.dgl").read_text()
        assert "differential f = 3 e" in dgl

    def test_example1_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["examples", "example1", "--out", str(a), "--nmax", "8",
              "--rmax", "1"])
        main(["examples", "example1", "--out", str(b), "--nmax", "8",
              "--rmax", "1"])
        assert ((a / "example1.expected").read_bytes()
                == (b / "example1.expected").read_bytes())
        assert ((a / "example1.dgl").read_bytes()
                == (b / "example1.dgl").read_bytes())

    def test_example2_morphism_report(self, tmp_path, capsys):
        out = tmp_path / "e2"
        assert main(["examples", "example2", "--out", str(out),
                     "--nmax", "14"]) == 0
        text = (out / "example2.expected").read_text()
        assert ("automorphism b -> b + c^3 of U L_ab(a,b,c) over F_3: "
                "lie type no") in text
        assert "lie type no" in text
        assert "identity comparison: lie type yes" in text

    def test_model_quasi_iso(self, tmp_path, capsys):
        out = tmp_path / "p61"
        assert main(["examples", "model", "--out", str(out)]) == 0
        text = (out / "model.expected").read_text()
        assert "model x1 -> x^3, y1 -> x^2*y: quasi-isomorphism" in text
        assert "H(UL; F_p) dims by degree: 0:1 5:1 6:1 11:1 12:1" in text

    @pytest.mark.parametrize("name", ["example1", "example2", "model"])
    def test_report_matches_golden(self, name, tmp_path, capsys):
        # tests/golden holds `bockstein examples NAME` (.expected) and
        # `bockstein --json examples NAME` (.json) for the default options
        golden = Path(__file__).parent / "golden"
        assert main(["examples", name, "--out", str(tmp_path)]) == 0
        assert ((tmp_path / f"{name}.expected").read_bytes()
                == (golden / f"{name}.expected").read_bytes())
        capsys.readouterr()
        assert main(["--json", "examples", name, "--out", str(tmp_path)]) == 0
        assert (capsys.readouterr().out.encode()
                == (golden / f"{name}.json").read_bytes())

    def test_nonabelian16_report_matches_golden(self, capsys):
        # tests/golden/nonabelian16.json is `bockstein --json bss
        # nonabelian16.dgl --target ul --rmax 3` of the dense elimination:
        # UL of total dim 1,416, torsion pairs and [x,y] = z with ∂w = 3z
        golden = Path(__file__).parent / "golden"
        assert main(["--json", "bss", str(golden / "nonabelian16.dgl"),
                     "--target", "ul", "--rmax", "3"]) == 0
        assert (capsys.readouterr().out.encode()
                == (golden / "nonabelian16.json").read_bytes())

    def test_non_prime_exits_2(self, tmp_path, capsys):
        # 0 is a given prime, not a missing one: no fallback to p = 3
        for prime in ("4", "0"):
            assert main(["examples", "example1", "--prime", prime,
                         "--out", str(tmp_path)]) == 2
            assert f"{prime} is not an odd prime" in capsys.readouterr().err
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["example1", "model"])
    def test_nmax_zero_is_used(self, name, tmp_path, capsys):
        assert main(["examples", name, "--nmax", "0", "--rmax", "1",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / f"{name}.expected").read_text()
        assert text.startswith(f"{name}: p = 3, nmax = 0\n")

    def test_rmax_below_1_exits_2(self, tmp_path, capsys):
        assert exit_code(["examples", "example1", "--rmax", "0",
                          "--out", str(tmp_path)]) == 2
        assert "--rmax: must be ≥ 1, got 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_roundtrip_written_dgl(self, tmp_path, capsys):
        out = tmp_path / "r"
        main(["examples", "example1", "--out", str(out), "--nmax", "8",
              "--rmax", "1"])
        capsys.readouterr()
        assert main(["validate", str(out / "example1.dgl")]) == 0
