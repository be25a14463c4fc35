"""Tests for the .dgl text format and generator-map parsing."""

import pytest

from bockstein.dglfile import DglParseError, emit_dgl, parse_dgl, parse_map
from bockstein.lie import PbwAlgebra


EXAMPLE = """\
# two torsion generators and a bracket
prime 3
nmax 14

generator e 5
generator f 6
generator c 2
bracket e f = 2 c
differential f = 3 e + 1/2 c
"""


class TestParse:
    def test_basic(self):
        L = parse_dgl(EXAMPLE)
        assert L.ring.p == 3
        assert L.n_max == 14
        assert L.names == ["e", "f", "c"]
        assert L.degrees == [5, 6, 2]
        assert L._brackets == {(0, 1): {2: L.ring.of(2)}}
        assert L.d_gen[1][0] == L.ring.of(3)
        assert L.d_gen[1][2] == L.ring.of("1/2")

    def test_roundtrip_identity(self):
        L = parse_dgl(EXAMPLE)
        text = emit_dgl(L)
        assert emit_dgl(parse_dgl(text)) == text

    def test_zero_rhs_and_term_merging(self):
        L = parse_dgl("prime 5\nnmax 6\ngenerator x 1\ngenerator y 2\n"
                      "differential y = 0\n"
                      "bracket x x = 2 y + 3 y\n")
        assert L.d_gen.get(1, {}) == {}
        assert L._brackets[(0, 0)] == {1: L.ring.of(5)}

    def test_comments_and_blank_lines(self):
        L = parse_dgl("\n# header\nprime 3 # trailing\nnmax 4\n"
                      "generator a 1\n\n")
        assert L.names == ["a"]

    @pytest.mark.parametrize("text,fragment", [
        ("nmax 4\ngenerator a 1\n", "missing 'prime'"),
        ("prime 3\ngenerator a 1\n", "missing 'nmax'"),
        ("prime 4\nnmax 4\n", "prime"),
        ("prime 3\nnmax 4\nfoo bar\n", "unknown directive"),
        ("prime 3\nnmax 4\ngenerator a 1\ngenerator a 2\n", "duplicate"),
        ("prime 3\nnmax 4\ngenerator a 1\ndifferential b = 1 a\n",
         "unknown generator"),
        ("prime 3\nnmax 4\ngenerator a 1\ngenerator b 2\n"
         "differential b = 1/3 a\n", "not in Z_(3)"),
        ("prime 3\nnmax 4\ngenerator a 1\ngenerator b 2\n"
         "differential b = x y a\n", "cannot parse term"),
        ("prime 3\nnmax 4\ngenerator a 1\nbracket a = 1 a\n",
         "expected 'bracket"),
        ("prime 3\nnmax 4\ngenerator a 1\ndifferential a 1 a\n",
         "expected '='"),
        ("prime 3\nprime 5\nnmax 4\n", "line 2: duplicate 'prime'"),
        ("prime 3\nnmax 8\nnmax 6\n", "line 3: duplicate 'nmax'"),
        ("prime 3\nnmax 4\ngenerator e 1\ngenerator f 2\n"
         "differential f = 3 e\ndifferential f = 9 e\n",
         "line 6: duplicate differential of 'f'"),
        ("prime 3\nnmax 4\ngenerator x 1\ngenerator y 1\ngenerator z 2\n"
         "bracket x y = 1 z\nbracket y x = 1 z\nbracket x y = 2 z\n",
         "line 8: duplicate bracket x y"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(DglParseError) as exc:
            parse_dgl(text)
        assert fragment in str(exc.value)

    def test_error_reports_line_number(self):
        with pytest.raises(DglParseError, match="line 4"):
            parse_dgl("prime 3\nnmax 4\ngenerator a 1\nbogus\n")

    def test_no_axiom_validation_at_parse_time(self):
        # degree-inhomogeneous differential parses; validate() flags it
        L = parse_dgl("prime 3\nnmax 6\ngenerator a 1\ngenerator b 4\n"
                      "differential b = 1 a\n")
        assert L.validate()


class TestMaps:
    def setup_method(self):
        self.L = parse_dgl("prime 3\nnmax 12\ngenerator a 5\n"
                           "generator b 6\ngenerator c 2\n")
        self.alg = PbwAlgebra(self.L)

    def test_twist_map(self):
        images = parse_map("map a = a\nmap b = 1 b + 1 c^3\nmap c = c\n",
                           self.alg, self.alg)
        one = self.L.ring.one
        assert images[1] == {(1,): one, (2, 2, 2): one}

    def test_product_monomial(self):
        images = parse_map("map a = a\nmap b = 2 a*c^2\nmap c = 0\n",
                           self.alg, self.alg)
        assert images[1] == {(0, 2, 2): self.L.ring.of(2)}
        assert images[2] == {}

    def test_missing_generator(self):
        with pytest.raises(DglParseError, match="no image"):
            parse_map("map a = a\nmap b = b\n", self.alg, self.alg)

    def test_duplicate_assignment(self):
        with pytest.raises(DglParseError, match="mapped twice"):
            parse_map("map a = a\nmap a = 2 a\nmap b = b\nmap c = c\n",
                      self.alg, self.alg)

    def test_odd_generator_power_rejected(self):
        with pytest.raises(DglParseError, match="odd generator"):
            parse_map("map a = a^3\nmap b = b\nmap c = c\n",
                      self.alg, self.alg)

    def test_unknown_target_generator(self):
        with pytest.raises(DglParseError, match="unknown generator"):
            parse_map("map a = z\nmap b = b\nmap c = c\n",
                      self.alg, self.alg)
