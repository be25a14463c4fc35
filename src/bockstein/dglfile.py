"""Line-oriented text format for DGL presentations and generator maps.

A .dgl file describes a differential graded Lie algebra over Z_(p):

    # comments and blank lines are ignored
    prime 3
    nmax 20
    generator e 1
    generator f 2
    bracket x y = 1 z
    differential f = 3 e

Coefficients are arbitrary-precision integers or fractions "a/b" with b
coprime to p; no floating point anywhere.  Terms on a right-hand side are
separated by " + ", each term an optional coefficient followed by a
generator name.  Map files use the same term syntax but allow PBW
monomials like c^3 or e*f^2 on the right:

    map b = 1 b + 1 c^3

Emit-then-parse is the identity: generators keep file order, bracket and
differential lines are sorted, coefficients are printed in lowest terms.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .lie import DgLie
from .scalars import RingError, ZpLocal, accumulate


class DglParseError(ValueError):
    pass


_COEFF = re.compile(r"^-?\d+(?:/\d+)?$")
_ATOM = re.compile(r"^([A-Za-z_][A-Za-z0-9_']*)(?:\^(\d+))?$")


def _fail(ln: int, msg: str):
    raise DglParseError(f"line {ln}: {msg}")


def _parse_coeff(tok: str, ring, ln: int):
    if not _COEFF.match(tok):
        _fail(ln, f"bad coefficient {tok!r}")
    try:
        return ring.of(Fraction(tok))
    except (RingError, ZeroDivisionError) as exc:
        _fail(ln, f"coefficient {tok!r} not in Z_({ring.p}): {exc}")


def _parse_terms(rhs: str, ln: int) -> list:
    """[(coeff string or None, monomial string)]; '0' means no terms."""
    rhs = rhs.strip()
    if rhs == "0":
        return []
    out = []
    for term in rhs.split(" + "):
        toks = term.split()
        if len(toks) == 1:
            out.append((None, toks[0]))
        elif len(toks) == 2:
            out.append((toks[0], toks[1]))
        else:
            _fail(ln, f"cannot parse term {term.strip()!r}")
    return out


def _parse_monomial(tok: str, names: dict, degrees: list, ln: int) -> tuple:
    """PBW monomial as a sorted tuple of generator indices."""
    letters = []
    for atom in tok.split("*"):
        m = _ATOM.match(atom)
        if not m:
            _fail(ln, f"bad monomial {tok!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if name not in names:
            _fail(ln, f"unknown generator {name!r}")
        if exp < 1:
            _fail(ln, f"bad exponent in {tok!r}")
        i = names[name]
        if exp > 1 and degrees[i] % 2:
            _fail(ln, f"odd generator {name!r} cannot have exponent {exp}")
        letters.extend([i] * exp)
    letters.sort()
    for a, b in zip(letters, letters[1:]):
        if a == b and degrees[a] % 2:
            _fail(ln, f"odd generator repeated in {tok!r}")
    return tuple(letters)


def parse_dgl(text: str) -> DgLie:
    """Parse a .dgl file into a DgLie over Z_(p).  Does not validate the
    algebra axioms; call .validate() on the result for that."""
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((ln, line))
    p = n_max = None
    gens = []
    names = {}
    rest = []
    for ln, line in lines:
        toks = line.split(None, 1)
        key, body = toks[0], (toks[1] if len(toks) > 1 else "")
        if key == "prime":
            if p is not None:
                _fail(ln, "duplicate 'prime' line")
            try:
                p = int(body)
            except ValueError:
                _fail(ln, f"bad prime {body!r}")
        elif key == "nmax":
            if n_max is not None:
                _fail(ln, "duplicate 'nmax' line")
            try:
                n_max = int(body)
            except ValueError:
                _fail(ln, f"bad nmax {body!r}")
            if n_max < 0:
                _fail(ln, f"nmax must be ≥ 0, got {n_max}")
        elif key == "generator":
            toks = body.split()
            if len(toks) != 2 or not _ATOM.match(toks[0]) or "^" in toks[0]:
                _fail(ln, f"expected 'generator NAME DEGREE', got {body!r}")
            try:
                deg = int(toks[1])
            except ValueError:
                _fail(ln, f"bad degree {toks[1]!r}")
            if toks[0] in names:
                _fail(ln, f"duplicate generator {toks[0]!r}")
            names[toks[0]] = len(gens)
            gens.append((toks[0], deg))
        elif key in ("differential", "bracket"):
            rest.append((ln, key, body))
        else:
            _fail(ln, f"unknown directive {key!r}")
    if p is None:
        raise DglParseError("missing 'prime' line")
    if n_max is None:
        raise DglParseError("missing 'nmax' line")
    try:
        ring = ZpLocal(p)
    except RingError as exc:
        raise DglParseError(str(exc))
    degrees = [d for _, d in gens]

    def target_dict(rhs, ln):
        out = {}
        for coeff, mono in _parse_terms(rhs, ln):
            if mono not in names:
                _fail(ln, f"unknown generator {mono!r}")
            c = ring.one if coeff is None else _parse_coeff(coeff, ring, ln)
            accumulate(ring, out, {names[mono]: c}, ring.one)
        return out

    differential = {}
    brackets = {}
    for ln, key, body in rest:
        if "=" not in body:
            _fail(ln, f"expected '=' in {key} line")
        lhs, rhs = body.split("=", 1)
        if key == "differential":
            src = lhs.strip()
            if src not in names:
                _fail(ln, f"unknown generator {src!r}")
            if names[src] in differential:
                _fail(ln, f"duplicate differential of {src!r}")
            differential[names[src]] = target_dict(rhs, ln)
        else:
            toks = lhs.split()
            if len(toks) != 2:
                _fail(ln, f"expected 'bracket X Y = ...', got {body!r}")
            for t in toks:
                if t not in names:
                    _fail(ln, f"unknown generator {t!r}")
            pair = (names[toks[0]], names[toks[1]])
            if pair in brackets:
                _fail(ln, f"duplicate bracket {toks[0]} {toks[1]}")
            brackets[pair] = target_dict(rhs, ln)
    return DgLie(ring, n_max, gens, brackets, differential)


def _coeff_str(c) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else str(f)


def _terms_str(L: DgLie, targets: dict) -> str:
    if not targets:
        return "0"
    return " + ".join(f"{_coeff_str(c)} {L.names[k]}"
                      for k, c in sorted(targets.items()))


def emit_dgl(L: DgLie) -> str:
    out = [f"prime {L.ring.p}", f"nmax {L.n_max}"]
    for name, deg in zip(L.names, L.degrees):
        out.append(f"generator {name} {deg}")
    brackets = L.brackets
    for (i, j) in sorted(brackets):
        out.append(f"bracket {L.names[i]} {L.names[j]} = "
                   f"{_terms_str(L, brackets[(i, j)])}")
    for i in sorted(L.d_gen):
        if L.d_gen[i]:
            out.append(f"differential {L.names[i]} = "
                       f"{_terms_str(L, L.d_gen[i])}")
    return "\n".join(out) + "\n"


def parse_map(text: str, source, target) -> dict:
    """Generator images for a Hopf morphism U(source L) -> U(target L).

    Lines 'map NAME = TERMS'; every source generator must be assigned.
    Returns {source generator index: target element dict}.
    """
    ring = target.ring
    names = {n: i for i, n in enumerate(target.L.names)}
    images = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split(None, 1)
        if toks[0] != "map" or len(toks) < 2 or "=" not in toks[1]:
            _fail(ln, "expected 'map NAME = TERMS'")
        lhs, rhs = toks[1].split("=", 1)
        src_name = lhs.strip()
        if src_name not in source.L.index:
            _fail(ln, f"unknown source generator {src_name!r}")
        if source.L.index[src_name] in images:
            _fail(ln, f"generator {src_name!r} mapped twice")
        elem = {}
        for coeff, mono_tok in _parse_terms(rhs, ln):
            mono = _parse_monomial(mono_tok, names, target.L.degrees, ln)
            c = ring.one if coeff is None else _parse_coeff(coeff, ring, ln)
            accumulate(ring, elem, {mono: ring.one}, c)
        images[source.L.index[src_name]] = elem
    missing = [n for n in source.L.names if source.L.index[n] not in images]
    if missing:
        raise DglParseError(f"no image given for generator(s) {missing}")
    return images
