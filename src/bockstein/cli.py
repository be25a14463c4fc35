"""Command-line front end.

Subcommands: validate | homology | bss | cochains | examples |
check-morphism.  Input is the .dgl format of dglfile.py; output is a
deterministic plain-text report, mirrored as JSON with --json.  Exit
codes: 0 success, 1 mathematical failure or violation, 2 input error.

`main` may be called many times in one process.  The argparse parser is
built once per process, on the first `main` call (not at import), and
reused by every later call; each call parses into a fresh namespace.
`set_defaults` binds the `cmd_*` functions when the parser is built, so a
test that intercepts a command patches the module globals the command
calls (`cli.bockstein_pages`, ...), not the `cmd_*` function itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .bss import bockstein_pages
from .cce import cochains, free_cochain_algebra, verify_quasi_iso
from .dglfile import DglParseError, emit_dgl, parse_dgl, parse_map
from .graded import homology
from .lie import DgLie, LieError, PbwAlgebra
from .scalars import PrimeField, RingError, ZpLocal
from .structure import StructureError, hopf_morphism, is_lie_type, \
    verify_envelope_pages

EXIT_OK, EXIT_MATH, EXIT_INPUT = 0, 1, 2


class InputError(Exception):
    pass


class MathFailure(Exception):
    pass


def _load(path: str, prime: int | None, nmax: int | None) -> DgLie:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        L = parse_dgl(text)
    except DglParseError as exc:
        raise InputError(f"{path}: {exc}")
    if prime is not None or nmax is not None:
        try:
            ring = ZpLocal(prime) if prime is not None else None
            L = L.replace(ring=ring, n_max=nmax)
        except (LieError, RingError) as exc:
            raise InputError(str(exc))
    return L


def _validated(L: DgLie):
    bad = L.validate()
    if bad:
        raise MathFailure("invalid DGL: " + "; ".join(bad))


def _complex_for(L: DgLie, target: str):
    if target == "lie":
        return L.as_complex(), None
    alg = PbwAlgebra(L)
    return alg.as_complex(), alg


# ---------------------------------------------------------------------------
# subcommands; each returns (lines, report dict)
# ---------------------------------------------------------------------------

def cmd_validate(args):
    L = _load(args.file, args.prime, args.nmax)
    bad = L.validate()
    if bad:
        lines = [f"invalid: {msg}" for msg in bad]
        return lines, {"valid": False, "violations": bad}, EXIT_MATH
    lines = [f"valid DGL over Z_({L.p}): {L.n_gens()} generator(s), "
             f"window degrees 0..{L.n_max - 1}"]
    return lines, {"valid": True, "violations": []}, EXIT_OK


def cmd_homology(args):
    L = _load(args.file, args.prime, args.nmax)
    _validated(L)
    C, _ = _complex_for(L, args.target)
    h = homology(C)
    lines = [f"homology of the {args.target} complex over Z_({L.p}), "
             f"degrees 0..{C.n_max - 1}:"]
    table = {}
    for n in range(C.n_max):
        b, tors, md = h.betti(n), h.torsion_exponents(n), h.mod_p_dim(n)
        if b or tors:
            tstr = " ".join(f"Z/{L.p}^{k}" for k in tors)
            lines.append(f"  H_{n}: free rank {b}"
                         + (f", torsion {tstr}" if tors else "")
                         + f", mod-p dim {md}")
            table[str(n)] = {"betti": b, "torsion_exponents": tors,
                             "mod_p_dim": md}
    return lines, {"target": args.target, "homology": table}, EXIT_OK


def _page_report(result, rmax):
    lines, rep = [], {}
    for r in range(1, rmax + 1):
        page = result.page(r)
        lines.append(f"page E^{r}:")
        prep = {}
        for n in page.degrees():
            names = [cl.name for cl in page.classes[n]]
            lines.append(f"  degree {n}: " + ", ".join(names))
            prep[str(n)] = names
        arrows = []
        for n in page.degrees():
            lows = page.classes.get(n - 1, [])
            for cl, col in zip(page.classes[n], page.beta.sparse_columns(n)):
                arrows += [f"β^{r} {cl.name} -> {lows[i].name}" for i in col]
        for a in arrows:
            lines.append("  " + a)
        rep[str(r)] = {"classes": prep, "beta": arrows}
    lines.append(f"collapsed at page {result.stable_page}")
    rep["stable_page"] = result.stable_page
    return lines, rep


def cmd_bss(args):
    L = _load(args.file, args.prime, args.nmax)
    _validated(L)
    C, alg = _complex_for(L, args.target)
    result = bockstein_pages(C, args.rmax)
    lines = [f"Bockstein spectral sequence of the {args.target} complex, "
             f"p = {L.p}, degrees 0..{C.n_max - 1}:"]
    plines, rep = _page_report(result, args.rmax)
    lines += plines
    if any(result.decomposition.exponents[C.n_max]):   # tops past the window
        need = C.n_max + 1
        lines.append(f"warning: torsion at the window edge; raise nmax to "
                     f"at least {need} to see its pages fully")
        rep["window_warning"] = need
    code = EXIT_OK
    if args.check_envelopes:
        if alg is None:     # the check reads the pages of UL itself
            alg = PbwAlgebra(L)
            result = bockstein_pages(alg.as_complex(), args.rmax)
        t3 = verify_envelope_pages(alg, result)
        rep["envelope_consistency"] = {"ok": t3.ok, "failures": t3.failures}
        lines.append("page/enveloping consistency: "
                     + ("ok" if t3.ok else "FAILED"))
        lines += ["  " + f for f in t3.failures]
        if not t3.ok:
            code = EXIT_MATH
    return lines, rep, code


def cmd_cochains(args):
    L = _load(args.file, args.prime, args.nmax)
    _validated(L)
    co = cochains(L)
    lam = co.algebra
    gens = list(zip(lam.L.names, lam.L.degrees))
    d = {name: " + ".join(f"{c} {lam.monomial_name(m)}" for m, c
                          in sorted(co.images.get(i, {}).items())) or "0"
         for i, (name, deg) in enumerate(gens) if deg + 1 <= lam.n_max}
    lines = [f"cochain algebra ΛV, V = (sL)^# over Z_({L.p}):"]
    lines += [f"  generator {name} degree {deg}" for name, deg in gens]
    lines += [f"  d({name}) = {terms}" for name, terms in d.items()]
    return lines, {"generators": [{"name": name, "degree": deg}
                                  for name, deg in gens], "d": d}, EXIT_OK


def cmd_check_morphism(args):
    L1 = _load(args.source, args.prime, args.nmax)
    L2 = _load(args.target_file, args.prime, args.nmax)
    for what, a, b in (("prime", L1.p, L2.p), ("nmax", L1.n_max, L2.n_max)):
        if a != b:
            raise InputError(f"source and target differ in {what}: "
                             f"{a} and {b}")
    _validated(L1)
    _validated(L2)
    if args.mod_p:
        # Frobenius-twisted morphisms only exist over the residue field
        L1, L2 = (L.replace(ring=PrimeField(L.p)) for L in (L1, L2))
    src, tgt = PbwAlgebra(L1), PbwAlgebra(L2)
    try:
        text = Path(args.map).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {args.map}: {exc}")
    try:
        images = parse_map(text, src, tgt)
    except DglParseError as exc:
        raise InputError(f"{args.map}: {exc}")
    try:
        phi = hopf_morphism(src, tgt, images)
    except StructureError as exc:
        raise MathFailure(f"not a Hopf morphism: {exc}")
    chk = is_lie_type(phi)
    lines = ["Hopf morphism: valid",
             f"lie type: {'yes' if chk.verdict else 'no'}"]
    rep = {"hopf": True, "lie_type": chk.verdict}
    if not chk.verdict:
        lines.append(f"  generator witness: {chk.witness}")
        lines.append(f"  dual γ witness: {chk.dual_witness}")
        rep["witness"] = [chk.witness[0], chk.witness[1]]
        rep["dual_witness"] = list(map(str, chk.dual_witness))
    return lines, rep, EXIT_OK


# ---------------------------------------------------------------------------
# built-in examples
# ---------------------------------------------------------------------------

def builtin_dgl(name: str, p: int = 3,
                rmax: int = 2) -> tuple[DgLie, int]:
    """(DgLie, rmax) for a built-in example; nmax = 2·p^rmax + 2."""
    try:
        ring = ZpLocal(p)
    except RingError as exc:
        raise InputError(str(exc))
    nmax = 2 * p ** rmax + 2
    if name == "example1":
        return DgLie(ring, nmax, [("e", 1), ("f", 2)], {},
                     {1: {0: p}}), rmax
    if name == "example2":
        return DgLie(ring, nmax, [("e", 1), ("f", 2), ("g", 2)], {},
                     {1: {0: p}}), rmax
    if name == "model":
        return DgLie(ring, 2 * p + 8, [("e", 1), ("f", 2)], {},
                     {1: {0: 1}}), 1
    raise InputError(f"unknown example {name!r} "
                     "(choose example1, example2, model)")


def _model_report(p: int, e1):
    """Quasi-isomorphism of the hard-coded small cochain model, plus the
    mod-p Hilbert series of H(UL), read off the page E¹ = H(UL; F_p)."""
    fp = PrimeField(p)
    nmax = 4 * p + 1
    tgt = free_cochain_algebra(fp, nmax, [("x", 2), ("y", 3)],
                               {"x": {"y": 1}})
    src = free_cochain_algebra(fp, nmax, [("x1", 2 * p),
                                          ("y1", 2 * p + 1)], {})
    x_pow = tuple([0] * p)                       # x^p
    yx_pow = tuple([0] * (p - 1) + [1])          # x^{p-1}·y
    ok, info = verify_quasi_iso({"x1": {x_pow: 1}, "y1": {yx_pow: 1}},
                                src, tgt, window=4 * p)
    lines = [f"model x1 -> x^{p}, y1 -> x^{p - 1}*y: "
             + ("quasi-isomorphism" if ok else f"FAILED ({info})")]
    dims = {n: e1.dim(n) for n in range(e1.n_max + 1)}
    gens = [n for n in sorted(dims) if dims[n] and 0 < n <= 2 * p]
    lines.append("H(UL; F_p) dims by degree: "
                 + " ".join(f"{n}:{d}" for n, d in sorted(dims.items())
                            if d))
    lines.append(f"generator degrees: {gens[0]} and {gens[1]}"
                 if len(gens) >= 2 else "generator degrees: ?")
    rep = {"quasi_iso": ok, "h_ul_dims": {str(k): v for k, v in dims.items()
                                          if v}}
    if not ok:
        raise MathFailure("\n".join(lines))
    return lines, rep


def _example2_report(p: int):
    fp = PrimeField(p)
    nmax = 2 * p * p
    ul = PbwAlgebra(DgLie(fp, nmax, [("a", 2 * p - 1), ("b", 2 * p),
                                     ("c", 2)], {}, None))
    ci = ul.L.index["c"]
    twist = {"a": {"a": 1}, "c": {"c": 1},
             "b": {"b": 1, tuple([ci] * p): 1}}
    ident = {"a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1}}
    chk_t = is_lie_type(hopf_morphism(ul, ul, twist))
    chk_i = is_lie_type(hopf_morphism(ul, ul, ident))
    lines = [f"automorphism b -> b + c^{p} of U L_ab(a,b,c) over F_{p}: "
             f"lie type {'yes' if chk_t.verdict else 'no'}"]
    if not chk_t.verdict:
        lines.append(f"  dual γ witness: {chk_t.dual_witness}")
    lines.append(f"identity comparison: lie type "
                 f"{'yes' if chk_i.verdict else 'no'}")
    if chk_t.verdict or not chk_i.verdict:
        raise MathFailure("\n".join(lines))
    return lines, {"twist_lie_type": chk_t.verdict,
                   "twist_witness": list(map(str, chk_t.dual_witness)),
                   "identity_lie_type": chk_i.verdict}


def cmd_examples(args):
    p = 3 if args.prime is None else args.prime
    L, rmax = builtin_dgl(args.name, p=p, rmax=args.rmax)
    if args.nmax is not None:
        L = L.replace(n_max=args.nmax)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    C, _ = _complex_for(L, "ul")
    result = bockstein_pages(C, rmax)
    lines.append(f"{args.name}: p = {p}, nmax = {L.n_max}")
    plines, rep = _page_report(result, rmax)
    lines += ["UL pages:"] + ["  " + s for s in plines]
    report = {"name": args.name, "p": p, "nmax": L.n_max, "ul_pages": rep}
    CL, _ = _complex_for(L, "lie")
    resl = bockstein_pages(CL, rmax)
    plines, repl = _page_report(resl, rmax)
    lines += ["Lie pages:"] + ["  " + s for s in plines]
    report["lie_pages"] = repl
    if args.name == "model":
        xl, xr = _model_report(p, result.page(1))
        lines += xl
        report["model"] = xr
    if args.name == "example2":
        xl, xr = _example2_report(p)
        lines += xl
        report["morphism"] = xr
    (outdir / f"{args.name}.dgl").write_text(emit_dgl(L))
    (outdir / f"{args.name}.expected").write_text("\n".join(lines) + "\n")
    lines.append(f"wrote {args.name}.dgl and {args.name}.expected "
                 f"to {outdir}")
    return lines, report, EXIT_OK


# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an integer ≥ low (anything else exits 2)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be ≥ {low}, got {value}")
        return value
    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bockstein",
        description="Bockstein spectral sequences of DGLs and their "
                    "enveloping algebras, in exact p-local arithmetic")
    ap.add_argument("--json", action="store_true",
                    help="emit a JSON report instead of text")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--prime", type=int, default=None)
        sp.add_argument("--nmax", type=_int_at_least(0), default=None)
        # accepted after the subcommand too; with no default here, a
        # --json given before the subcommand is not reset
        sp.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit a JSON report instead of text")

    sp = sub.add_parser("validate", help="check a .dgl file")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("homology", help="integral p-local homology")
    sp.add_argument("file")
    sp.add_argument("--target", choices=["lie", "ul"], default="ul")
    common(sp)
    sp.set_defaults(func=cmd_homology)

    sp = sub.add_parser("bss", help="Bockstein pages")
    sp.add_argument("file")
    sp.add_argument("--target", choices=["lie", "ul"], default="ul")
    sp.add_argument("--rmax", type=_int_at_least(1), default=2)
    sp.add_argument("--check-envelopes", action="store_true",
                    dest="check_envelopes")
    common(sp)
    sp.set_defaults(func=cmd_bss)

    sp = sub.add_parser("cochains", help="dual cochain algebra of a DGL")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=cmd_cochains)

    sp = sub.add_parser("examples", help="write and check a built-in example")
    sp.add_argument("name")
    sp.add_argument("--rmax", type=_int_at_least(1), default=2)
    sp.add_argument("--out", default=None)
    common(sp)
    sp.set_defaults(func=cmd_examples)

    sp = sub.add_parser("check-morphism",
                        help="Hopf-morphism and Lie-type check")
    sp.add_argument("source")
    sp.add_argument("target_file")
    sp.add_argument("map")
    sp.add_argument("--mod-p", action="store_true", dest="mod_p",
                    help="work over the residue field F_p")
    common(sp)
    sp.set_defaults(func=cmd_check_morphism)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        lines, report, code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MathFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MATH
    except (LieError, StructureError, RingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
