"""Seeded inputs, task execution and output checks for the three workloads.

Each workload is a pool of tasks generated from the seed.  A task is one
user request: a CLI subcommand on generated `.dgl`/`.map` files, called
in-process as `bockstein.cli.main([... "--json"])`, or, where no subcommand
exposes the computation at size, one public library call on a generated
`.dgl` file.  Sizes are chosen from cost models fitted to the library as
it was when this benchmark was written (CPython 3.11, 2-core x86-64), so
the tasks of a workload cost about the same and the mix of a pool does not
depend on the seed.

The checks in `check()` take a different route from the timed one where
one exists: mod-p ranks by a sparse elimination written here, closed-form
Hilbert series, and verdicts known by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("ul_pages", "envelope", "mod_p")
DEFAULT_SEED = 1

# ---------------------------------------------------------------------------
# DGL descriptions (plain data; the program only ever sees the text)
# ---------------------------------------------------------------------------


@dataclass
class Dgl:
    p: int
    nmax: int
    gens: list = field(default_factory=list)       # [(name, degree)]
    brackets: dict = field(default_factory=dict)   # (i, j) -> {k: int}
    diff: dict = field(default_factory=dict)       # i -> {k: int}
    pairs: list = field(default_factory=list)      # [(e index, f index, k)]

    def degrees(self) -> list:
        return [d for _, d in self.gens]

    def text(self) -> str:
        def terms(t):
            return " + ".join(f"{c} {self.gens[k][0]}"
                              for k, c in sorted(t.items()))
        out = [f"prime {self.p}", f"nmax {self.nmax}"]
        out += [f"generator {n} {d}" for n, d in self.gens]
        for (i, j), t in sorted(self.brackets.items()):
            out.append(f"bracket {self.gens[i][0]} {self.gens[j][0]} = "
                       f"{terms(t)}")
        for i, t in sorted(self.diff.items()):
            out.append(f"differential {self.gens[i][0]} = {terms(t)}")
        return "\n".join(out) + "\n"

    def add_pair(self, name: str, degree: int, k: int, unit: int):
        """Torsion pair e(degree), f(degree + 1) with ∂f = unit·p^k·e."""
        e = len(self.gens)
        self.gens += [(f"e{name}", degree), (f"f{name}", degree + 1)]
        self.diff[e + 1] = {e: unit * self.p ** k}
        self.pairs.append((e, e + 1, k))

    def add_heis(self, k: int, unit: int):
        """x(1), y(1), z(2), w(3) with [x,y] = z and ∂w = unit·p^k·z."""
        x = len(self.gens)
        self.gens += [("x", 1), ("y", 1), ("z", 2), ("w", 3)]
        self.brackets[(x, x + 1)] = {x + 2: 1}
        self.diff[x + 3] = {x + 2: unit * self.p ** k}


def pbw_dims(degrees, nmax: int) -> list:
    """Degreewise dims of UL (PBW: exterior on odd, polynomial on even);
    the dims for a smaller window are a prefix."""
    s = [1] + [0] * nmax
    for d in degrees:
        if d > nmax:
            continue
        if d % 2:
            s = [s[n] + (s[n - d] if n >= d else 0) for n in range(nmax + 1)]
        else:
            for n in range(d, nmax + 1):
                s[n] += s[n - d]
    return s


def _unit(rng, p: int) -> int:
    return rng.choice((1, -1)) * rng.randint(1, p - 1)


def _pick_nmax(cost, lo: int, hi: int, target: float, ok=lambda n: True):
    """(log error, nmax) for the nmax in [lo, hi] whose predicted cost is
    closest to target, or None when none lands within a factor 1.2 of it."""
    best = None
    for n in range(lo, hi + 1):
        if not ok(n):
            continue
        err = abs(math.log(cost(n) / target))
        if best is None or err < best[0]:
            best = (err, n)
    if best is None or best[0] > math.log(1.2):
        return None
    return best


# Cost models in seconds, fitted on random inputs of each family; their
# residual spread is about 0.2 in log scale.
def _cost_ul(dims, gens, heis):
    work = sum((dims[n - 1] * dims[n]) ** 0.9 for n in range(1, len(dims)))
    return math.exp(-11.74 + 0.08 * gens - 0.21 * heis) * work ** 1.094


def _cost_envelope(dims):
    tensor = [sum(dims[a] * dims[n - a] for a in range(n + 1))
              for n in range(len(dims))]
    return 1.3e-5 * sum(t * t for t in tensor)


def _cost_field_homology(dims):
    return 8.5e-6 * sum(d ** 2.2 for d in dims)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


@dataclass
class Task:
    label: str
    kind: str          # bss | check-morphism | cochains | field-homology
    files: dict                # file name -> text
    argv: list                 # CLI arguments after "--json" (file names)
    dgl: Dgl
    expect: dict = field(default_factory=dict)


TARGET_S = {"ul_pages": 0.22, "envelope": 0.3, "mod_p": 0.45}
POOL_SIZE = {"ul_pages": 24, "envelope": 20, "mod_p": 20}


def _ul_pages_task(rng, i: int) -> Task:
    """Slot i fixes p (bit 0), whether a unit differential is present
    (bit 1) and whether the non-abelian block is present (bit 2).  Of six
    structures drawn for the slot, the one whose cost lands nearest the
    target is kept."""
    p = (3, 5)[i & 1]
    units = not i & 2
    heis = bool(i & 4)
    best, tries = None, 0
    while best is None or tries < 6:
        tries += 1
        g = Dgl(p, 0)
        for j in range(rng.randint(2, 4)):
            if units:
                k = 0 if j == 0 else rng.choice((0, 1, 2))
            else:
                k = rng.choice((1, 2))
            g.add_pair(str(j), rng.choice((1, 3)), k, _unit(rng, p))
        if heis:
            g.add_heis(1, _unit(rng, p))
        dims = pbw_dims(g.degrees(), 60)
        pick = _pick_nmax(
            lambda n: _cost_ul(dims[:n + 1], len(g.gens), heis), 4, 60,
            TARGET_S["ul_pages"], lambda n: 150 <= sum(dims[:n + 1]) <= 800)
        if pick is not None and (best is None or pick[0] < best[0]):
            g.nmax = pick[1]
            best = (pick[0], g)
    g = best[1]
    return Task(f"ul_pages/{i:02d}", "bss", {"in.dgl": g.text()},
                ["bss", "in.dgl", "--target", "ul", "--rmax", "3"], g,
                {"rmax": 3})


def _envelope_task(rng, i: int) -> Task:
    """Three slots in four are four4-like (two pairs, exponents from
    {1, 2}); the fourth is the non-abelian block, alone or with a pair."""
    p = (3, 5)[i & 1]
    while True:
        g = Dgl(p, 0)
        if i % 4 == 3:
            g.add_heis(1, _unit(rng, p))
            if rng.random() < 0.5:
                g.add_pair("0", 3, rng.choice((1, 2)), _unit(rng, p))
        else:
            ks = rng.choice(((1, 2), (2, 1), (1, 1), (2, 2)))
            for j, k in enumerate(ks):
                g.add_pair(str(j), rng.choice((1, 3)), k, _unit(rng, p))
        dims = pbw_dims(g.degrees(), 16)
        pick = _pick_nmax(lambda n: _cost_envelope(dims[:n + 1]), 5, 16,
                          TARGET_S["envelope"])
        if pick is not None:
            break
    g.nmax = pick[1]
    return Task(f"envelope/{i:02d}", "bss", {"in.dgl": g.text()},
                ["bss", "in.dgl", "--rmax", "2", "--check-envelopes"], g,
                {"rmax": 2, "envelopes": True})


# nmax per (p, extra odd generator h) for the abelian U L(a, b, c[, h])
_MORPHISM_NMAX = {(3, False): 28, (3, True): 24, (5, False): 38,
                  (5, True): 34}

# cochain shapes: (pair degrees, nmax) next to the block x(1) y(1) z(2) w(3)
_COCHAIN_SHAPES = {3: ((1, 1, 3), 11), 5: ((1, 1), 12)}


def _morphism_task(rng, i: int, kind: str, p: int) -> Task:
    """The twist and the linear automorphism act on U L(a, b, c, h), the
    identity on U L(a, b, c); each costs about 0.3 s."""
    extra = kind != "identity"
    g = Dgl(p, _MORPHISM_NMAX[(p, extra)],
            [("a", 2 * p - 1), ("b", 2 * p), ("c", 2)])
    if extra:
        g.gens.append(("h", 2 * p - 1))
    images = {name: {name: 1} for name, _ in g.gens}
    if kind == "twist":
        images["b"] = {"b": 1, f"c^{p}": _unit(rng, p) % p}
    elif kind == "linear":
        while True:
            m = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
            if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p:
                break
        images["a"] = {"a": m[0][0], "h": m[1][0]}
        images["h"] = {"a": m[0][1], "h": m[1][1]}
        images["b"] = {"b": _unit(rng, p) % p}
        images["c"] = {"c": _unit(rng, p) % p}
    lines = []
    for name, _ in g.gens:
        rhs = " + ".join(f"{c} {mono}" for mono, c in images[name].items()
                         if c) or "0"
        lines.append(f"map {name} = {rhs}")
    return Task(f"mod_p/{i:02d}", "check-morphism",
                {"in.dgl": g.text(), "in.map": "\n".join(lines) + "\n"},
                ["check-morphism", "in.dgl", "in.dgl", "in.map", "--mod-p"],
                g, {"lie_type": kind != "twist", "morphism": kind})


def _cochains_task(rng, i: int, p: int) -> Task:
    degrees, nmax = _COCHAIN_SHAPES[p]
    g = Dgl(p, nmax)
    for j, d in enumerate(degrees):
        g.add_pair(str(j), d, rng.choice((0, 1, 2)), _unit(rng, p))
    g.add_heis(rng.choice((0, 1)), _unit(rng, p))
    return Task(f"mod_p/{i:02d}", "cochains", {"in.dgl": g.text()},
                ["cochains", "in.dgl"], g)


def _field_homology_task(rng, i: int, p: int) -> Task:
    while True:
        g = Dgl(p, 0)
        count = rng.randint(2, 4)
        for j in range(count):
            g.add_pair(str(j), rng.choice((1, 3)),
                       0 if j < 2 else rng.choice((0, 1)), _unit(rng, p))
        dims = pbw_dims(g.degrees(), 30)
        pick = _pick_nmax(lambda n: _cost_field_homology(dims[:n + 1]),
                          6, 30, TARGET_S["mod_p"])
        if pick is not None:
            break
    g.nmax = pick[1]
    return Task(f"mod_p/{i:02d}", "field-homology", {"in.dgl": g.text()},
                [], g)


def _mod_p_task(rng, i: int) -> Task:
    """Slots i % 4 in {0, 1}: check-morphism (twist, identity and linear
    automorphism in turn, p = 3 and p = 5 in turn); 2: cochains; 3:
    FieldHomology."""
    if i % 4 < 2:
        j = (i // 4) * 2 + i % 4
        return _morphism_task(rng, i, ("twist", "identity", "linear")[j % 3],
                              (3, 5)[j // 3 % 2])
    p = (3, 5)[(i // 4) & 1]
    if i % 4 == 2:
        return _cochains_task(rng, i, p)
    return _field_homology_task(rng, i, p)


_MAKERS = {"ul_pages": _ul_pages_task, "envelope": _envelope_task,
           "mod_p": _mod_p_task}


def generate(workload: str, seed: int) -> list:
    """The workload's task pool; the same seed gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    return [_MAKERS[workload](rng, i) for i in range(POOL_SIZE[workload])]


def to_lie(g: Dgl, bockstein_lie, scalars):
    return bockstein_lie.DgLie(scalars.ZpLocal(g.p), g.nmax, list(g.gens),
                               {k: dict(v) for k, v in g.brackets.items()},
                               {k: dict(v) for k, v in g.diff.items()})


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def run(task: Task, workdir, lib) -> tuple:
    """(exit code, stdout text) of one task; `lib` holds the modules."""
    if task.kind == "field-homology":
        L = lib.dglfile.parse_dgl((workdir / "in.dgl").read_text())
        alg = lib.lie.PbwAlgebra(L)
        H = lib.graded.FieldHomology(alg.basis,
                                     alg.differential().reduce_mod_p())
        dims = {str(n): H.dim(n) for n in range(L.n_max)}
        return 0, json.dumps(dims, sort_keys=True) + "\n"
    argv = ["--json"] + [str(workdir / a) if a.startswith("in.") else a
                         for a in task.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def rank_mod_p(columns, p: int) -> int:
    """Rank over F_p of sparse integer columns ({row: value}), by
    elimination on the lowest nonzero row."""
    pivots = {}
    rank = 0
    for col in columns:
        v = {i: c % p for i, c in col.items() if c % p}
        while v:
            lead = max(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], p - 2, p)
                pivots[lead] = {i: c * inv % p for i, c in v.items()}
                rank += 1
                break
            f = v[lead]
            for i, c in piv.items():
                x = (v.get(i, 0) - f * c) % p
                if x:
                    v[i] = x
                else:
                    v.pop(i, None)
    return rank


def _mod_p(c, p: int) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, p - 2, p) % p


def mod_p_homology_dims(task: Task, lib) -> list:
    """dim H_n(UL ⊗ F_p) = dim C_n − rank d̄_n − rank d̄_{n+1}."""
    g = task.dgl
    alg = lib.lie.PbwAlgebra(to_lie(g, lib.lie, lib.scalars))
    d = alg.differential()
    ranks = [0] * (g.nmax + 2)
    for n, m in d.blocks.items():
        cols = [{i: _mod_p(m.a[i][j], g.p) for i in range(m.rows)
                 if m.a[i][j]} for j in range(m.cols)]
        ranks[n] = rank_mod_p(cols, g.p)
    return [alg.dim(n) - ranks[n] - ranks[n + 1] for n in range(g.nmax)]


def _series_mul(a, b, top):
    out = [0] * (top + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(top + 1 - i):
                out[i + j] += x * b[j]
    return out


def field_homology_series(g: Dgl, top: int) -> list:
    """Closed form for sums of torsion pairs: a pair e(m), f(m+1) with
    ∂f = unit·e contributes (1 + t^{(m+1)p−1}) / (1 − t^{(m+1)p}) to the
    Poincaré series of H(UL; F_p), and one with ∂f ≡ 0 mod p contributes
    (1 + t^m)/(1 − t^{m+1})."""
    series = [1] + [0] * top
    for e, f, k in g.pairs:
        m = g.gens[e][1]
        odd, even = (m, m + 1) if k else ((m + 1) * g.p - 1, (m + 1) * g.p)
        factor = [0] * (top + 1)
        for n in range(0, top + 1, even):
            factor[n] = 1
            if n + odd <= top:
                factor[n + odd] += 1
        series = _series_mul(series, factor, top)
    return series


def _parse_terms(s: str) -> dict:
    if s == "0":
        return {}
    out = {}
    for term in s.split(" + "):
        c, mono = term.split(" ", 1)
        out[mono] = Fraction(c)
    return out


def _check_pages(task: Task, rep: dict, lib, errors: list):
    g = task.dgl
    rmax = task.expect["rmax"]
    window = g.nmax - 1
    dims = {r: {int(n): len(v) for n, v in rep[str(r)]["classes"].items()}
            for r in range(1, rmax + 1)}
    want = mod_p_homology_dims(task, lib)
    for n in range(window + 1):
        if dims[1].get(n, 0) != want[n]:
            errors.append(f"E^1 dim {dims[1].get(n, 0)} at degree {n}, "
                          f"mod-p homology has {want[n]}")
    for r in range(1, rmax):
        where = {name: int(n)
                 for n, names in rep[str(r)]["classes"].items()
                 for name in names}
        lost = {}
        for arrow in rep[str(r)]["beta"]:
            top, bottom = arrow.split(" ", 1)[1].split(" -> ")
            for name in (top, bottom):
                if name not in where:
                    errors.append(f"{arrow!r} names no class of E^{r}")
                    continue
                lost[where[name]] = lost.get(where[name], 0) + 1
        # β^r into the top degree of the window comes from outside it
        for n in range(window):
            if dims[r + 1].get(n, 0) != dims[r].get(n, 0) - lost.get(n, 0):
                errors.append(f"dim E^{r + 1} at degree {n} is not dim E^{r} "
                              f"minus the rank of β^{r} in and out")
    if task.expect.get("envelopes"):
        env = rep.get("envelope_consistency", {})
        if env.get("ok") is not True:
            errors.append(f"envelope consistency not ok: {env}")


def _check_morphism(task: Task, rep: dict, errors: list):
    if rep.get("hopf") is not True:
        errors.append("not reported as a Hopf morphism")
    if rep.get("lie_type") is not task.expect["lie_type"]:
        errors.append(f"lie type {rep.get('lie_type')}, expected "
                      f"{task.expect['lie_type']} for "
                      f"{task.expect['morphism']}")
    if task.expect["morphism"] == "twist":
        if rep.get("witness", [None])[0] != "b":
            errors.append(f"twist witness {rep.get('witness')}")
        if not rep.get("dual_witness") or rep["dual_witness"][0] != "gamma":
            errors.append(f"twist lacks its γ witness: "
                          f"{rep.get('dual_witness')}")


def _check_cochains(task: Task, rep: dict, errors: list):
    """Generators v_x of degree |x|+1; d v_x has the linear terms
    (−1)^{|v_x|}(∂y)_x v_y and a nonzero v_a·v_b term for each bracket
    [a, b] with an x component, and nothing else."""
    g = task.dgl
    names = [f"v{n}" for n, _ in g.gens]
    got = [(e["name"], e["degree"]) for e in rep["generators"]]
    if got != [(f"v{n}", d + 1) for n, d in g.gens]:
        errors.append(f"cochain generators {got}")
        return
    for x, (name, deg) in enumerate(g.gens):
        vdeg = deg + 1
        if vdeg + 1 > g.nmax:
            continue
        linear = {}
        for y, t in g.diff.items():
            if x in t:
                linear[names[y]] = Fraction((-1) ** vdeg * t[x])
        quad = set()
        for (a, b), t in g.brackets.items():
            if x in t:
                lo, hi = sorted((a, b))
                quad.add(f"{names[lo]}*{names[hi]}")
        terms = _parse_terms(rep["d"].get(f"v{name}", "0"))
        lin_got = {m: c for m, c in terms.items() if "*" not in m}
        if lin_got != linear or set(terms) - set(lin_got) != quad:
            errors.append(f"d(v{name}) = {rep['d'].get(f'v{name}')}; "
                          f"expected linear {linear} and {sorted(quad)}")


def check(task: Task, code: int, out: str, lib) -> list:
    """Errors in one task's output (empty when correct)."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        rep = json.loads(out)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    errors = []
    if task.kind == "bss":
        _check_pages(task, rep, lib, errors)
    elif task.kind == "check-morphism":
        _check_morphism(task, rep, errors)
    elif task.kind == "cochains":
        _check_cochains(task, rep, errors)
    else:
        want = field_homology_series(task.dgl, task.dgl.nmax - 1)
        got = [rep.get(str(n)) for n in range(task.dgl.nmax)]
        if got != want:
            errors.append(f"H(UL; F_p) dims {got}, closed form {want}")
    return errors
