"""Seeded inputs for the benchmark's workloads.

Every workload is a pure function of the bench seed: the same seed gives the
same spec-file bytes and the same request list.  The generators do their own
exact arithmetic (`Q` below) instead of calling realmod, so the inputs stay
the same when the program under test changes, and the construction facts the
checker relies on (which gates are unitary, which states are positive, what
the gram is) do not depend on the program's arithmetic.

A request is one call that returns a verdict.  `Request.argv` is a
`realmod` command line run through `realmod.cli.main`; `Request.locus` is the
library call sequence of the `locus` workload.  `Request.expect` carries the
ground truth the checker compares against; the program never sees it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Why each workload exists; printed with every result.
WHY = {
    "selftest": (
        "thousands of tiny matrices (n <= 3) with each structure reused across its "
        "cases: scalar allocation and gcd dominate and eigen-split memo hits are high"),
    "cli-dense": (
        "hermitian spaces at n = 8, 12, 16 (identity and mixed-signature grams): "
        "matmul, inverse, kernel_basis on 2n x 2n and det scans dominate; "
        "every request rebuilds make_selfdual, parsing is a minor share"),
    "cli-corpus": (
        "a few hundred small stanzas of every kind (n <= 4): every call re-parses "
        "the whole file, so specfile and scalar text parsing dominate and the "
        "large-matrix kernels are bypassed"),
    "locus": (
        "library calls at n = 2..6: the sparse d^2 x d^2 kron/kernel_basis path of "
        "csmat, the fixed locus and the dense dagger composite, and their memory"),
}

WORKLOADS = tuple(WHY)

# Sizes of one request cycle.  More distinct inputs average out how hard one
# random input happens to be, but the timed loop must still complete at least
# two cycles in a 25 s run, because its figures count whole cycles only.
SELFTEST_SEEDS = 64        # distinct selftest seeds, cycled by the loop
SELFTEST_CASES = 1         # fixed --cases budget of every selftest request
DENSE_SIZES = (8, 12, 16)
DENSE_SPACES = 2           # spaces of each gram kind (identity, mixed) per size
CORPUS_GROUPS = 50         # 11 stanzas per group
LOCUS_SIZES = (2, 3, 4, 5, 6)
LOCUS_REPEATS = 6          # distinct random inputs per size


class Q:
    """Exact a + b*sqrt2 + c*i + d*i*sqrt2 with Fraction coordinates."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a, self.b, self.c, self.d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)

    def __add__(self, o: "Q") -> "Q":
        return Q(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "Q") -> "Q":
        return Q(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self) -> "Q":
        return Q(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o: "Q") -> "Q":
        # (p + q*r2)(s + t*r2) = (ps + 2qt) + (pt + qs)*r2 on real and imaginary parts
        def rmul(p, q, s, t):
            return p * s + 2 * q * t, p * t + q * s

        rr = rmul(self.a, self.b, o.a, o.b)
        ii = rmul(self.c, self.d, o.c, o.d)
        ri = rmul(self.a, self.b, o.c, o.d)
        ir = rmul(self.c, self.d, o.a, o.b)
        return Q(rr[0] - ii[0], rr[1] - ii[1], ri[0] + ir[0], ri[1] + ir[1])

    def conj(self) -> "Q":
        return Q(self.a, self.b, -self.c, -self.d)

    def __eq__(self, o) -> bool:
        return isinstance(o, Q) and (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __complex__(self) -> complex:
        r2 = 2 ** 0.5
        return complex(float(self.a) + float(self.b) * r2, float(self.c) + float(self.d) * r2)

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def text(self) -> str:
        """realmod's canonical scalar syntax, e.g. ``1/2-1/2*i*r2``."""
        parts = []
        for coord, suffix in zip((self.a, self.b, self.c, self.d), ("", "*r2", "*i", "*i*r2")):
            if not coord:
                continue
            if not parts:
                parts.append(f"{coord}{suffix}")
            elif coord > 0:
                parts.append(f"+{coord}{suffix}")
            else:
                parts.append(f"-{-coord}{suffix}")
        return "".join(parts) or "0"


ZERO, ONE, I, R2 = Q(), Q(1), Q(0, 0, 1), Q(0, 1)
INV_R2 = Q(0, Fraction(1, 2))


def ident(n: int) -> list:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(x: list, y: list) -> list:
    cols = list(zip(*y))
    out = []
    for row in x:
        out_row = []
        for col in cols:
            acc = ZERO
            for p, q in zip(row, col):
                if p and q:
                    acc = acc + p * q
            out_row.append(acc)
        out.append(out_row)
    return out


def dagger_plain(x: list) -> list:
    """Conjugate transpose."""
    return [[v.conj() for v in col] for col in zip(*x)]


def mat_text(x: list) -> str:
    return ";".join(",".join(v.text() for v in row) for row in x)


def _unimodular_word(rng: random.Random, n: int) -> tuple:
    """(t, t^-1) for t = P U S: S shears each row by the next one in a random
    cyclic order, U scales each row by a unit, P permutes the rows.  Every word
    of one size has the same shape, so inputs of one size cost about the same
    whatever the seed, and the inverse stays as small as t."""
    offs = (ONE, -ONE, R2, -R2, I, -I, I * R2, -(I * R2))
    units = (ONE, -ONE, I, -I)
    t, t_inv = ident(n), ident(n)
    order = rng.sample(range(n), n)
    for k in range(n if n >= 2 else 0):
        i, j = order[k], order[(k + 1) % n]
        s = rng.choice(offs)
        t[i] = [x + s * y for x, y in zip(t[i], t[j])]
        for row in t_inv:  # t^-1 <- t^-1 E^-1: column j -= s * column i
            row[j] = row[j] - s * row[i]
    for i in range(n):
        u = rng.choice(units)
        t[i] = [u * x for x in t[i]]
        for row in t_inv:
            row[i] = row[i] * u.conj()
    perm = rng.sample(range(n), n)
    return [t[p] for p in perm], [[row[p] for p in perm] for row in t_inv]


@dataclass
class Space:
    """A Hermitian space gram = t^dagger D t, with t and D kept for the checker."""

    name: str
    n: int
    signs: list
    t: list
    t_inv: list
    gram: list = field(init=False)
    gram_inv: list = field(init=False)

    def __post_init__(self):
        d = [[Q(self.signs[i]) if i == j else ZERO for j in range(self.n)] for i in range(self.n)]
        self.gram = matmul(dagger_plain(self.t), matmul(d, self.t))
        self.gram_inv = matmul(self.t_inv, matmul(d, dagger_plain(self.t_inv)))


def identity_space(name: str, n: int) -> Space:
    return Space(name, n, [1] * n, ident(n), ident(n))


def mixed_space(rng: random.Random, name: str, n: int) -> Space:
    signs = [rng.choice((1, -1)) for _ in range(n)]
    if n >= 2 and len(set(signs)) == 1:
        signs[rng.randrange(n)] *= -1
    t, t_inv = _unimodular_word(rng, n)
    return Space(name, n, signs, t, t_inv)


def unitary_gate(rng: random.Random, space: Space, length: int = 4) -> list:
    """t^-1 W t, where W is a word in phases i^k, swaps and Hadamard blocks that
    only mix coordinates of equal sign in D, so W^dagger D W = D and the gate is
    unitary for the gram.  For the identity gram this is a plain unitary word."""
    n = space.n
    w = ident(n)
    for _ in range(length):
        kind = rng.randrange(3)
        f = ident(n)
        if kind == 0:
            for i in range(n):
                f[i][i] = (ONE, I, -ONE, -I)[rng.randrange(4)]
        else:
            i = rng.randrange(n)
            partners = [j for j in range(n) if j != i and space.signs[j] == space.signs[i]]
            if not partners:
                continue
            j = rng.choice(partners)
            if kind == 1:
                f[i][i] = f[j][j] = ZERO
                f[i][j] = f[j][i] = ONE
            else:
                f[i][i] = f[i][j] = f[j][i] = INV_R2
                f[j][j] = -INV_R2
        w = matmul(f, w)
    return matmul(space.t_inv, matmul(w, space.t))


def _small(rng: random.Random) -> Q:
    """Each of the four rational coordinates p/q with |p| <= 3, q <= 3."""
    return Q(*(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)))


def random_gate(rng: random.Random, n: int) -> list:
    return [[_small(rng) for _ in range(n)] for _ in range(n)]


def positive_state(rng: random.Random, space: Space) -> list:
    """sum_k w_k v_k v_k^dagger gram with weights w_k > 0: gram . rho is PSD."""
    n = space.n
    rho = [[ZERO] * n for _ in range(n)]
    for _ in range(rng.randint(1, 2)):
        v = [[Q(rng.randint(-2, 2), 0, rng.randint(-2, 2))] for _ in range(n)]
        if not any(x for (x,) in v):
            v[0][0] = ONE
        term = matmul(v, matmul(dagger_plain(v), space.gram))
        weight = Q(rng.randint(1, 3))
        rho = [[r + weight * x for r, x in zip(rrow, trow)] for rrow, trow in zip(rho, term)]
    return rho


# -- requests -----------------------------------------------------------------------


@dataclass
class Request:
    key: str                    # unique within the workload; repeats share it
    argv: list | None = None    # realmod command line (cli workloads)
    locus: dict | None = None   # library call sequence (locus workload)
    expect: dict = field(default_factory=dict)

    def plan(self) -> dict:
        """What the request runner receives: inputs only, no ground truth."""
        return {"key": self.key, "argv": self.argv, "locus": self.locus}


@dataclass
class Workload:
    requests: list              # one cycle; the timed loop repeats it
    files: dict = field(default_factory=dict)   # file name -> bytes; the setup probe parses each


def selftest_workload(seed: int) -> Workload:
    base = seed * 1000
    reqs = []
    for s in range(base, base + SELFTEST_SEEDS):
        argv = ["--command", "selftest", "--seed", str(s), "--cases", str(SELFTEST_CASES)]
        reqs.append(Request(f"selftest/{s}", argv=argv,
                            expect={"type": "selftest", "seed": s, "cases": SELFTEST_CASES}))
    return Workload(reqs)


def _gate_requests(spec: str, space: Space, gates: dict, channels: dict) -> list:
    """dagger and unitary on every gate, channel on every channel."""
    reqs = []
    for gname, (mat, unitary) in gates.items():
        reqs.append(Request(f"dagger/{gname}", ["--input", spec, "--command", "dagger", "--target", gname],
                            expect={"type": "dagger", "name": gname, "space": space, "mat": mat}))
        reqs.append(Request(f"unitary/{gname}", ["--input", spec, "--command", "unitary", "--target", gname],
                            expect={"type": "unitary", "name": gname, "space": space, "mat": mat,
                                    "unitary": unitary}))
    for cname, (gname, rho) in channels.items():
        mat, unitary = gates[gname]
        reqs.append(Request(f"channel/{cname}", ["--input", spec, "--command", "channel", "--target", cname],
                            expect={"type": "channel", "name": cname, "space": space, "mat": mat,
                                    "rho": rho, "unitary": unitary}))
    return reqs


def _space_stanzas(rng: random.Random, space: Space, tag: str) -> tuple:
    """Stanza lines for one space with a unitary gate, a random gate, a state and
    a channel through each gate; plus the (gates, channels) bookkeeping."""
    u = unitary_gate(rng, space)
    r = random_gate(rng, space.n)
    rho = positive_state(rng, space)
    gates = {f"u{tag}": (u, True), f"r{tag}": (r, None)}
    channels = {f"cu{tag}": (f"u{tag}", rho), f"cr{tag}": (f"r{tag}", rho)}
    lines = [
        f"hermitian {space.name} dim={space.n} gram={mat_text(space.gram)}",
        f"gate u{tag} on={space.name} mat={mat_text(u)}",
        f"gate r{tag} on={space.name} mat={mat_text(r)}",
        f"gate s{tag} on={space.name} mat={mat_text(rho)}",
        f"channel cu{tag} gate=u{tag} rho=s{tag}",
        f"channel cr{tag} gate=r{tag} rho=s{tag}",
    ]
    return lines, gates, channels


def dense_workload(seed: int, workdir: Path) -> Workload:
    """One spec file per space, so that a request parses only its own space and
    parsing stays a minor share of its time."""
    rng = random.Random(f"cli-dense:{seed}")
    files, reqs = {}, []
    for n in DENSE_SIZES:
        for k in range(DENSE_SPACES):
            for label in ("id", "mx"):
                tag = f"{label}{n}{'abcdefgh'[k]}"
                name = f"h{tag}"
                spec = str(workdir / f"{name}.spec")
                space = identity_space(name, n) if label == "id" else mixed_space(rng, name, n)
                lines, gates, channels = _space_stanzas(rng, space, tag)
                files[f"{name}.spec"] = ("\n".join(lines) + "\n").encode()
                reqs.append(Request(f"hermitian/{name}",
                                    ["--input", spec, "--command", "hermitian", "--target", name],
                                    expect={"type": "hermitian", "name": name, "space": space}))
                reqs += _gate_requests(spec, space, gates, channels)
    rng.shuffle(reqs)
    return Workload(reqs, files)


def _involution(rng: random.Random, n: int) -> list:
    """P D conj(P)^-1 for a unimodular word P and diagonal signs D."""
    p, p_inv = _unimodular_word(rng, n)
    d = [[Q(rng.choice((1, -1))) if i == j else ZERO for j in range(n)] for i in range(n)]
    return matmul(p, matmul(d, [[v.conj() for v in row] for row in p_inv]))


def _realvs(rng: random.Random, dim: int) -> tuple:
    """g = diag(a1, a1, a2, a2, ...) with a_k > 0 and J the standard rotation
    blocks: J^2 = -I and J is a g-isometry."""
    g = ident(dim)
    j = [[ZERO] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        a = Q(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        g[k][k] = g[k + 1][k + 1] = a
        j[k][k + 1] = -ONE
        j[k + 1][k] = ONE
    return g, j


def corpus_workload(seed: int, spec: str) -> Workload:
    rng = random.Random(f"cli-corpus:{seed}")
    lines = [f"# cli-corpus workload, seed {seed}"]
    stanzas = []          # (kind, name) as `check` reports them, in file order
    gate_reqs, quant_reqs, check_targets = {"unitary": [], "channel": []}, [], []
    for k in range(CORPUS_GROUPS):
        n = 1 + k % 4
        dim = rng.randint(1, 4)
        lines.append(f"module m{k} dim={dim} inv={mat_text(_involution(rng, dim))}")
        rdim = rng.choice((2, 4))
        g, j = _realvs(rng, rdim)
        lines.append(f"realvs v{k} dim={rdim} g={mat_text(g)} J={mat_text(j)}")
        name = f"h{k}"
        space = identity_space(name, n) if k % 2 == 0 else mixed_space(rng, name, n)
        st, gates, channels = _space_stanzas(rng, space, str(k))
        lines += st
        size = rng.randint(1, 6)
        perm = list(range(size))
        pts = list(range(size))
        rng.shuffle(pts)
        for a, b in zip(pts[0::2], pts[1::2]):
            if rng.random() < 0.7:
                perm[a], perm[b] = b, a
        lines.append(f"realset t{k} size={size} tau={','.join(map(str, perm))}")
        labels = [f"b{i}" for i in range(rng.randint(1, 4))]
        lines.append(f"quantize q{k} basis={','.join(labels)}")
        target_kind, target = rng.choice((("hermitian", name), ("module", f"m{k}"), ("realvs", f"v{k}"),
                                          ("quantize", f"q{k}"), ("realset", f"t{k}"),
                                          ("gate", f"u{k}"), ("channel", f"cu{k}")))
        explicit = rng.random() < 0.5
        lines.append(f"check c{k} target={target}" + (f" kind={target_kind}" if explicit else ""))
        stanzas += [("module", f"m{k}"), ("realvs", f"v{k}"), ("hermitian", name),
                    ("gate", f"u{k}"), ("gate", f"r{k}"), ("gate", f"s{k}"),
                    ("channel", f"cu{k}"), ("channel", f"cr{k}"),
                    ("realset", f"t{k}"), ("quantize", f"q{k}"), (target_kind, target)]
        check_targets += [(f"m{k}", f"check module m{k}: ok"), (f"v{k}", f"check realvs v{k}: ok"),
                          (f"t{k}", f"check realset t{k}: ok"), (name, f"check hermitian {name}: ok"),
                          (f"c{k}", f"check {target_kind} {target}: ok")]
        for r in _gate_requests(spec, space, gates, channels):
            if r.expect["type"] in gate_reqs:
                gate_reqs[r.expect["type"]].append(r)
        quant_reqs.append(Request(f"quantize/q{k}",
                                  ["--input", spec, "--command", "quantize", "--target", f"q{k}"],
                                  expect={"type": "quantize", "name": f"q{k}", "labels": labels}))
    reqs = [Request("check/*", ["--input", spec, "--command", "check"],
                    expect={"type": "check", "lines": [f"check {kind} {nm}: ok" for kind, nm in stanzas]})]
    for target, line in rng.sample(check_targets, 12):
        reqs.append(Request(f"check/{target}", ["--input", spec, "--command", "check", "--target", target],
                            expect={"type": "check", "lines": [line]}))
    reqs += (rng.sample(quant_reqs, 8) + rng.sample(gate_reqs["unitary"], 10)
             + rng.sample(gate_reqs["channel"], 10))
    rng.shuffle(reqs)
    text = "\n".join(lines) + "\n"
    return Workload(reqs, {Path(spec).name: text.encode()})


def locus_workload(seed: int) -> Workload:
    rng = random.Random(f"locus:{seed}")
    reqs = []
    for k in range(LOCUS_REPEATS):
        for n in LOCUS_SIZES:
            space = mixed_space(rng, f"h{n}", n)
            g = random_gate(rng, n)
            reqs.append(Request(f"locus/{n}{'abcdefgh'[k]}",
                                locus={"n": n, "gram": mat_text(space.gram), "gate": mat_text(g)},
                                expect={"type": "locus", "space": space, "mat": g}))
    return Workload(reqs)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's inputs for this seed; spec files are named inside workdir."""
    if name == "selftest":
        return selftest_workload(seed)
    if name == "cli-dense":
        return dense_workload(seed, workdir)
    if name == "cli-corpus":
        return corpus_workload(seed, str(workdir / "corpus.spec"))
    if name == "locus":
        return locus_workload(seed)
    raise ValueError(f"unknown workload {name!r}")
