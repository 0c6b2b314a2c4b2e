"""Seeded input generators for the four benchmark workloads.

Everything here is plain Python data (lists of ints and strings) built
from ``random.Random``; nothing imports vasskit (``vass_query`` is handed
the module), so the parent process
can regenerate the exact inputs a child ran and check the answers
against them.  Each generator stratifies on input properties (state
count, cycle count, whether a cycle can drift away from the origin) in
fixed proportions, so the total work of a set varies little from seed
to seed.  No instance is ever dropped because of how the program
behaves on it.
"""

from __future__ import annotations

from math import gcd
from random import Random

WORKLOADS = ("vass-bfs", "slps-decide", "cli-certify", "fuzz-oracles")

# Sizes per workload.  ``tiny`` is the self-test size.
SIZES = {
    "full": {
        "bfs_cap": 100, "bfs_queries": {"reach": 30, "parity": 30, "cap": 30},
        "slps_count": 1800, "slps_budget": 3_000,
        "cli_decide": 40, "cli_shorten": 10, "cli_flatten": 30, "cli_slps": 60,
        "fuzz_rounds": 6, "fuzz_thm12_small": 20,
        "fuzz_thm12_k2": {"MM": 8, "MP": 10, "MX": 11, "PP": 7, "PX": 13, "XX": 7, "Z": 4},
    },
    "tiny": {
        "bfs_cap": 30, "bfs_queries": {"reach": 4, "parity": 1, "cap": 1},
        "slps_count": 12, "slps_budget": 2_000,
        "cli_decide": 2, "cli_shorten": 1, "cli_flatten": 1, "cli_slps": 2,
        "fuzz_rounds": 1, "fuzz_thm12_small": 1,
        "fuzz_thm12_k2": {"MX": 1},
    },
}


def _rng(workload: str, seed: int) -> Random:
    return Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# general 2-VASS with a known answer

# Letters of norm <= 3 with an even coordinate sum: every reachable point
# keeps the parity of x + y, so a target of the other parity is
# unreachable by construction.
EVEN_LETTERS = [
    (x, y) for x in range(-3, 4) for y in range(-3, 4) if (x + y) % 2 == 0 and (x, y) != (0, 0)
]
RING_STATES = ("p", "q", "r")
# a sink entered only by letters that lower the x (or y) coordinate and
# left only by self-loops that raise neither coordinate
SINK = "f"
VASS_STATES = RING_STATES + (SINK,)
DESCENDING_LOOPS = [(x, y) for x, y in EVEN_LETTERS if x <= 0 and y <= 0]
VASS_KINDS = ("reach", "parity", "cap")


def _simple_cycle_effects(edges) -> list[tuple[int, int]]:
    """Effects of the self-loops, 2-cycles and 3-cycles of a 3-state graph."""
    out = [(dx, dy) for p, dx, dy, q in edges if p == q]
    for a in edges:
        for b in edges:
            if a[3] != b[0] or a[0] == a[3]:
                continue
            if b[3] == a[0]:
                out.append((a[1] + b[1], a[2] + b[2]))
            for c in edges:
                if b[0] != b[3] and c[0] == b[3] and c[3] == a[0] and len({a[0], b[0], c[0]}) == 3:
                    out.append((a[1] + b[1] + c[1], a[2] + b[2] + c[2]))
    return out


def _spans_plane(vectors) -> bool:
    """Do the vectors positively span Z^2?  If a closed half-plane held
    them all, one could turn it until its edge runs along one of them."""
    vectors = [v for v in vectors if v != (0, 0)]
    for x, y in vectors:
        for ux, uy in ((-y, x), (y, -x)):
            if all(ux * vx + uy * vy >= 0 for vx, vy in vectors):
                return False
    return bool(vectors)


def _lattice_index(vectors) -> int:
    index = 0
    for ax, ay in vectors:
        for bx, by in vectors:
            index = gcd(index, ax * by - ay * bx)
    return index


def gen_vass(rng: Random, cap: int, kind: str) -> dict:
    """Three states on a ring plus five random edges, redrawn until the
    simple cycles positively span the plane and generate the whole
    even-sum lattice: then nearly every in-cap point of the right parity
    is reachable in every ring state, and each search covers a region of
    about the same size.  Besides, one or two gate edges lead from the
    ring into the sink ``f``; they all lower the same coordinate, and the
    sink's self-loops raise neither.

    ``kind`` picks the query.  "reach" ends a random in-cap walk at its
    point farthest up and right.  "parity" asks for a point whose
    coordinate sum has the wrong parity.  "cap" asks for a point of the
    right parity in ``f`` whose gated coordinate equals the cap: every
    run into ``f`` arrives below it and never climbs back, so only a run
    that leaves the cap could get there.  Both negatives make the search
    exhaust the whole in-cap region."""
    ring = RING_STATES
    while True:
        edges = [[ring[i], *rng.choice(EVEN_LETTERS), ring[(i + 1) % 3]] for i in range(3)]
        edges += [[rng.choice(ring), *rng.choice(EVEN_LETTERS), rng.choice(ring)] for _ in range(5)]
        effects = _simple_cycle_effects(edges)
        if _spans_plane(effects) and _lattice_index(effects) == 2:
            break
    axis = rng.randrange(2)
    gates = [v for v in EVEN_LETTERS if v[axis] < 0]
    edges += [[rng.choice(ring), *rng.choice(gates), SINK] for _ in range(rng.randint(1, 2))]
    edges += [[SINK, *rng.choice(DESCENDING_LOOPS), SINK] for _ in range(rng.randint(1, 2))]
    sx, sy = rng.randint(cap // 8, cap // 4), rng.randint(cap // 8, cap // 4)
    if kind == "reach":
        state, x, y = "p", sx, sy
        best = (x + y, state, x, y)
        for _ in range(4 * cap):
            moves = [
                (dx, dy, q)
                for p, dx, dy, q in edges
                if p == state and 0 <= x + dx <= cap and 0 <= y + dy <= cap
            ]
            if not moves:
                break
            if rng.random() < 0.6:
                moves = [max(moves, key=lambda m: m[0] + m[1])]
            dx, dy, state = rng.choice(moves)
            x, y = x + dx, y + dy
            best = max(best, (x + y, state, x, y))
        _, state, x, y = best
        accepting, target = [state], [x, y]
    elif kind == "parity":
        while True:
            target = [rng.randint(0, cap), rng.randint(0, cap)]
            if (target[0] + target[1] - sx - sy) % 2:
                break
        accepting = sorted(rng.sample(VASS_STATES, rng.randint(1, 4)))
    else:
        other = rng.randrange((cap + sx + sy) % 2, cap + 1, 2)
        target = [cap, other] if axis == 0 else [other, cap]
        accepting = [SINK]
    return {
        "states": list(VASS_STATES),
        "edges": edges,
        "initial": ["p"],
        "accepting": accepting,
        "source": [sx, sy],
        "target": target,
        "cap": cap,
        "class": kind,
        "expect": "Reachable" if kind == "reach" else "UnreachableWithinCap",
    }


def vass_query(core, spec: dict):
    """The automaton, source and target of a spec, as objects of the
    given ``vasskit.core`` module."""
    V = core.PlaneVector
    vass = core.Vass(
        tuple(spec["states"]),
        tuple((p, V(dx, dy), q) for p, dx, dy, q in spec["edges"]),
        frozenset(spec["initial"]),
        frozenset(spec["accepting"]),
    )
    return vass, core.Configuration(*spec["source"]), core.Configuration(*spec["target"])


def gen_vass_bfs(seed: int, size: dict) -> list[dict]:
    rng = _rng("vass-bfs", seed)
    kinds = [kind for kind in VASS_KINDS for _ in range(size["bfs_queries"][kind])]
    rng.shuffle(kinds)
    return [gen_vass(rng, size["bfs_cap"], kind) for kind in kinds]


# ---------------------------------------------------------------------------
# simple schemes

SCHEME_LETTERS = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
# a cycle that can carry the run away from the origin forever
DRIFTING = [v for v in SCHEME_LETTERS if v[0] >= 0 and v[1] >= 0 and v != (0, 0)]
# a cycle with a negative coordinate
DESCENDING = [v for v in SCHEME_LETTERS if v[0] < 0 or v[1] < 0]


def gen_slps(rng: Random, k: int, drifting: bool) -> dict:
    """A simple scheme with ``k`` cycles; when ``drifting``, at least one
    cycle has no negative coordinate, otherwise none has."""
    betas = [rng.choice(DESCENDING) for _ in range(k)]
    if drifting:
        betas[rng.randrange(k)] = rng.choice(DRIFTING)
    return {
        "alphas": [list(rng.choice(SCHEME_LETTERS)) for _ in range(k + 1)],
        "betas": [list(b) for b in betas],
        "source": [rng.randint(0, 4), rng.randint(0, 4)],
        "target": [rng.randint(0, 6), rng.randint(0, 6)],
    }


def gen_slps_decide(seed: int, size: dict) -> list[dict]:
    """Cycle counts 1..3 and the drifting/descending split in equal shares."""
    rng = _rng("slps-decide", seed)
    out = []
    for i in range(size["slps_count"]):
        out.append(gen_slps(rng, 1 + i % 3, drifting=(i // 3) % 2 == 0))
        out[-1]["budget"] = size["slps_budget"]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# the CLI load: decide, the shortening operations, flatten, slps-decide


def _slps_file(alphas, betas, path=None, query=None) -> str:
    lines = ["slps"]
    for i, a in enumerate(alphas):
        lines.append(f"seg {a[0]} {a[1]}")
        if i < len(betas):
            lines.append(f"cyc {betas[i][0]} {betas[i][1]}")
    if path is not None:
        lines.append("path " + " ".join(str(n) for n in path))
    if query is not None:
        (sx, sy), (tx, ty) = query
        lines.append(f"query {sx} {sy} -> {tx} {ty}")
    return "\n".join(lines) + "\n"


def _vass_file(spec: dict) -> str:
    lines = [
        "vass",
        "states " + " ".join(spec["states"]),
        "init " + " ".join(spec["initial"]),
        "final " + " ".join(spec["accepting"]),
    ]
    lines += [f"edge {p} {q} {dx} {dy}" for p, dx, dy, q in spec["edges"]]
    (sx, sy), (tx, ty) = spec["source"], spec["target"]
    lines.append(f"query {sx} {sy} -> {tx} {ty}")
    return "\n".join(lines) + "\n"


def _lps_file(alphas, betas) -> str:
    def pairs(word):
        return " ".join(f"{x},{y}" for x, y in word)

    lines = ["lps"]
    for i, a in enumerate(alphas):
        lines.append(("seg " + pairs(a)).rstrip())
        if i < len(betas):
            lines.append("cyc " + pairs(betas[i]))
    return "\n".join(lines) + "\n"


def _shorten_far(rng: Random) -> dict:
    h = rng.randint(1, 2)
    margin = 6 * h**3
    sx, sy = margin + rng.randint(0, 3), margin + rng.randint(0, 3)
    threshold = 3 * h**2 * max(sx, sy) + (15 * h**5 * 2 + 1) // 2 + 1
    reps = threshold // h + rng.randint(2, 10)
    return {
        "alphas": [[0, 0]] * 3, "betas": [[0, h], [0, -h]], "path": [reps, reps],
        "source": [sx, sy], "args": ["--op", "far"],
    }


def _shorten_close_away(rng: Random) -> dict:
    corridor = rng.randint(4, 8)
    c = rng.randint(1, 2)
    alphas = [[0, rng.randint(0, 1)], [0, rng.randint(0, 1)]]
    n = corridor
    while alphas[0][1] + alphas[1][1] + n * c <= (corridor + 1) * 2:
        n += corridor
    return {
        "alphas": alphas, "betas": [[0, c]], "path": [n + rng.randint(0, 20)],
        "source": [rng.randrange(corridor), corridor + rng.randint(0, 4)],
        "args": ["--op", "close-away", "--corridor", str(corridor)],
    }


def _shorten_cut(rng: Random) -> dict:
    v = rng.choice([(1, 1), (1, 0), (0, 1), (1, -1)])
    reps = rng.randint(10, 30)
    low = 6 + reps
    return {
        "alphas": [[0, 0]] * 3, "betas": [list(v), [-v[0], -v[1]]], "path": [reps, reps],
        "source": [low + rng.randint(0, 5), low + rng.randint(0, 5)],
        "args": ["--op", "cut", "--direction", "0,0", "--count", "1"],
    }


def _shorten_away_both(rng: Random) -> dict:
    reps = rng.randint(60, 80)
    return {
        "alphas": [[0, 0]] * 3, "betas": [[0, 1], [0, 2]], "path": [reps, reps],
        "source": [48 + rng.randint(0, 8), 48 + rng.randint(0, 8)],
        "args": ["--op", "away-both", "--count", "1"],
    }


def _shorten_away_other(rng: Random) -> dict:
    if rng.random() < 0.5:  # climbs inside the corridor: a vertical family
        corridor = rng.randint(6, 8)
        reps = 12 * 2 * (corridor + 1) + rng.randint(0, 20)
        return {
            "alphas": [[0, 1], [0, 1]], "betas": [[0, 1]], "path": [reps],
            "source": [rng.randrange(corridor), corridor - 1],
            "args": ["--op", "away-other", "--corridor", str(corridor), "--cycle-cap", "1"],
            "case": 1,
        }
    corridor = 6  # drifts left out of the corridor: a climbing-left vector
    reps = 12 * 2 * (corridor + 1) + rng.randint(0, 30)
    return {
        "alphas": [[0, 1], [0, 1]], "betas": [[-1, 1]], "path": [reps],
        "source": [reps + corridor - 1, corridor - 1],
        "args": ["--op", "away-other", "--corridor", str(corridor), "--cycle-cap", "1"],
        "case": 2,
    }


def _shorten_one_visit(rng: Random) -> dict:
    corridor = 8
    reps = 19 * 4 * (corridor + 1) - 9 + rng.randint(1, 40)
    if rng.random() < 0.5:  # dives along the right band, climbs back
        betas, source = [[1, -1], [-1, 1]], [corridor - 1, reps + corridor - 1]
    else:
        betas, source = [[1, 0], [-1, 1]], [corridor - 1, corridor - 1]
    return {
        "alphas": [[1, 0], [-1, 1], [0, 1]], "betas": betas, "path": [reps, reps],
        "source": source,
        "args": ["--op", "one-visit", "--split", str(1 + reps), "--corridor", str(corridor),
                 "--cycle-cap", "2"],
    }


SHORTEN_OPS = (
    _shorten_far, _shorten_close_away, _shorten_cut,
    _shorten_away_both, _shorten_away_other, _shorten_one_visit,
)


def gen_lps(rng: Random, k: int) -> dict:
    """A general scheme with ``k`` cycles of one or two letters, norm <= 2."""
    letters = [v for v in SCHEME_LETTERS if v != (0, 0)]
    return {
        "alphas": [[list(rng.choice(letters)) for _ in range(rng.randint(0, 2))] for _ in range(k + 1)],
        "betas": [[list(rng.choice(letters)) for _ in range(rng.randint(1, 2))] for _ in range(k)],
    }


def gen_cli_certify(seed: int, size: dict) -> list[dict]:
    """One entry per CLI command, each with the file text it reads.

    Certificates land next to the instance; each certificate-producing
    command is followed later in the list by a ``verify`` of it."""
    rng = _rng("cli-certify", seed)
    items = []
    for i in range(size["cli_decide"]):
        spec = gen_vass(rng, 40, "cap" if i % 8 == 7 else "parity" if i % 8 == 3 else "reach")
        items.append({
            "kind": "decide", "name": f"decide-{i}.vas", "text": _vass_file(spec), "spec": spec,
            "args": ["--cap", str(spec["cap"])], "cert": True,
        })
    for j in range(size["cli_shorten"]):
        for make in SHORTEN_OPS:
            spec = make(rng)
            name = f"shorten-{spec['args'][1]}-{j}.vas"
            text = _slps_file(spec["alphas"], spec["betas"], spec["path"], (spec["source"], spec["source"]))
            items.append({"kind": "shorten", "name": name, "text": text, "spec": spec,
                          "args": spec["args"], "cert": True})
    for i in range(size["cli_flatten"]):
        spec = gen_lps(rng, 3 + i % 3)
        items.append({"kind": "flatten", "name": f"flatten-{i}.vas",
                      "text": _lps_file(spec["alphas"], spec["betas"]), "spec": spec,
                      "args": [], "cert": False})
    for i in range(size["cli_slps"]):
        # descending cycles only: the search space is finite, so the
        # default budget is never the bottleneck here
        spec = gen_slps(rng, 1 + i % 3, drifting=False)
        text = _slps_file(spec["alphas"], spec["betas"], None, (spec["source"], spec["target"]))
        items.append({"kind": "slps-decide", "name": f"slps-{i}.vas", "text": text, "spec": spec,
                      "args": [], "cert": True})
    rng.shuffle(items)
    items += [
        {"kind": "verify", "name": it["name"][:-4] + ".cert", "of": it["name"]}
        for it in items if it["cert"]
    ]
    return items


# ---------------------------------------------------------------------------
# fuzz targets: iterations per operation keep each one in the tens of
# milliseconds; thm12 runs one case per operation (see child.fuzz_plan)

def cycle_pair_class(effects) -> str:
    """Stratum of a two-cycle thm12 case, from its cycles' effects: "Z"
    if one effect is zero, else the sorted pair of P (no negative
    coordinate), M (no positive one) and X (one of each).  A case's
    cost depends mostly on this: about 15 ms for Z, 80-150 ms for the
    others, with PP the dearest."""
    if (0, 0) in effects:
        return "Z"
    names = ["P" if x >= 0 and y >= 0 else "M" if x <= 0 and y <= 0 else "X" for x, y in effects]
    return "".join(sorted(names))


FUZZ_ITERS = {
    "lemma1": 4, "lemma2": 100, "lemma3": 40, "lemma4": 40, "lemma6": 40,
    "thm5": 40, "thm6": 15, "thm7": 30, "thm8": 3, "thm9": 6, "decider": 30,
}


def fuzz_rng(seed: int) -> Random:
    """The fuzz plan needs vasskit's own thm12 generator to read each
    case's cycle count, so the child builds it from this stream."""
    return _rng("fuzz-oracles", seed)


GENERATORS = {
    "vass-bfs": gen_vass_bfs,
    "slps-decide": gen_slps_decide,
    "cli-certify": gen_cli_certify,
}
