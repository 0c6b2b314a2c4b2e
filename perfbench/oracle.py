"""Answer checks that share no code with vasskit.

Witnesses are re-executed with plain integer loops over the harness's
own copy of each instance; negative simple-scheme answers are checked
against a bounded word-level search of our own; CLI output is parsed
here, not with vasskit's parsers.  The only vasskit call is the one the
benchmark asks for by name: the capped decider's verdicts are compared
with ``decide.brute_force_oracle``.

Each check returns None when the answer is right, "budget" when the
operation ran out of budget, "error" when it raised, or a reason
starting with "wrong".
"""

from __future__ import annotations

from collections import deque

BUDGET, ERROR = "budget", "error"


def _walk(letters, x: int, y: int, cap: int | None = None):
    """Visited points of a word from (x, y); None if one leaves the
    quadrant (or the cap)."""
    points = [(x, y)]
    for dx, dy in letters:
        x, y = x + dx, y + dy
        if x < 0 or y < 0 or (cap is not None and (x > cap or y > cap)):
            return None
        points.append((x, y))
    return points


def failure(answer: dict) -> str | None:
    """BUDGET or ERROR when the operation raised instead of answering;
    the checks below assume it did not."""
    if answer.get("budget"):
        return BUDGET
    return ERROR if "error" in answer else None


# ---------------------------------------------------------------------------
# general 2-VASS


def check_vass_witness(spec: dict, word, states) -> str | None:
    if word is None or states is None or len(states) != len(word) + 1:
        return "wrong: state trace does not fit the word"
    if states[0] not in spec["initial"] or states[-1] not in spec["accepting"]:
        return "wrong: witness does not run from an initial to an accepting state"
    edges = {(p, dx, dy, q) for p, dx, dy, q in spec["edges"]}
    for i, (dx, dy) in enumerate(word):
        if (states[i], dx, dy, states[i + 1]) not in edges:
            return f"wrong: letter {i} is not an edge"
    points = _walk(word, *spec["source"], cap=spec["cap"])
    if points is None:
        return "wrong: witness leaves the quadrant or the cap"
    if list(points[-1]) != spec["target"]:
        return "wrong: witness misses the target"
    return None


def check_vass(spec: dict, answer: dict) -> str | None:
    """Verdict kind against the construction, witness re-executed."""
    if answer["kind"] != spec["expect"]:
        return f"wrong: {answer['kind']} where the construction gives {spec['expect']}"
    if answer["kind"] == "Reachable":
        if answer["length"] != len(answer["word"] or ()):
            return "wrong: stated length differs from the witness"
        return check_vass_witness(spec, answer["word"], answer["states"])
    return None


def compare_with_brute_force(decide, vass, source, target, cap, answer: dict) -> str | None:
    """Kind and shortest length against vasskit's brute-force oracle."""
    budget = len(vass.states) * (cap + 1) ** 2 + 1
    slow = decide.brute_force_oracle(vass, source, target, cap, budget=budget)
    if slow.kind != answer["kind"]:
        return f"wrong: brute-force oracle says {slow.kind}"
    if slow.length != answer["length"]:
        return f"wrong: length {answer['length']}, brute-force shortest {slow.length}"
    return None


# ---------------------------------------------------------------------------
# simple schemes


def _scheme_word(alphas, betas, exponents):
    word = [tuple(alphas[0])]
    for beta, n, alpha in zip(betas, exponents, alphas[1:]):
        word += [tuple(beta)] * n
        word.append(tuple(alpha))
    return word


def bounded_scheme_search(alphas, betas, source, target, bound: int = 24) -> bool:
    """Is there an admissible run of a0 b1* a1 ... from source to target
    whose points all stay within ``bound``?  Breadth-first over
    (position, x, y), letter by letter."""
    items = [("L", tuple(alphas[0]))]
    for beta, alpha in zip(betas, alphas[1:]):
        items += [("C", tuple(beta)), ("L", tuple(alpha))]
    start, goal = (0, *source), (len(items), *target)
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            return True
        pos, x, y = state
        if pos == len(items):
            continue
        kind, (dx, dy) = items[pos]
        moves = [(pos + 1, x, y)] if kind == "C" else []
        moves.append((pos if kind == "C" else pos + 1, x + dx, y + dy))
        for nxt in moves:
            if 0 <= nxt[1] <= bound and 0 <= nxt[2] <= bound and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def check_scheme_answer(spec: dict, reachable: bool, exponents) -> str | None:
    if reachable:
        if exponents is None or len(exponents) != len(spec["betas"]) or min(exponents, default=0) < 0:
            return "wrong: exponents do not fit the scheme"
        points = _walk(_scheme_word(spec["alphas"], spec["betas"], exponents), *spec["source"])
        if points is None:
            return "wrong: witness leaves the quadrant"
        if list(points[-1]) != spec["target"]:
            return "wrong: witness misses the target"
        return None
    if bounded_scheme_search(spec["alphas"], spec["betas"], spec["source"], spec["target"]):
        return "wrong: Unreachable, but a bounded search finds a run"
    return None


def check_slps(spec: dict, answer: dict) -> str | None:
    return check_scheme_answer(spec, answer["reachable"], answer["exponents"])


# ---------------------------------------------------------------------------
# CLI output


def _fields(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split()[1:] if "=" in tok)


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _check_decide(item, out):
    lines = out.splitlines()
    if len(lines) != 1 or not lines[0].startswith("verdict: "):
        return "wrong: decide output is not one verdict line"
    f = _fields(lines[0])
    word = [tuple(_ints(p)) for p in f["word"].split(";")] if f.get("word") else []
    states = f["states"].split(",") if "states" in f else None
    answer = {
        "kind": f.get("kind"),
        "length": int(f["length"]) if "length" in f else None,
        "word": word if f.get("kind") == "Reachable" else None,
        "states": states,
    }
    if int(f["cap"]) != item["spec"]["cap"]:
        return "wrong: verdict states another cap"
    return check_vass(item["spec"], answer)


def _check_shortening_line(spec, name, line):
    f = _fields(line)
    original, reduced = _ints(f["original"]), _ints(f["reduced"])
    delta, source = _ints(f["delta"]), _ints(f["source"])
    if f["scheme"] != name or original != spec["path"] or source != spec["source"]:
        return "wrong: certificate names another scheme, path or source"
    if len(reduced) != len(original) or any(r < 0 or r > o for r, o in zip(reduced, original)):
        return "wrong: reduced path is not a subpath"
    if sum(reduced) >= sum(original):
        return "wrong: nothing deleted"
    removed = [o - r for o, r in zip(original, reduced)]
    effect = [sum(n * b[c] for n, b in zip(removed, spec["betas"])) for c in (0, 1)]
    if effect != delta:
        return "wrong: deleted cycles do not sum to delta"
    if _walk(_scheme_word(spec["alphas"], spec["betas"], reduced), *source) is None:
        return "wrong: reduced path leaves the quadrant"
    return None


def _check_shorten(item, out):
    spec = item["spec"]
    lines = out.splitlines()
    if spec.get("case") is not None:
        if not lines or lines[0] != f"case: {spec['case']}" and not lines[0].startswith(f"case: {spec['case']} "):
            return f"wrong: expected corridor-exit case {spec['case']}"
        if spec["case"] == 2:
            v = _ints(_fields(lines[0])["vector"])
            if v not in spec["betas"] or not v[0] < 0 < v[1]:
                return "wrong: case-2 vector is not an up-and-left cycle"
            return None
        lines = lines[1:]
    if not lines or not all(ln.startswith("shortening: ") for ln in lines):
        return "wrong: no shortening lines"
    deltas = []
    for line in lines:
        reason = _check_shortening_line(spec, item["name"], line)
        if reason:
            return reason
        deltas.append(_ints(_fields(line)["delta"]))
    first = deltas[0]
    if any(d != [n * first[0], n * first[1]] for n, d in enumerate(deltas, start=1)):
        return "wrong: family deltas are not n times the first"
    return None


def _parse_simple_schemes(lines):
    """Split flatten output into (profile, alphas, betas) members."""
    members = []
    for line in lines:
        if line.startswith("# member profile="):
            members.append((_ints(line.split("=", 1)[1]), [], []))
        elif line.startswith(("seg ", "cyc ")):
            key, x, y = line.split()
            members[-1][1 if key == "seg" else 2].append((int(x), int(y)))
    return members


def _lps_word(alphas, betas, reps):
    word = [tuple(v) for v in alphas[0]]
    for beta, n, alpha in zip(betas, reps, alphas[1:]):
        word += [tuple(v) for v in beta] * n
        word += [tuple(v) for v in alpha]
    return word


def _effect(word):
    return (sum(v[0] for v in word), sum(v[1] for v in word))


def _check_flatten(item, out):
    """Every usage profile (0, 1 or >= 2 turns per cycle) appears once.
    With no turns of its starred letters a member spells the origin
    path with each cycle taken profile-many times, zero letters aside;
    with one turn of each, its effect is the origin's with every
    ``>= 2`` cycle taken three times."""
    alphas, betas = item["spec"]["alphas"], item["spec"]["betas"]
    k = len(betas)
    lines = out.splitlines()
    members = _parse_simple_schemes(lines[1:])
    if lines[0] != f"members: {3 ** k}" or len(members) != 3 ** k:
        return "wrong: member count is not 3^K"
    profiles = sorted(tuple(p) for p, _, _ in members)
    expected = sorted(tuple((n // 3 ** (k - 1 - i)) % 3 for i in range(k)) for n in range(3 ** k))
    if profiles != expected:
        return "wrong: usage profiles are not all of {0,1,2}^K"
    for profile, m_alphas, m_betas in members:
        if len(m_alphas) != len(m_betas) + 1:
            return "wrong: member is not a simple scheme"
        origin = _lps_word(alphas, betas, profile)
        nonzero = [v for v in m_alphas if v != (0, 0)]
        if nonzero != [v for v in origin if v != (0, 0)]:
            return f"wrong: member {profile} does not spell the origin path"
        taken = _effect(m_alphas + m_betas)
        three = _effect(_lps_word(alphas, betas, [3 if u == 2 else u for u in profile]))
        if taken != three:
            return f"wrong: member {profile} effect differs from the origin's"
    return None


def _check_slps_cli(item, out):
    spec = item["spec"]
    lines = out.splitlines()
    if len(lines) < 2 or not lines[0].startswith("cap: ") or not lines[1].startswith("result: "):
        return "wrong: slps-decide output malformed"
    f = _fields(lines[1])
    reachable = f.get("reachable") == "true"
    if not reachable and lines[2:] != ["kind=Unreachable"]:
        return "wrong: negative answer without kind=Unreachable"
    exponents = _ints(f["exponents"]) if "exponents" in f else None
    reason = check_scheme_answer(spec, reachable, exponents)
    if reason or not reachable:
        return reason
    points = _walk(_scheme_word(spec["alphas"], spec["betas"], exponents), *spec["source"])
    if int(f.get("maxnorm", -1)) != max(max(p) for p in points):
        return "wrong: maxnorm differs from the witness run"
    return None


def check_cli(item: dict, answer: dict) -> str | None:
    code, out = answer["code"], answer["out"]
    if code == 3:
        return BUDGET
    if code not in (0, 1):
        return ERROR
    kind = item["kind"]
    if kind == "verify":
        return None if code == 0 and out == "verify: ok\n" else "wrong: certificate rejected"
    if kind == "decide":
        want = 0 if item["spec"]["expect"] == "Reachable" else 1
        return f"wrong: exit {code}, expected {want}" if code != want else _check_decide(item, out)
    if kind == "slps-decide":
        reason = _check_slps_cli(item, out)
        if reason is None and code != (0 if "reachable=true" in out else 1):
            reason = "wrong: exit code does not match the answer"
        return reason
    if code != 0:
        return f"wrong: exit {code}"
    return _check_shorten(item, out) if kind == "shorten" else _check_flatten(item, out)


# ---------------------------------------------------------------------------
# fuzzing


def check_fuzz(answer: dict) -> str | None:
    """No violation, and one check per asked iteration, counted by the
    harness around the target's check function."""
    if answer["failures"]:
        return f"wrong: {answer['failures']} property violations"
    if answer["checks"] != answer["iters"]:
        return f"wrong: {answer['checks']} checks for {answer['iters']} iterations"
    return None
