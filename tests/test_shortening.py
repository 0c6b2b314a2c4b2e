"""Path-shortening operations and their certificates."""

import os
from collections import Counter
from random import Random

import pytest

from vasskit import (
    BudgetExceededError,
    Configuration,
    Instance,
    PlaneVector,
    PreconditionError,
    Shortening,
    ZERO,
    cut_by_vector,
    shorten_away_both,
    shorten_away_other,
    shorten_close_away,
    shorten_far,
    shorten_one_visit,
    shortening_violation,
    slps_of,
)
from conftest import GOLDENS_DIR, golden_argv, refuse_words, serialize_instance
from vasskit import certificates, cli, core, shortening
from vasskit.core import effect, instantiate, run

V = PlaneVector
UP = slps_of([ZERO, ZERO], [V(0, 1)])  # (0,0) [(0,1)]* (0,0)
CLIMB = slps_of([V(0, 1), V(0, 1)], [V(0, 1)])
VEE = slps_of([V(1, 0), V(-1, 1), V(0, 1)], [V(1, -1), V(-1, 1)])
UP_DOWN = slps_of([ZERO, ZERO, ZERO], [V(0, 1), V(0, -1)])


def test_cut_by_vector():
    family = cut_by_vector(UP, (3,), Configuration(6, 6), 1, V(0, 1))
    assert family.gamma == 1
    member = family.members[1]
    assert shortening_violation(member) is None
    assert member.reduced == (2,)
    assert member.delta == V(0, 1)


def test_cut_by_vector_zero_not_in_cone():
    with pytest.raises(PreconditionError, match=r"^cone of repeated cycles does not contain zero$"):
        cut_by_vector(UP, (3,), Configuration(6, 6), 1, ZERO)


def test_cut_by_vector_margin_violation():
    with pytest.raises(PreconditionError, match=r"^margin 6 violated \(offending point \(5,6\)\)$"):
        cut_by_vector(UP, (3,), Configuration(5, 6), 1, V(0, 1))


def test_cut_by_vector_no_heavy_cycle():
    # bound 2*norm^2*count = 4 at count 2; the one cycle is repeated 3 times
    with pytest.raises(PreconditionError, match=r"^no cycle is repeated at least 4 times$"):
        cut_by_vector(UP, (3,), Configuration(12, 12), 2, V(0, 1))


def test_cut_by_vector_direction_not_in_cone():
    with pytest.raises(PreconditionError, match=r"^cone of repeated cycles does not contain \(1,0\)$"):
        cut_by_vector(UP, (3,), Configuration(6, 6), 1, V(1, 0))


def test_cut_by_vector_mixed_cycles():
    scheme = slps_of([ZERO, ZERO, ZERO], [V(0, 2), V(0, -1)])
    family = cut_by_vector(scheme, (16, 16), Configuration(48, 48), 1, V(0, 1))
    assert 1 <= family.gamma <= 2 * scheme.norm**2
    assert shortening_violation(family.members[1]) is None


def test_shorten_close_away():
    family = shorten_close_away(UP, (5,), Configuration(0, 2), 2, 1)
    assert family.gamma == 1
    assert set(family.members) == {1, 2}
    for n, member in family.members.items():
        assert shortening_violation(member) is None
        assert member.delta == V(0, n)


def test_shorten_close_away_boundary():
    with pytest.raises(PreconditionError):
        shorten_close_away(UP, (3,), Configuration(0, 2), 2, 1)  # climb not strict


def test_shorten_close_away_corridor_violation():
    with pytest.raises(PreconditionError):
        shorten_close_away(UP, (5,), Configuration(2, 2), 2, 1)  # x reaches the wall


def test_shorten_close_away_refuses_a_corridor_narrower_than_its_cycle():
    # corridor // gamma would be 0, an empty family
    tall = slps_of([ZERO, ZERO], [V(0, 2)])
    with pytest.raises(PreconditionError) as info:
        shorten_close_away(tall, (10,), Configuration(0, 1), 1, 1)
    assert str(info.value) == "corridor 1 is narrower than the vertical cycle's height gamma = 2"
    assert set(shorten_close_away(tall, (10,), Configuration(0, 2), 2, 1).members) == {1}


def test_shorten_away_both():
    family = shorten_away_both(UP, (8,), Configuration(6, 6), 1, 1)
    assert family.gamma == 1
    assert shortening_violation(family.members[1]) is None


def test_shorten_away_both_boundary():
    with pytest.raises(PreconditionError):
        shorten_away_both(UP, (6,), Configuration(6, 6), 1, 1)
    with pytest.raises(PreconditionError):
        shorten_away_both(UP, (8,), Configuration(5, 6), 1, 1)


def test_shorten_away_other_case1():
    scheme = slps_of([V(0, 1), V(0, 1)], [V(0, 1)])
    result = shorten_away_other(scheme, (450,), Configuration(3, 7), 8, 1, 1)
    assert result.case == 1
    assert shortening_violation(result.family.members[1]) is None


def test_shorten_away_other_case2():
    scheme = slps_of([V(0, 1), V(0, 1)], [V(-1, 1)])
    result = shorten_away_other(scheme, (170,), Configuration(175, 5), 6, 1, 1)
    assert result.case == 2
    assert result.vector == V(-1, 1)


# inputs that take branches no golden takes, pinned with the one member
# they make: (op argv, segments, cycles, original, source, gamma, reduced,
# delta, whether the corridor-exit analysis went through segment surgery)
UNGOLDENED_BRANCHES = {
    # case 1 by a cut toward (0,1) over two heavy cycles, right after the re-entry
    "away-other-up-cut": (
        ["--op", "away-other", "--corridor", "6", "--cycle-cap", "2"],
        [V(1, 1), V(0, 1), V(0, 1)], [V(1, 1), V(-1, 1)], (122, 123), (5, 5),
        2, (121, 122), V(0, 2), False,
    ),
    # case 1 by a cut inside an excursion that climbs past the first re-entry
    "away-other-excursion": (
        ["--op", "away-other", "--corridor", "6", "--cycle-cap", "2"],
        [V(0, 1), V(0, 1), V(0, 1)], [V(1, 1), V(-1, 1)], (122, 122), (5, 5),
        2, (121, 121), V(0, 2), True,
    ),
    # the climb after the split is case 1, so no dive is matched against it
    "one-visit-climb": (
        ["--op", "one-visit", "--split", "2", "--corridor", "8", "--cycle-cap", "2"],
        [V(1, -1), V(-1, 1), V(0, 1)], [V(0, -1), V(0, 1)], (1, 680), (7, 9),
        1, (1, 679), V(0, 1), True,
    ),
}


@pytest.mark.parametrize("name", sorted(UNGOLDENED_BRANCHES))
def test_ungoldened_branches_are_pinned(monkeypatch, name):
    argv, alphas, cycles, original, source, gamma, reduced, delta, surgery = UNGOLDENED_BRANCHES[name]
    surgeries = []
    real = shortening._segment_surgery
    monkeypatch.setattr(shortening, "_segment_surgery", lambda *a: surgeries.append(a) or real(*a))
    scheme, start = slps_of(alphas, cycles), Configuration(*source)
    if argv[1] == "away-other":
        result = shorten_away_other(scheme, original, start, 6, 1, 2)
        assert result.case == 1
        family = result.family
    else:
        family = shorten_one_visit(scheme, original, start, 2, 8, 1, 2)
    assert family.gamma == gamma and list(family.members) == [1]
    member = family.members[1]
    assert (member.original, member.reduced, member.delta) == (original, reduced, delta)
    assert bool(surgeries) == surgery


@pytest.mark.parametrize("name", sorted(UNGOLDENED_BRANCHES))
def test_ungoldened_branches_certify_through_the_cli(tmp_path, capsys, name):
    argv, alphas, cycles, original, source, _gamma, reduced, delta, _surgery = UNGOLDENED_BRANCHES[name]
    scheme = slps_of(alphas, cycles)
    end = run(instantiate(scheme, original), Configuration(*source)).target
    query = (Configuration(*source), Configuration(end.x, end.y))
    f = tmp_path / f"{name}.vas"
    f.write_text(serialize_instance(Instance("slps", scheme=scheme, exponents=original, query=query)))
    cert = tmp_path / f"{name}.cert"
    assert cli.main(["shorten", str(f)] + argv + ["--cert", str(cert)]) == 0
    line = (
        f"shortening: scheme={name}.vas original={','.join(map(str, original))}"
        f" reduced={','.join(map(str, reduced))} delta={delta.x},{delta.y}"
        f" source={source[0]},{source[1]}"
    )
    header = "case: 1\n" if argv[1] == "away-other" else ""
    assert capsys.readouterr().out == header + line + "\n"
    assert cli.main(["verify", str(cert)]) == 0
    assert capsys.readouterr().out == "verify: ok\n"


def test_shorten_away_other_threshold():
    scheme = slps_of([V(0, 1), V(0, 1)], [V(0, 1)])
    with pytest.raises(PreconditionError):
        shorten_away_other(scheme, (10,), Configuration(3, 7), 8, 1, 1)


def test_shorten_one_visit():
    scheme = slps_of(
        [V(1, 0), V(-1, 1), V(0, 1)], [V(1, -1), V(-1, 1)]
    )
    reps = 700
    family = shorten_one_visit(
        scheme, (reps, reps), Configuration(7, reps + 7), 1 + reps, 8, 1, 2
    )
    assert 0 <= family.gamma <= 2 * scheme.norm**3
    member = family.members[1]
    assert shortening_violation(member) is None
    assert member.delta == V(0, family.gamma)


def test_shorten_one_visit_threshold():
    scheme = slps_of([V(1, 0), V(-1, 1), V(0, 1)], [V(1, -1), V(-1, 1)])
    with pytest.raises(PreconditionError):
        shorten_one_visit(scheme, (10, 10), Configuration(7, 17), 11, 8, 1, 2)


def test_shorten_far():
    scheme = slps_of([ZERO, ZERO, ZERO], [V(0, 1), V(0, -1)])
    member = shorten_far(scheme, (40, 40), Configuration(6, 6), 2)
    assert shortening_violation(member) is None
    assert member.delta == ZERO
    assert member.reduced == (39, 39)


def test_shorten_far_peak_below_threshold():
    scheme = slps_of([ZERO, ZERO, ZERO], [V(0, 1), V(0, -1)])
    with pytest.raises(PreconditionError):
        shorten_far(scheme, (10, 10), Configuration(6, 6), 2)


def test_shorten_far_margin_violation():
    scheme = slps_of([ZERO, ZERO, ZERO], [V(0, 1), V(0, -1)])
    with pytest.raises(PreconditionError):
        shorten_far(scheme, (40, 40), Configuration(3, 6), 2)


@pytest.mark.parametrize("count", [0, -1])
def test_counts_below_one_are_rejected(count):
    calls = [
        lambda: cut_by_vector(UP, (3,), Configuration(6, 6), count, V(0, 1)),
        lambda: shorten_away_both(UP, (8,), Configuration(6, 6), count, 1),
        lambda: shorten_away_other(CLIMB, (450,), Configuration(3, 7), 8, count, 1),
        lambda: shorten_one_visit(VEE, (700, 700), Configuration(7, 707), 701, 8, count, 2),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match=f"count must be at least 1, got {count}"):
            call()


# each operation that takes a cycle cap, on a valid input, with its cycle count K
CAPPED_OPS = {
    "close-away": (lambda cap: shorten_close_away(UP, (5,), Configuration(0, 2), 2, cap), 1),
    "away-both": (lambda cap: shorten_away_both(UP, (8,), Configuration(6, 6), 1, cap), 1),
    "away-other": (
        lambda cap: shorten_away_other(CLIMB, (450,), Configuration(3, 7), 8, 1, cap), 1
    ),
    "one-visit": (
        lambda cap: shorten_one_visit(VEE, (700, 700), Configuration(7, 707), 701, 8, 1, cap), 2
    ),
    "far": (lambda cap: shorten_far(UP_DOWN, (40, 40), Configuration(6, 6), cap), 2),
}


@pytest.mark.parametrize("op", sorted(CAPPED_OPS))
def test_cycle_cap_below_the_cycle_count_is_rejected(op):
    call, k = CAPPED_OPS[op]
    call(k)  # the stated bound K itself is accepted
    for cap in range(-1, k):
        with pytest.raises(PreconditionError) as info:
            call(cap)
        assert str(info.value) == f"scheme has {k} cycles, more than the stated bound {cap}"


def test_norm_zero_is_rejected_by_every_operation():
    flat = slps_of([ZERO, ZERO], [ZERO])
    flat2 = slps_of([ZERO, ZERO, ZERO], [ZERO, ZERO])
    calls = [
        lambda: cut_by_vector(flat, (3,), Configuration(6, 6), 1, ZERO),
        lambda: shorten_close_away(flat, (5,), Configuration(0, 2), 2, 1),
        lambda: shorten_away_both(flat, (8,), Configuration(6, 6), 1, 1),
        lambda: shorten_away_other(flat, (450,), Configuration(3, 7), 8, 1, 1),
        lambda: shorten_one_visit(flat2, (700, 700), Configuration(7, 707), 701, 8, 1, 2),
        lambda: shorten_far(flat2, (40, 40), Configuration(6, 6), 2),
    ]
    for call in calls:
        with pytest.raises(PreconditionError) as info:
            call()
        assert str(info.value) == "scheme norm must be positive"


def test_shortening_violation_catches_tampering():
    family = cut_by_vector(UP, (3,), Configuration(6, 6), 1, V(0, 1))
    good = family.members[1]
    bad = Shortening(good.scheme, good.original, good.reduced, V(0, 2), good.source)
    assert shortening_violation(bad) is not None
    not_proper = Shortening(good.scheme, good.original, good.original, ZERO, good.source)
    assert shortening_violation(not_proper) is not None


def _word_level_violation(sh):
    """Reference: the same checks in the same order, on built words."""
    k = sh.scheme.K
    if len(sh.original) != k or len(sh.reduced) != k:
        return "exponent-count mismatch with scheme"
    if any(n < 0 for n in sh.reduced):
        return "negative exponent in reduced path"
    if any(r > o for r, o in zip(sh.reduced, sh.original)):
        return "reduced path is not a subword (exponent exceeds original)"
    if sum(sh.reduced) >= sum(sh.original):
        return "reduced path is not a proper subword (nothing deleted)"
    original_word = instantiate(sh.scheme, sh.original)
    reduced_word = instantiate(sh.scheme, sh.reduced)
    if effect(original_word) - effect(reduced_word) != sh.delta:
        return "effect difference does not equal delta"
    if not run(reduced_word, sh.source).admissible:
        return "reduced path is not admissible from the source"
    return None


def _perturbed_shortening(rng):
    k = rng.randint(0, 3)
    letters = [V(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2 * k + 1)]
    scheme = slps_of(letters[: k + 1], letters[k + 1 :])
    original = [rng.randint(0, 8) for _ in range(k)]
    reduced = [max(0, n - rng.choice((0, 0, 1, 2, rng.randint(0, 8)))) for n in original]
    delta = effect(instantiate(scheme, original)) - effect(instantiate(scheme, reduced))
    shape = rng.randrange(12)
    if shape == 0 and k:
        reduced[rng.randrange(k)] = -rng.randint(1, 3)
    elif shape == 1 and k:
        reduced[rng.randrange(k)] = original[rng.randrange(k)] + rng.randint(1, 3)
    elif shape == 2:
        reduced = list(original)
    elif shape == 3:
        delta = delta + V(rng.choice((-1, 0, 1)), rng.choice((-1, 1)))
    elif shape == 4:
        (original if rng.random() < 0.5 else reduced).append(rng.randint(0, 3))
    source = Configuration(rng.randint(0, 10), rng.randint(0, 10))
    return Shortening(scheme, tuple(original), tuple(reduced), delta, source)


def test_shortening_violation_matches_the_word_level_reference():
    rng = Random(31)
    seen = {}
    for _ in range(10_000):
        sh = _perturbed_shortening(rng)
        reason = shortening_violation(sh)
        assert reason == _word_level_violation(sh), sh
        seen[reason] = seen.get(reason, 0) + 1
    assert set(seen) == {
        None,
        "exponent-count mismatch with scheme",
        "negative exponent in reduced path",
        "reduced path is not a subword (exponent exceeds original)",
        "reduced path is not a proper subword (nothing deleted)",
        "effect difference does not equal delta",
        "reduced path is not admissible from the source",
    }
    assert min(seen.values()) >= 200


def test_shortening_violation_builds_no_word(monkeypatch):
    """The checker reads corners, so it answers a path of any length: the
    letter limit binds only code that builds a word or a family."""
    members = cut_by_vector(UP, (3,), Configuration(6, 6), 1, V(0, 1)).members
    refuse_words(monkeypatch)
    assert shortening_violation(members[1]) is None
    huge = Shortening(UP, (10**19,), (0,), V(0, 10**19), Configuration(0, 0))
    assert shortening_violation(huge) is None
    dip = Shortening(UP_DOWN, (10**19, 10**19), (0, 1), V(0, 1), Configuration(0, 0))
    assert shortening_violation(dip) == "reduced path is not admissible from the source"
    monkeypatch.setattr(core, "MAX_PATH_LENGTH", 5)
    assert shortening_violation(Shortening(UP, (4,), (2,), V(0, 2), Configuration(0, 0))) is None
    with pytest.raises(BudgetExceededError, match="path of 6 letters exceeds the limit of 5"):
        cut_by_vector(UP, (4,), Configuration(6, 6), 1, V(0, 1))


class _LetterPath:
    """Letter-level reference for ``shortening._Path``: the word, each
    letter's cycle tag (None for a segment letter) and the visited points."""

    def __init__(self, letters, tags, points):
        self.letters, self.tags, self.points = list(letters), list(tags), list(points)

    @classmethod
    def of(cls, scheme, exponents, source):
        letters = instantiate(scheme, exponents)
        tags = [None]
        for i, n in enumerate(exponents):
            tags += [i] * n + [None]
        return cls(letters, tags, run(letters, source).visited)

    def first_outside(self, lo, hi, x_min, x_end, y_min):
        def inside(p):
            return (
                (x_min is None or p.x >= x_min)
                and (x_end is None or p.x < x_end)
                and (y_min is None or p.y >= y_min)
            )

        hi = len(self.points) - 1 if hi is None else hi
        return next((i for i in range(lo, hi + 1) if not inside(self.points[i])), None)

    def runs_left_of(self, x_end, lo):
        runs = []
        for i in range(lo, len(self.points)):
            if self.points[i].x < x_end:
                if runs and runs[-1][1] == i - 1:
                    runs[-1] = (runs[-1][0], i)
                else:
                    runs.append((i, i))
        return runs

    def counts(self, lo, hi):
        counted = Counter(t for t in self.tags[max(lo, 0):max(hi, 0)] if t is not None)
        return sorted((t, self.letters[self.tags.index(t)], n) for t, n in counted.items())

    def cut(self, i):
        head = _LetterPath(self.letters[:i], self.tags[:i], self.points[: i + 1])
        return head, _LetterPath(self.letters[i:], self.tags[i:], self.points[i:])

    def swapped(self):
        return _LetterPath(
            [V(v.y, v.x) for v in self.letters], self.tags, [V(p.y, p.x) for p in self.points]
        )


def _bound(rng, lo, hi):
    return None if rng.random() < 0.25 else rng.randint(lo, hi)


def _compare_views(rng, view, ref):
    """Every question the view answers, against the letter-level reference."""
    length = len(ref.letters)
    assert (view.length, view.start, view.end) == (length, ref.points[0], ref.points[-1])
    assert [view.point(i) for i in range(length + 1)] == ref.points
    for _ in range(4):
        lo = rng.randint(0, length + 1)
        hi = None if rng.random() < 0.5 else rng.randint(lo - 1, length)
        box = {
            "x_min": _bound(rng, -4, 12), "x_end": _bound(rng, -4, 14), "y_min": _bound(rng, -4, 12),
        }
        assert view.first_outside(lo, hi, **box) == ref.first_outside(lo, hi, **box)
        x_end, start = rng.randint(-4, 14), rng.randint(0, length + 1)
        assert view.runs_left_of(x_end, start) == ref.runs_left_of(x_end, start)
        lo, hi = rng.randint(-1, length + 1), rng.randint(-1, length + 1)
        assert sorted(view.counts(lo, hi)) == ref.counts(lo, hi)


def test_path_view_matches_the_letter_level_reference():
    rng = Random(41)
    zero_cycles = inside_cuts = 0
    for _ in range(5000):
        k = rng.randint(0, 3)
        letters = [V(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2 * k + 1)]
        scheme = slps_of(letters[: k + 1], letters[k + 1:])
        exponents = tuple(rng.choice((0, 0, 1, rng.randint(0, 8))) for _ in range(k))
        source = Configuration(rng.randint(0, 10), rng.randint(0, 10))
        view = shortening._path(scheme, exponents, source)
        ref = _LetterPath.of(scheme, exponents, source)
        corners = [V(x, y) for x, y in certificates._corners(scheme, exponents, source)]
        assert set(corners) <= set(ref.points) and corners[-1] == ref.points[-1]
        # the stretch bases and the end, where shorten_far reads its peak
        assert [V(x, y) for _i, x, y in view.bases] + [view.end] == corners
        for key in (lambda p: p.x, lambda p: p.y):
            assert min(map(key, corners)) == min(map(key, ref.points))
            assert max(map(key, corners)) == max(map(key, ref.points))
        # the norm is convex along a stretch: its peak, not its least value, is at a corner
        assert max(p.norm for p in corners) == max(p.norm for p in ref.points)
        _compare_views(rng, view, ref)
        _compare_views(rng, view.swapped(), ref.swapped())
        # cuts strictly inside a stretch split one cycle's repetitions
        inside = [j for j in range(1, view.length) if ref.tags[j - 1] == ref.tags[j] is not None]
        i = rng.choice(inside) if inside and rng.random() < 0.5 else rng.randint(0, view.length)
        (head, tail), (ref_head, ref_tail) = view.cut(i), ref.cut(i)
        _compare_views(rng, head, ref_head)
        _compare_views(rng, tail, ref_tail)
        _compare_views(rng, head.swapped(), ref_head.swapped())
        zero_cycles += 0 in exponents
        inside_cuts += i in inside
    assert zero_cycles >= 2000 and inside_cuts >= 800


SHORTENING_GOLDENS = sorted(
    name for name in os.listdir(GOLDENS_DIR)
    if name.endswith(".vas") and golden_argv(name)[0] == "shorten"
)


def test_no_operation_builds_a_word(monkeypatch, capsys):
    """The six operations, one per shortening golden, print the bundled
    expected outputs with every name bound to ``core.instantiate`` or
    ``core.run`` made to fail."""

    ops = {golden_argv(name)[golden_argv(name).index("--op") + 1] for name in SHORTENING_GOLDENS}
    assert ops == {"cut", "close-away", "away-both", "away-other", "one-visit", "far"}
    refuse_words(monkeypatch)
    for name in SHORTENING_GOLDENS:
        assert cli.main(golden_argv(name)) == 0
        with open(os.path.join(GOLDENS_DIR, "expected", name.replace(".vas", ".out"))) as fh:
            assert capsys.readouterr().out == fh.read(), name
