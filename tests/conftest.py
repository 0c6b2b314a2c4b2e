import os
import sys
from itertools import product
from random import Random

from vasskit import Instance, Lps, PlaneVector, SlpsMember, ZERO, core, effect, slps_of

GOLDENS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "goldens")

# argv per golden instance (file path appended first), mirroring how the
# bundled expected outputs and certificates were produced
GOLDEN_COMMANDS = {
    "g01-loop.vas": ["decide"],
    "g02-loop-unreach.vas": ["decide"],
    "g03-zero-edge.vas": ["decide"],
    "g04-two-loops.vas": ["decide"],
    "g05-slide.vas": ["decide"],
    "g06-parity.vas": ["decide"],
    "g07-alternate.vas": ["decide"],
    "g08-dead.vas": ["decide"],
    "g09-slps-up.vas": ["slps-decide"],
    "g10-slps-unreach.vas": ["slps-decide"],
    "g11-slps-two-cycles.vas": ["slps-decide"],
    "g12-slps-dip.vas": ["slps-decide"],
    "g13-slps-balance.vas": ["slps-decide"],
    "g14-slps-stride.vas": ["slps-decide"],
    "g15-shorten-far.vas": ["shorten", "--op", "far"],
    "g16-shorten-close.vas": ["shorten", "--op", "close-away", "--corridor", "8"],
    "g17-shorten-cut.vas": ["shorten", "--op", "cut", "--direction", "0,0", "--count", "1"],
    "g18-shorten-away.vas": ["shorten", "--op", "away-both", "--count", "1"],
    "g19-lps-basic.vas": ["flatten"],
    "g20-lps-two-cycles.vas": ["flatten"],
    "g21-lps-empty-segs.vas": ["flatten"],
    "g22-lps-three.vas": ["flatten"],
    "g23-shorten-away-other.vas": [
        "shorten", "--op", "away-other", "--corridor", "8", "--cycle-cap", "1",
    ],
    "g24-shorten-one-visit.vas": [
        "shorten", "--op", "one-visit", "--split", "701", "--corridor", "8", "--cycle-cap", "2",
    ],
}

CERTIFIED = [name for name, argv in GOLDEN_COMMANDS.items() if argv[0] != "flatten"]


def golden_argv(name: str) -> list[str]:
    argv = GOLDEN_COMMANDS[name]
    return [argv[0], os.path.join(GOLDENS_DIR, name)] + argv[1:]


def refuse_words(monkeypatch) -> None:
    """Bind every vasskit name for ``core.instantiate`` or ``core.run`` to
    a function that fails, so a test can show that no word is built or run."""

    def refuse(*args):
        raise AssertionError("a word was built or run")

    real = (core.instantiate, core.run)
    for name, module in sorted(sys.modules.items()):
        if name == "vasskit" or name.startswith("vasskit."):
            for attr, value in sorted(vars(module).items()):
                if any(value is f for f in real):
                    monkeypatch.setattr(module, attr, refuse)


def reference_split(scheme: Lps):
    """The split one profile of ``itertools.product`` at a time and one
    letter at a time, as ``split_lps`` once built it."""
    members = []
    for profile in product((0, 1, 2), repeat=scheme.K):
        groups = [list(scheme.alphas[0])]
        cycles = []
        for i, usage in enumerate(profile):
            beta = scheme.betas[i]
            if usage == 0:
                pass
            elif usage == 1:
                groups[-1].extend(beta)
            else:
                groups[-1].extend(beta)
                cycles.append((effect(beta), i))
                groups.append(list(beta))
                groups[-1].extend(scheme.alphas[i + 1])
                continue
            groups[-1].extend(scheme.alphas[i + 1])
        alphas, betas, origins = [], [], []
        for j, group in enumerate(groups):
            letters = group or [ZERO]
            alphas.append(letters[0])
            for letter in letters[1:]:
                betas.append(ZERO)
                origins.append(None)
                alphas.append(letter)
            if j < len(cycles):
                vec, origin = cycles[j]
                betas.append(vec)
                origins.append(origin)
        members.append(SlpsMember(slps_of(alphas, betas), profile, tuple(origins)))
    return tuple(members)


def random_lps(rng: Random, k: int) -> Lps:
    """A general scheme with K = k: segments of 0-2 letters, cycles of
    1-2, letters of norm at most 2."""

    def letter():
        return PlaneVector(rng.randint(-2, 2), rng.randint(-2, 2))

    alphas = tuple(tuple(letter() for _ in range(rng.randint(0, 2))) for _ in range(k + 1))
    betas = tuple(tuple(letter() for _ in range(rng.randint(1, 2))) for _ in range(k))
    return Lps(alphas, betas)


def serialize_instance(instance: Instance) -> str:
    """An instance's canonical text, which ``parse_instance`` reads back to
    the same instance; written line by line here, independently of vasskit."""
    out: list[str] = [instance.kind]
    if instance.kind == "vass":
        v = instance.vass
        out.append("states " + " ".join(v.states))
        out.append("init " + " ".join(sorted(v.initial)))
        out.append("final " + " ".join(sorted(v.accepting)))
        for p, vec, q in v.edges:
            out.append(f"edge {p} {q} {vec.x} {vec.y}")
    else:
        s = instance.scheme
        if instance.kind == "slps":
            out += [f"seg {a.x} {a.y}\ncyc {b.x} {b.y}" for (a,), (b,) in zip(s.alphas, s.betas)]
            (a,) = s.alphas[-1]
            out.append(f"seg {a.x} {a.y}")
        else:
            for alpha, beta in zip(s.alphas, s.betas):
                out += [_scheme_line("seg", alpha), _scheme_line("cyc", beta)]
            out.append(_scheme_line("seg", s.alphas[-1]))
        if instance.exponents is not None:
            out.append("path " + " ".join(str(n) for n in instance.exponents))
    if instance.query is not None:
        src, tgt = instance.query
        out.append(f"query {src.x} {src.y} -> {tgt.x} {tgt.y}")
    return "\n".join(out) + "\n"


def _scheme_line(key: str, word) -> str:
    return (key + " " + " ".join(f"{v.x},{v.y}" for v in word)).rstrip()
