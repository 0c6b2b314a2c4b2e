"""Spans around calls into vasskit's public functions, from outside.

``install`` replaces each listed function, wherever a vasskit module
holds a reference to it, with a wrapper that records a span (id, name,
start, end, parent, operation) and per-name call counts, total time and
self time.  Self time is a span's duration minus the time its child
spans cover; calls nest on one stack, so that is the sum of the direct
children's durations.  Spans live in memory, up to KEEP_SPANS of them;
the aggregates stay exact past that.

``install_counters`` puts plain counting wrappers (no spans, no clock)
around three functions whose counts go into every run's deterministic
block, traced or not.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from time import perf_counter


KEEP_SPANS = 10_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [id, child seconds, operation id]
        self._next_id = 0

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span.  ``name`` is a string or a
        function of the call's arguments; ``after(args, result, error,
        counts)`` runs once the span has closed."""
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, parent[2] if parent else span_id]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                self._close(label, frame, start, end, parent)
                if after is not None:
                    after(args, result, error, self.counts)

        return traced

    def _close(self, name, frame, start, end, parent):
        duration = end - start
        if parent is not None:
            parent[1] += duration
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame[0], name, start, end, parent[0] if parent else None, frame[2]))
        else:
            self.dropped += 1


def _replace_everywhere(original, wrapped) -> None:
    """Point every vasskit module attribute bound to ``original`` at
    ``wrapped``: ``from .core import run`` copies the reference."""
    for modname, module in list(sys.modules.items()):
        if modname != "vasskit" and not modname.startswith("vasskit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _count_explored(args, result, error, counts):
    if result is not None:
        counts["decide.bfs.explored"] += result.explored


def _count_budget_out(args, result, error, counts):
    if error is not None and type(error).__name__ == "BudgetExceededError":
        counts["schemes.reach.budget_outs"] += 1


def _count_check(args, result, error, counts):
    counts["fuzzing.check.calls"] += 1


def _counted(fn, after, counts):
    def counted(*args, **kwargs):
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            after(args, result, error, counts)

    return counted


def install_counters(counts: dict, vk: dict) -> None:
    """Exact counts that every run keeps, traced or not: states explored
    by ``decide_capped_bfs``, budget-outs of ``slps_reach`` and calls of
    the fuzz targets' checks.  Each call costs one plain wrapper."""
    for modname, attr, after in (
        ("decide", "decide_capped_bfs", _count_explored),
        ("schemes", "slps_reach", _count_budget_out),
    ):
        original = getattr(vk[modname], attr)
        _replace_everywhere(original, _counted(original, after, counts))
    targets = vk["fuzzing"].TARGETS
    for key, target in list(targets.items()):
        targets[key] = dataclasses.replace(target, check=_counted(target.check, _count_check, counts))


def _count_run_letters(args, result, error, counts):
    counts["core.run.letters"] += len(args[0])


def _count_instantiated(args, result, error, counts):
    if result is not None:
        counts["core.instantiate.letters"] += len(result)


def _count_lines(args, result, error, counts):
    counts["instances.parse.lines"] += len(args[0].splitlines())


CONES = (
    "cone_contains_zero", "cone_contains", "zero_combination",
    "outermost_pair", "separating_vector", "excluding_vector",
)
SHORTENING_OPS = (
    "cut_by_vector", "shorten_close_away", "shorten_away_both",
    "shorten_away_other", "shorten_one_visit", "shorten_far",
)


def install(tracer: Tracer, vk: dict) -> None:
    """Wrap the listed public functions of the imported vasskit modules
    ``vk`` (module name -> module)."""
    table = [
        ("decide", "decide_capped_bfs", "decide.bfs", _count_explored),
        ("decide", "brute_force_oracle", "decide.oracle", None),
        ("core", "run", "core.run", _count_run_letters),
        ("core", "instantiate", "core.instantiate", _count_instantiated),
        ("schemes", "slps_reach", "schemes.reach", _count_budget_out),
        ("schemes", "split_lps", "schemes.split", None),
        ("shortening", "shortening_violation", "shortening.violation", None),
        ("instances", "parse_instance", "instances.parse", _count_lines),
        ("cli", "main", lambda args: f"cli.main:{args[0][0]}", None),
        ("certificates", "verify_certificate_file", "certificates.verify", None),
        ("fuzzing", "path_profile", "fuzzing.path_profile", None),
        ("fuzzing", "bounded_relation", "fuzzing.bounded_relation", None),
    ]
    table += [("cones", fn, "cones", None) for fn in CONES]
    table += [("shortening", fn, "shortening.ops", None) for fn in SHORTENING_OPS]
    for modname, attr, name, after in table:
        original = getattr(vk[modname], attr)
        _replace_everywhere(original, tracer.wrap(name, original, after))
    vass = vk["core"].Vass
    vass.edges_from = tracer.wrap("core.edges_from", vass.edges_from)
    targets = vk["fuzzing"].TARGETS
    for key, target in list(targets.items()):
        targets[key] = dataclasses.replace(target, check=tracer.wrap("fuzzing.check", target.check))


# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("decide.bfs.calls", "count"),
    ("decide.bfs.explored", "count"),
    ("decide.bfs.self_s", "s"),
    ("decide.bfs.states_per_s", "states/s"),
    ("decide.oracle.self_s", "s"),
    ("core.edges_from.calls", "count"),
    ("core.edges_from.self_s", "s"),
    ("core.run.letters", "count"),
    ("core.run.letters_per_s", "letters/s"),
    ("core.instantiate.letters_per_s", "letters/s"),
    ("schemes.reach.calls", "count"),
    ("schemes.reach.self_s", "s"),
    ("schemes.reach.budget_outs", "count"),
    ("schemes.reach.decided_frac", "ratio"),
    ("schemes.split.self_s", "s"),
    ("cones.calls", "count"),
    ("cones.self_s", "s"),
    ("cones.calls_per_s", "calls/s"),
    ("shortening.ops.calls", "count"),
    ("shortening.ops.self_s", "s"),
    ("shortening.violation.self_s", "s"),
    ("instances.parse.calls", "count"),
    ("instances.parse.lines_per_s", "lines/s"),
    ("cli.self_s", "s"),
    ("certificates.verify.calls", "count"),
    ("certificates.verify.ms_per_cert", "ms"),
    ("certificates.verify_to_produce", "ratio"),
    ("fuzzing.path_profile.calls", "count"),
    ("fuzzing.path_profile.self_s", "s"),
    ("fuzzing.bounded_relation.self_s", "s"),
    ("fuzzing.check.self_s", "s"),
    ("trace.overhead_s", "s"),
]

PRODUCING_COMMANDS = ("cli.main:decide", "cli.main:shorten", "cli.main:slps-decide")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(stats: dict, counts: dict, passes: int, overhead_s: float, scale: float) -> dict:
    """Per-layer metrics per traced pass of the operation set.  Times
    are multiplied by ``scale``, the host-speed factor of the traced
    passes.  Rates divide a count by the time of the spans doing that
    work: inclusive time where spans of the name never nest, self time
    for cones."""
    def calls(name):
        return stats[name][0] if name in stats else 0

    def total(name):
        return stats[name][1] * scale if name in stats else 0.0

    def self_s(name):
        return stats[name][2] * scale if name in stats else 0.0

    explored = counts.get("decide.bfs.explored", 0)
    budget_outs = counts.get("schemes.reach.budget_outs", 0)
    summed = {
        "decide.bfs.calls": calls("decide.bfs"),
        "decide.bfs.explored": explored,
        "decide.bfs.self_s": self_s("decide.bfs"),
        "decide.oracle.self_s": self_s("decide.oracle"),
        "core.edges_from.calls": calls("core.edges_from"),
        "core.edges_from.self_s": self_s("core.edges_from"),
        "core.run.letters": counts.get("core.run.letters", 0),
        "schemes.reach.calls": calls("schemes.reach"),
        "schemes.reach.self_s": self_s("schemes.reach"),
        "schemes.reach.budget_outs": budget_outs,
        "schemes.split.self_s": self_s("schemes.split"),
        "cones.calls": calls("cones"),
        "cones.self_s": self_s("cones"),
        "shortening.ops.calls": calls("shortening.ops"),
        "shortening.ops.self_s": self_s("shortening.ops"),
        "shortening.violation.self_s": self_s("shortening.violation"),
        "instances.parse.calls": calls("instances.parse"),
        "cli.self_s": sum(self_s(n) for n in stats if n.startswith("cli.main:")),
        "certificates.verify.calls": calls("certificates.verify"),
        "fuzzing.path_profile.calls": calls("fuzzing.path_profile"),
        "fuzzing.path_profile.self_s": self_s("fuzzing.path_profile"),
        "fuzzing.bounded_relation.self_s": self_s("fuzzing.bounded_relation"),
        "fuzzing.check.self_s": self_s("fuzzing.check"),
    }
    out = {name: value / passes for name, value in summed.items()}
    out.update({
        "decide.bfs.states_per_s": _ratio(explored, total("decide.bfs")),
        "core.run.letters_per_s": _ratio(counts.get("core.run.letters", 0), total("core.run")),
        "core.instantiate.letters_per_s":
            _ratio(counts.get("core.instantiate.letters", 0), total("core.instantiate")),
        "schemes.reach.decided_frac":
            _ratio(calls("schemes.reach") - budget_outs, calls("schemes.reach")),
        "cones.calls_per_s": _ratio(calls("cones"), self_s("cones")),
        "instances.parse.lines_per_s":
            _ratio(counts.get("instances.parse.lines", 0), total("instances.parse")),
        "certificates.verify.ms_per_cert":
            _ratio(total("certificates.verify") * 1000, calls("certificates.verify")),
        "certificates.verify_to_produce":
            _ratio(total("cli.main:verify"), sum(total(n) for n in PRODUCING_COMMANDS)),
        "trace.overhead_s": overhead_s,
    })
    return {name: out[name] for name, _ in PER_LAYER}
