"""Reachability toolkit for planar vector addition systems with states
and linear path schemes: exact cone geometry, certified path-shortening
operations, scheme splitting, complete simple-scheme decisions, and a
capped general decider, with seeded property fuzzing throughout.  The
paper's lemmas that back no decision (Lemma 5's drift bound, Lemma 11's
loop lemma) are checked by the test suite instead.
"""

from .core import (
    REACHABLE,
    UNREACHABLE_WITHIN_CAP,
    Configuration,
    Lps,
    PlaneVector,
    Run,
    SchemePath,
    Slps,
    Vass,
    Verdict,
    WitnessResult,
    Word,
    ZERO,
    effect,
    instantiate,
    path_length,
    run,
    slps_of,
)
from .certificates import Shortening, brute_force_oracle, shortening_violation, witness_violation
from .cones import (
    ZeroCombination,
    cone_contains,
    cone_contains_zero,
    excluding_vector,
    outermost_pair,
    rotate_ccw,
    rotate_cw,
    separating_vector,
    set_norm,
    zero_combination,
)
from .decide import decide_capped_bfs, default_cap
from .errors import (
    BudgetExceededError,
    InternalDefectError,
    ParseError,
    PreconditionError,
    VasskitError,
)
from .instances import Instance, load_instance, parse_instance, slps_line
from .schemes import (
    SlpsMember,
    norm_bound,
    norm_bound_value,
    origin_turns,
    search_cap,
    slps_reach,
    split_lps,
    split_walk,
)
from .shortening import (
    AwayOtherResult,
    ShorteningFamily,
    cut_by_vector,
    shorten_away_both,
    shorten_away_other,
    shorten_close_away,
    shorten_far,
    shorten_one_visit,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
