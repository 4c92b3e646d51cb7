"""Expected run-time analysis for discrete probabilistic programs.

The package computes expected run times by a backward transformer over
extended non-negative rationals, checks user-supplied loop invariants,
and cross-validates results against an independently built operational
model with expected total reward semantics.
"""

__version__ = "0.1.0"

# the library entry points; everything else is imported from its submodule
from .kernel import INF, State, XReal
from .syntax import Annotated, program_to_text
from .parser import ParseError, parse_program, parse_rt
from .transformer import (
    ErtConfig,
    ErtResult,
    char_functional,
    det_step_count,
    expected_runtime,
    kleene_iterates,
)
from .mdp import (
    CrossCheckReport,
    MdpConfig,
    NodeCapExceeded,
    build_mdp,
    cross_check,
    expected_reward,
    mdp_to_dot,
)
from .invariants import (
    OmegaInvariantSpec,
    StateDomain,
    UpperInvariantSpec,
    Verdict,
    check_omega_invariant,
    check_upper_invariant,
    refine,
)
from .props import run_property_suite, run_soundness_sweep
from .corpus import ENTRIES

__all__ = [
    "__version__",
    "INF",
    "State",
    "XReal",
    "ParseError",
    "parse_program",
    "parse_rt",
    "program_to_text",
    "Annotated",
    "ErtConfig",
    "ErtResult",
    "expected_runtime",
    "det_step_count",
    "char_functional",
    "kleene_iterates",
    "build_mdp",
    "expected_reward",
    "cross_check",
    "CrossCheckReport",
    "MdpConfig",
    "NodeCapExceeded",
    "mdp_to_dot",
    "StateDomain",
    "UpperInvariantSpec",
    "OmegaInvariantSpec",
    "Verdict",
    "check_upper_invariant",
    "check_omega_invariant",
    "refine",
    "ENTRIES",
    "run_property_suite",
    "run_soundness_sweep",
]
