"""Test-only references: the walk coefficients from their defining
recurrence, and the deterministic sweep of the step counter against the
transformer."""

import random
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from ertkit.generator import PROFILES, random_program, random_state
from ertkit.props import SweepFailure, SweepReport
from ertkit.syntax import program_to_text
from ertkit.transformer import det_step_count, expected_runtime


@lru_cache(maxsize=None)
def _rw_row(n: int) -> Tuple[Fraction, ...]:
    # row n holds a(n, 0..n) by the defining recurrence
    if n == 0:
        return (Fraction(1),)
    prev = _rw_row(n - 1)

    def at(k: int) -> Fraction:
        return prev[k] if k < len(prev) else Fraction(0)

    row = [Fraction(2) + (at(0) + at(1)) / 2]
    for k in range(1, n + 1):
        row.append((at(k - 1) + at(k + 1)) / 2)
    return tuple(row)


def rw_coefficients(n: int, k: int) -> Fraction:
    """Walk expansion coefficient a(n, k) from the defining recurrence."""
    if k > n or n < 0 or k < 0:
        return Fraction(0)
    return _rw_row(n)[k]


def run_det_sweep(seed: int, count: int = 200) -> SweepReport:
    """Exact agreement of the step counter and the transformer on
    terminating deterministic programs."""
    rng = random.Random(seed)
    report = SweepReport()
    for _ in range(count):
        program = random_program(rng, PROFILES["deterministic"])
        sigma = random_state(rng)
        counted, _ = det_step_count(program, sigma)
        res = expected_runtime(program, None, sigma)
        if res.is_exact and counted == res.value:
            report.passed += 1
            report.exact += 1
        else:
            report.failures.append(
                SweepFailure(
                    program_to_text(program),
                    "0",
                    repr(sigma),
                    f"step count {counted}, transformer {res.value} ({res.kind})",
                )
            )
    return report
