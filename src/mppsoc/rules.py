"""Configuration rule checking.

Three rules gate a configuration:

  R1  Delta multistage routers need a power-of-two PE count.
  R2  Single-row arrays may only use the linear or ring neighbourhood.
  R3  Multi-row arrays may only use mesh2d, torus2d or xnet.

validate() collects every applicable violation (no early exit) in the
fixed order R1, R2, R3 and never raises.
"""

from __future__ import annotations

from dataclasses import dataclass

from mppsoc.config import (
    DELTA_KINDS,
    ONE_D_NEIGHBORHOODS,
    TWO_D_NEIGHBORHOODS,
    MppSoCConfig,
)
from mppsoc.errors import int_text


@dataclass(frozen=True)
class RuleViolation:
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    is_valid: bool
    violations: tuple[RuleViolation, ...]

    def __str__(self) -> str:
        if self.is_valid:
            return "VALID"
        lines = ["INVALID"] + [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def validate(config: MppSoCConfig) -> ValidationReport:
    """Check a configuration against rules R1-R3."""
    violations: list[RuleViolation] = []
    n_pes = config.n_pes

    if config.mpnoc in DELTA_KINDS and not _is_power_of_two(n_pes):
        violations.append(RuleViolation(
            "R1",
            f"delta router '{config.mpnoc.value}' needs a power-of-two PE "
            f"count, got {config.rows}x{config.cols} = {int_text(n_pes)}"))

    if (config.rows == 1 and config.neighborhood is not None
            and config.neighborhood not in ONE_D_NEIGHBORHOODS):
        violations.append(RuleViolation(
            "R2",
            f"a single-row array supports only linear or ring "
            f"neighbourhoods, got '{config.neighborhood.value}'"))

    if (config.rows > 1 and config.neighborhood is not None
            and config.neighborhood not in TWO_D_NEIGHBORHOODS):
        violations.append(RuleViolation(
            "R3",
            f"a multi-row array supports only mesh2d, torus2d or xnet "
            f"neighbourhoods, got '{config.neighborhood.value}'"))

    return ValidationReport(is_valid=not violations, violations=tuple(violations))
