"""Structured check reports and the default tolerance registry."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["CheckReport", "DEFAULT_TOLERANCES", "resolve_tolerances"]

# Algebraic identities are checked at 1e-10, invariance conditions that sit
# one matrix-exponential deep at 1e-8; construction-level consistency at the
# tighter values below.
DEFAULT_TOLERANCES = {
    "jacobi": 1e-12,
    "antisymmetry": 1e-12,
    "commutator_consistency": 1e-10,
    "projection": 1e-12,
    "subalgebra": 1e-10,
    "reductivity": 1e-10,
    "generator_stability": 1e-9,
    "invariance": 1e-8,
    "metric_invariance": 1e-8,
    "naturally_reductive": 1e-10,
    "is_metric": 1e-10,
    "curvature_h_leak": 1e-10,
    "basis_residual": 1e-8,
    "group_drift": 1e-8,
}


def resolve_tolerances(overrides=None) -> dict:
    """The registry with ``overrides`` (a partial or resolved dict) applied."""
    tols = dict(DEFAULT_TOLERANCES)
    if overrides:
        unknown = set(overrides) - set(tols)
        if unknown:
            raise KeyError(f"unknown tolerance names: {sorted(unknown)}")
        tols.update(overrides)
    return tols


@dataclass
class CheckReport:
    """Outcome of one verification: residual against a tolerance plus witnesses.

    ``mandatory`` marks validity conditions (their failure invalidates the
    space); classification checks such as natural reductivity are recorded
    but do not gate. ``tainted`` propagates from unchecked bilinear maps.
    ``key`` names the registry entry the residual is judged against; it is
    the check name unless the constructor that measured it says otherwise.
    """

    check: str
    max_residual: float
    tolerance: float
    passed: bool
    witnesses: list = field(default_factory=list)
    mandatory: bool = True
    tainted: bool = False
    note: str = ""
    key: str = ""

    @classmethod
    def from_residual(cls, check: str, residual: float, tolerance: float,
                      witnesses=None, mandatory: bool = True, note: str = "",
                      tainted: bool = False, key: str = "") -> "CheckReport":
        residual = float(residual)
        return cls(
            check=check,
            max_residual=residual,
            tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
            witnesses=list(witnesses or []),
            mandatory=mandatory,
            tainted=tainted,
            note=note,
            key=key or check,
        )

    def judged(self, tolerances: dict) -> "CheckReport":
        """A copy of this report with its stored residual judged against the
        ``key`` entry of the resolved ``tolerances``."""
        tolerance = tolerances[self.key]
        return replace(self, tolerance=float(tolerance),
                       passed=bool(self.max_residual <= tolerance),
                       witnesses=list(self.witnesses))

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "mandatory": self.mandatory,
            "tainted": self.tainted,
            "note": self.note,
        }
