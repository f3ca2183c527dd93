"""Solver configuration presets.

clingo ships six configuration presets (frumpy, jumpy, tweety, trendy,
crafty, handy); the paper benchmarks *tweety* (typical ASP programs),
*trendy* (industrial problems) and *handy* (large problems) and picks tweety
as Spack's default (Figure 7d).

Our CDCL solver exposes the analogous knobs — decision heuristic, default
phase, restart policy, and whether the optimizer tries the "all objective
literals false" fast path first.  The presets below give distinct performance
profiles so the Figure 7d experiment (CDF of solve times per preset) can be
reproduced in shape, even though the underlying engine differs from clasp.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Tuple


def require_solver_config(
    config, owner: str, hint: str = "", keyword: str = "config="
) -> None:
    """Fail at construction unless ``config`` is a :class:`SolverConfig` (or
    None, for the default), instead of with an AttributeError deep inside
    the first solve."""
    if config is not None and not isinstance(config, SolverConfig):
        raise TypeError(
            f"{owner}: {keyword} takes a SolverConfig, got {type(config).__name__}{hint}"
        )


@dataclass(frozen=True)
class SolverConfig:
    """A named bundle of search-strategy parameters."""

    name: str = "tweety"
    heuristic: str = "vsids"  # "vsids" or "fixed"
    default_phase: bool = False
    restart_strategy: str = "luby"  # "luby", "geometric", or "none"
    restart_base: int = 100
    var_decay: float = 0.95
    zero_first: bool = True  # optimizer fast path (usc-like behaviour)
    enforce_stability: bool = True
    description: str = ""

    @classmethod
    def presets(cls) -> Dict[str, "SolverConfig"]:
        return dict(_PRESETS)

    @classmethod
    def preset(cls, name: str) -> "SolverConfig":
        try:
            return _PRESETS[name]
        except KeyError:
            known = ", ".join(sorted(_PRESETS))
            raise KeyError(f"unknown solver preset {name!r} (known: {known})") from None

    def with_overrides(self, **kwargs) -> "SolverConfig":
        return replace(self, **kwargs)


_PRESETS: Dict[str, SolverConfig] = {
    "tweety": SolverConfig(
        name="tweety",
        heuristic="vsids",
        default_phase=False,
        restart_strategy="luby",
        restart_base=100,
        var_decay=0.95,
        zero_first=True,
        description="Geared towards typical ASP programs (the paper's default).",
    ),
    "trendy": SolverConfig(
        name="trendy",
        heuristic="vsids",
        default_phase=False,
        restart_strategy="geometric",
        restart_base=256,
        var_decay=0.99,
        zero_first=False,
        description="Geared towards industrial problems (slower restarts, no fast path).",
    ),
    "handy": SolverConfig(
        name="handy",
        heuristic="vsids",
        default_phase=True,
        restart_strategy="luby",
        restart_base=500,
        var_decay=0.99,
        zero_first=False,
        description="Geared towards large problems (conservative restarts).",
    ),
    "frumpy": SolverConfig(
        name="frumpy",
        heuristic="fixed",
        default_phase=False,
        restart_strategy="geometric",
        restart_base=100,
        var_decay=0.95,
        zero_first=True,
        description="Conservative defaults reminiscent of older solvers.",
    ),
    "jumpy": SolverConfig(
        name="jumpy",
        heuristic="vsids",
        default_phase=False,
        restart_strategy="luby",
        restart_base=50,
        var_decay=0.90,
        zero_first=True,
        description="Aggressive restarts.",
    ),
    "crafty": SolverConfig(
        name="crafty",
        heuristic="vsids",
        default_phase=True,
        restart_strategy="geometric",
        restart_base=128,
        var_decay=0.97,
        zero_first=True,
        description="Geared towards crafted (combinatorial) problems.",
    ),
}


#: legal values for the validated :class:`SolverPreset` knobs
HEURISTICS = ("vsids", "fixed")
RESTART_STRATEGIES = ("luby", "geometric", "none")


@dataclass(frozen=True)
class SolverPreset:
    """Validated CDCL search knobs (the solver-facing slice of a config).

    :class:`SolverConfig` bundles *everything* about a named configuration
    (including optimizer behaviour); a ``SolverPreset`` is just the
    :class:`~repro.asp.solver.CDCLSolver` constructor knobs, validated at
    construction so a bad request option fails fast with a clear message
    instead of misbehaving deep inside search.  It is the unit the solver
    portfolio races, the session config accepts, and the service exposes as
    request options (``from_value`` accepts a preset name, a dict of knobs,
    or another preset).
    """

    heuristic: str = "vsids"
    default_phase: bool = False
    restart_strategy: str = "luby"
    restart_base: int = 100
    var_decay: float = 0.95
    name: str = ""

    def __post_init__(self):
        if self.heuristic not in HEURISTICS:
            raise ValueError(
                f"unknown heuristic {self.heuristic!r} (expected one of {HEURISTICS})"
            )
        if self.restart_strategy not in RESTART_STRATEGIES:
            raise ValueError(
                f"unknown restart strategy {self.restart_strategy!r} "
                f"(expected one of {RESTART_STRATEGIES})"
            )
        if not isinstance(self.restart_base, int) or self.restart_base < 1:
            raise ValueError(
                f"restart_base must be a positive integer, got {self.restart_base!r}"
            )
        if not isinstance(self.var_decay, (int, float)) or not (
            0.0 < float(self.var_decay) <= 1.0
        ):
            raise ValueError(
                f"var_decay must be in (0, 1], got {self.var_decay!r}"
            )
        if not isinstance(self.default_phase, bool):
            raise ValueError(
                f"default_phase must be a bool, got {self.default_phase!r}"
            )

    @classmethod
    def from_config(cls, config: SolverConfig) -> "SolverPreset":
        """The solver knobs of a named :class:`SolverConfig`."""
        return cls(
            heuristic=config.heuristic,
            default_phase=config.default_phase,
            restart_strategy=config.restart_strategy,
            restart_base=config.restart_base,
            var_decay=config.var_decay,
            name=config.name,
        )

    @classmethod
    def from_value(cls, value) -> "SolverPreset":
        """Coerce a preset name / knob dict / preset into a ``SolverPreset``.

        Raises ``ValueError`` on unknown names, unknown keys, and invalid
        knob values — the service maps that to a 400.
        """
        if isinstance(value, SolverPreset):
            return value
        if isinstance(value, SolverConfig):
            return cls.from_config(value)
        if isinstance(value, str):
            for preset in PORTFOLIO_PRESETS:
                if preset.name == value:
                    return preset
            try:
                return cls.from_config(SolverConfig.preset(value))
            except KeyError as error:
                lineup = ", ".join(p.name for p in PORTFOLIO_PRESETS)
                raise ValueError(
                    f"{error.args[0]} (portfolio presets: {lineup})"
                ) from None
        if isinstance(value, dict):
            known = {f.name for f in fields(cls)}
            unknown = set(value) - known
            if unknown:
                raise ValueError(
                    f"unknown solver preset option(s): {sorted(unknown)} "
                    f"(known: {sorted(known)})"
                )
            return cls(**value)
        raise ValueError(
            f"cannot build a solver preset from {type(value).__name__!r}"
        )

    def solver_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for :class:`~repro.asp.solver.CDCLSolver`."""
        return {
            "heuristic": self.heuristic,
            "default_phase": self.default_phase,
            "restart_strategy": self.restart_strategy,
            "restart_base": self.restart_base,
            "var_decay": self.var_decay,
        }

    def key(self) -> tuple:
        """Deterministic identity tuple (cache keys, dedup, logging)."""
        return (
            self.heuristic,
            self.default_phase,
            self.restart_strategy,
            self.restart_base,
            round(float(self.var_decay), 6),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "heuristic": self.heuristic,
            "default_phase": self.default_phase,
            "restart_strategy": self.restart_strategy,
            "restart_base": self.restart_base,
            "var_decay": self.var_decay,
        }


#: the default racing lineup: vsids/fixed decision heuristics crossed with
#: luby/geometric restarts — four genuinely different search trajectories
#: over the same ground program (see repro.asp.portfolio)
PORTFOLIO_PRESETS: Tuple[SolverPreset, ...] = (
    SolverPreset(heuristic="vsids", restart_strategy="luby", name="vsids-luby"),
    SolverPreset(
        heuristic="vsids",
        restart_strategy="geometric",
        restart_base=256,
        var_decay=0.99,
        name="vsids-geometric",
    ),
    SolverPreset(heuristic="fixed", restart_strategy="luby", name="fixed-luby"),
    SolverPreset(
        heuristic="fixed",
        restart_strategy="geometric",
        restart_base=128,
        name="fixed-geometric",
    ),
)
