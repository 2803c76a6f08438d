"""Run configuration files: sectioned key=value parsing with strict schemas.

Unknown sections or keys are an error (listed explicitly, never silently
ignored) so archived configs stay unambiguous.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

#: Allowed keys per section.  A config may only use sections relevant to its
#: subcommand, but every key it does use must be listed here.
SCHEMA = {
    "mesh": {"R", "level"},
    "model": {"kappa", "sigma"},
    "points": {"preset", "delta", "heights", "count", "points"},
    "penalty_study": {"deltas"},
    "taylor": {"mu", "rho_list", "reconstruction", "field"},
    "phase": {"epsilon", "b", "coupling", "alpha", "tau", "t_end", "stat_tol"},
    "sweep": {"couplings"},
    "output": {"dir"},
    "run": {"seed"},
}

POINT_PRESETS = ("icosahedron", "equator", "polar_rings", "explicit")


@dataclass
class RunConfig:
    """Parsed configuration: raw section dictionaries plus common fields."""

    path: str | None
    sections: dict[str, dict[str, str]]
    R: float = 1.0
    level: int = 4
    kappa: float = 1.0
    sigma: float = 1.0
    out_dir: str = "."
    seed: int = 0

    def section(self, name: str) -> dict[str, str]:
        return self.sections.get(name, {})

    def get(self, section: str, key: str, default=None, cast=str):
        raw = self.section(section).get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc

    def floats(self, section: str, key: str, default=None) -> list[float] | None:
        raw = self.section(section).get(key)
        if raw is None:
            return default
        try:
            return [float(v) for v in raw.replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc

    def point_array(self) -> np.ndarray:
        """Parse explicit points: semicolon-separated 'x y z' triples."""
        raw = self.section("points").get("points")
        if raw is None:
            raise ConfigError("[points] preset = explicit requires a 'points' key")
        try:
            rows = [[float(v) for v in chunk.split()] for chunk in raw.split(";") if chunk.strip()]
        except ValueError as exc:
            raise ConfigError(f"[points] points: {exc}") from exc
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ConfigError("[points] points must be semicolon-separated 'x y z' triples")
        return arr

    def echo(self) -> str:
        """Canonical text form of the configuration (for the manifest)."""
        lines = []
        for sec in sorted(self.sections):
            lines.append(f"[{sec}]")
            for key in sorted(self.sections[sec]):
                lines.append(f"{key} = {self.sections[sec][key]}")
        return "\n".join(lines)


def _validate_keys(sections: dict[str, dict[str, str]]) -> None:
    unknown = []
    for sec, keys in sections.items():
        if sec not in SCHEMA:
            unknown.append(f"section [{sec}]")
            continue
        for key in keys:
            if key not in SCHEMA[sec]:
                unknown.append(f"[{sec}] {key}")
    if unknown:
        raise ConfigError("unknown configuration entries: " + ", ".join(sorted(unknown)))


def load_config(path: str | None) -> RunConfig:
    """Load a key=value config file (``None``: all defaults)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
    sections = {sec: dict(parser[sec]) for sec in parser.sections()}
    _validate_keys(sections)
    cfg = RunConfig(path=path, sections=sections)
    cfg.R = cfg.get("mesh", "R", 1.0, float)
    cfg.level = cfg.get("mesh", "level", 4, int)
    cfg.kappa = cfg.get("model", "kappa", 1.0, float)
    cfg.sigma = cfg.get("model", "sigma", 1.0, float)
    cfg.out_dir = cfg.get("output", "dir", ".", str)
    cfg.seed = cfg.get("run", "seed", 0, int)
    return cfg
