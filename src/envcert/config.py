"""YAML/JSON system descriptions.

A config names the maps of one periodic system, optional envelope
candidates, and optional grid overrides:

    models:
      - family: ricker
        params: {r: 1.8}
    envelopes:
      - kind: mobius
        alpha: 0.5
    grid:
      seed_cells: 4096

JSON files parse as well (YAML is a superset).  Unknown keys are
rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

import yaml

from .envelopes import (
    Envelope,
    make_custom_envelope,
    make_mobius,
    make_piecewise_bh,
    make_reciprocal,
)
from .models import PopulationModel, make_model
from .numerics import GridConfig
from .periodic import PeriodicSystem, make_system

__all__ = ["SystemConfig", "parse_system_config", "config_from_dict", "config_to_system"]

_MODEL_KEYS = {"family", "params", "x_max", "pieces"}
_ENVELOPE_KEYS = {"kind", "alpha", "c", "expr", "x_h"}
_GRID_KEYS = {f.name for f in fields(GridConfig)}


@dataclass(frozen=True)
class SystemConfig:
    raw: dict
    models: tuple[PopulationModel, ...]
    envelopes: tuple[Envelope, ...]
    grid: GridConfig


def _reject_unknown(entry: Mapping, allowed: set[str], where: str) -> None:
    extra = set(entry) - allowed
    if extra:
        raise ValueError(
            f"{where}: unknown key(s) {sorted(extra)}; allowed: {sorted(allowed)}"
        )


def _build_model(entry: Any, where: str) -> PopulationModel:
    if not isinstance(entry, Mapping):
        raise ValueError(f"{where}: expected a mapping, got {type(entry).__name__}")
    _reject_unknown(entry, _MODEL_KEYS, where)
    family = entry.get("family")
    if not isinstance(family, str):
        raise ValueError(f"{where}: 'family' is required and must be a string")
    try:
        return make_model(
            family,
            params=entry.get("params"),
            x_max=entry.get("x_max"),
            pieces=entry.get("pieces"),
        )
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _build_envelope(entry: Any, where: str) -> Envelope:
    if not isinstance(entry, Mapping):
        raise ValueError(f"{where}: expected a mapping, got {type(entry).__name__}")
    _reject_unknown(entry, _ENVELOPE_KEYS, where)
    kind = entry.get("kind")
    try:
        if kind == "mobius":
            if "alpha" not in entry:
                raise ValueError("mobius envelope needs 'alpha'")
            return make_mobius(entry["alpha"])
        if kind == "reciprocal":
            return make_reciprocal()
        if kind == "piecewise-bh":
            if "c" not in entry:
                raise ValueError("piecewise-bh envelope needs 'c'")
            return make_piecewise_bh(entry["c"])
        if kind == "custom":
            if "expr" not in entry:
                raise ValueError("custom envelope needs 'expr'")
            return make_custom_envelope(entry["expr"], entry.get("x_h"))
        raise ValueError(
            f"unknown envelope kind {kind!r}; choose mobius, reciprocal, "
            "piecewise-bh, or custom"
        )
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def config_from_dict(data: Any) -> SystemConfig:
    if not isinstance(data, Mapping):
        raise ValueError("config root must be a mapping")
    _reject_unknown(data, {"models", "envelopes", "grid"}, "config")
    model_entries = data.get("models")
    if not isinstance(model_entries, (list, tuple)) or not model_entries:
        raise ValueError("config needs a nonempty 'models' list")
    models = tuple(
        _build_model(e, f"models[{i}]") for i, e in enumerate(model_entries)
    )

    env_entries = data.get("envelopes") or []
    if not isinstance(env_entries, (list, tuple)):
        raise ValueError("'envelopes' must be a list")
    envelopes = tuple(
        _build_envelope(e, f"envelopes[{i}]") for i, e in enumerate(env_entries)
    )

    grid_entry = data.get("grid") or {}
    if not isinstance(grid_entry, Mapping):
        raise ValueError("'grid' must be a mapping")
    _reject_unknown(grid_entry, _GRID_KEYS, "grid")
    try:
        grid = GridConfig(**grid_entry)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"grid: {exc}") from exc

    return SystemConfig(
        raw=dict(data), models=models, envelopes=envelopes, grid=grid
    )


def _from_yaml(text: str, source: str) -> SystemConfig:
    """Parse and validate config text (YAML or JSON); source names it in
    a parse error."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"config parse error in {source}: {exc}") from exc
    return config_from_dict(data)


def parse_system_config(path: str | Path) -> SystemConfig:
    """Load and validate a config file (YAML or JSON)."""
    return _from_yaml(Path(path).read_text(), str(path))


def config_to_system(cfg: SystemConfig) -> PeriodicSystem:
    return make_system(cfg.models)
