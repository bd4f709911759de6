"""Experiment configuration: JSON files with an include mechanism.

A config is a flat JSON object.  An optional "include" key (path or list of
paths, relative to the including file) supplies shared defaults - kernel and
potential presets mostly - which the including file overrides key by key.
A file that includes itself, directly or through others, is ConfigInvalid.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .errors import ConfigInvalid, LazinessOutOfRange
from .lattice import WalkKernel, lazy1d, simple1d, simple2d, validate_kernel
from .potential import (
    PotentialSpec,
    build_geometric_sparse,
    dense_level,
    make_potential,
)

#: top-level keys every experiment accepts: "seed" because --seed sets it
#: for any experiment, "potential" because includes share kernel and
#: potential presets
COMMON_KEYS = ("experiment", "kernel", "potential", "seed")

#: experiment -> the other top-level keys it reads
KEYS = {
    "validate": (),
    "green": ("lambdas", "xs", "pts_per_axis"),
    "bs": ("lambda_lo", "lambda_hi", "scan_points", "box_radius", "alpha"),
    "spectrum": ("L_sequence",),
    "essential": (),
    "decay": ("lambda", "alpha", "box_radius", "L", "fit_window"),
    "gibbs": ("n_range", "k", "indicator_site", "L"),
    "doob": ("steps", "L"),
    "fk": ("n", "samples"),
}
EXPERIMENTS = tuple(KEYS)

#: section -> kernel preset ("offsets" for explicit rows) or potential type
#: -> the keys a section of that kind may hold
SECTION_KEYS = {
    "kernel": {
        "simple1d": ("preset",),
        "simple2d": ("preset",),
        "lazy1d": ("preset", "q"),
        "offsets": ("offsets", "dimension"),
    },
    "potential": {
        "geometric": ("type", "v", "base", "box_radius", "anchor"),
        "dense": ("type", "v", "box_radius"),
        "explicit": ("type", "sites", "tail", "essential_values", "box_radius"),
        "none": ("type",),
    },
}

#: experiments whose outputs depend on pseudo-randomness
SEEDED = ("doob", "fk")


def load_config(path) -> dict:
    return _load(Path(path), ())


def _load(path: Path, chain: tuple[Path, ...]) -> dict:
    """Read one config and its includes; chain holds the files that include it."""
    key = path.resolve()
    if key in chain:
        cycle = chain[chain.index(key):] + (key,)
        raise ConfigInvalid("config include cycle: " + " -> ".join(p.name for p in cycle))
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as err:
        raise ConfigInvalid(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigInvalid(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"config {path} must be a JSON object")
    includes = raw.pop("include", [])
    if isinstance(includes, str):
        includes = [includes]
    merged: dict = {}
    for inc in includes:
        merged.update(_load(path.parent / inc, chain + (key,)))
    merged.update(raw)
    return merged


def _section(cfg: dict, name: str) -> dict | None:
    spec = cfg.get(name)
    if spec is not None and not isinstance(spec, dict):
        raise ConfigInvalid(f"'{name}' section must be a JSON object, got {spec!r}")
    return spec


def _check_section(spec: dict, name: str, kind: str) -> None:
    """ConfigInvalid naming every key that a `kind` section does not read."""
    allowed = SECTION_KEYS[name][kind]
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ConfigInvalid(
            f"unknown key(s) {unknown} in the '{name}' section for {kind!r}; "
            f"allowed: {', '.join(allowed)}"
        )


def kernel_from_config(cfg: dict) -> WalkKernel:
    spec = _section(cfg, "kernel")
    if spec is None:
        raise ConfigInvalid("config needs a 'kernel' section")
    if "preset" in spec:
        name = spec["preset"]
        if name not in ("simple1d", "lazy1d", "simple2d"):
            raise ConfigInvalid(f"unknown kernel preset {name!r}")
        _check_section(spec, "kernel", name)
        if name == "simple1d":
            return simple1d()
        if name == "lazy1d":
            if "q" not in spec:
                raise ConfigInvalid("lazy1d preset needs 'q'")
            try:
                return lazy1d(number(spec["q"], "q"))
            except LazinessOutOfRange as err:
                raise ConfigInvalid(f"lazy1d preset: {err}") from err
        return simple2d()
    if "offsets" in spec:
        _check_section(spec, "kernel", "offsets")
        dimension = spec.get("dimension")
        if dimension is not None:
            dimension = number(dimension, "dimension", int, least=1)
        try:
            entries = dict(_site_row(row, "offsets") for row in spec["offsets"])
            return validate_kernel(entries, dimension=dimension)
        except ConfigInvalid:
            raise
        except Exception as err:
            raise ConfigInvalid(f"kernel offsets invalid: {err}") from err
    raise ConfigInvalid("kernel section needs 'preset' or 'offsets'")


def potential_from_config(cfg: dict, dimension: int) -> PotentialSpec | None:
    spec = _section(cfg, "potential")
    if spec is None:
        return None
    if "type" not in spec:
        raise ConfigInvalid("potential section needs a 'type' ('none' for no potential)")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in SECTION_KEYS["potential"]:
        raise ConfigInvalid(f"unknown potential type {kind!r}")
    _check_section(spec, "potential", kind)
    if kind == "none":
        return None
    box_radius = spec.get("box_radius")
    if box_radius is not None:
        box_radius = number(box_radius, "box_radius", int, least=1)
    try:
        if kind == "geometric":
            anchor = spec.get("anchor")
            if anchor is not None:
                anchor = _site_row(anchor, "anchor")
            return build_geometric_sparse(
                dimension,
                v=number(spec.get("v", 1.0), "v"),
                base=number(spec.get("base", 3), "base", int, least=2),
                box_radius=box_radius,
                anchor=anchor,
            )
        if kind == "dense":
            return dense_level(dimension, number(spec.get("v", 1.0), "v"), box_radius or 128)
        sites = dict(_site_row(row, "sites") for row in spec["sites"])
        return make_potential(
            dimension,
            sites,
            tail=spec.get("tail", "decaying"),
            essential_values=numbers(spec.get("essential_values", (0.0,)), "essential_values"),
            box_radius=box_radius,
        )
    except ConfigInvalid:
        raise
    except Exception as err:
        raise ConfigInvalid(f"potential section invalid: {err}") from err


def require(cfg: dict, key: str, kind: str):
    if key not in cfg:
        raise ConfigInvalid(f"experiment '{kind}' needs config key '{key}'")
    return cfg[key]


def number(value, key: str, cast=float, least=None):
    """The value of config key `key` as a `cast` (float or int) number.

    Anything but a finite JSON number (Python's json reads NaN and Infinity),
    a fractional value for an int key, or a value below `least` (when
    given) raises ConfigInvalid.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"'{key}' must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int no float holds
        raise ConfigInvalid(f"'{key}' must be finite, got {value!r}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ConfigInvalid(f"'{key}' must be an integer, got {value!r}")
    value = cast(value)
    if least is not None and value < least:
        raise ConfigInvalid(f"'{key}' must be at least {least}, got {value!r}")
    return value


def numbers(value, key: str, cast=float, length: int | None = None, least=None) -> list:
    """A list of `length` (any if None) numbers, each read by `number`."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = "a list of" if length is None else f"a list of {length}"
        raise ConfigInvalid(f"'{key}' must be {size} numbers, got {value!r}")
    return [number(v, key, cast, least) for v in value]


def _site_row(row, key: str) -> tuple[tuple[int, ...], float]:
    """(site, value) of a config row [x_1, ..., x_d, value]: integer coordinates, then a number."""
    numbers(row, key)
    return tuple(numbers(row[:-1], key, int)), number(row[-1], key)


def check_experiment(cfg: dict) -> str:
    kind = cfg.get("experiment")
    if kind not in EXPERIMENTS:
        raise ConfigInvalid(
            f"experiment must be one of {EXPERIMENTS}, got {kind!r}"
        )
    unknown = sorted(set(cfg) - set(COMMON_KEYS) - set(KEYS[kind]))
    if unknown:
        allowed = ", ".join(sorted(KEYS[kind] + COMMON_KEYS))
        raise ConfigInvalid(f"unknown key(s) {unknown} for '{kind}'; allowed: {allowed}")
    if kind in SEEDED and "seed" not in cfg:
        raise ConfigInvalid(f"stochastic experiment '{kind}' needs a 'seed'")
    return kind
