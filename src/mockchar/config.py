"""Run configuration: output format, precision and classification bounds.

The bounds are a `ClassifyParams`, which holds their names, defaults and
validation; the config-file keys are its field names.  A key=value config
file (path given by --config or the MOCKCHAR_CONFIG environment variable)
overrides the defaults, and command-line flags override the file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .classify import DEFAULT_PARAMS, ClassifyParams

CONFIG_ENV_VAR = "MOCKCHAR_CONFIG"

_FORMATS = ("text", "csv", "json")
_BOUND_KEYS = frozenset(f.name for f in fields(ClassifyParams))


@dataclass(frozen=True)
class RunConfig:
    format: str = "text"
    digits: int = 12
    params: ClassifyParams = DEFAULT_PARAMS

    def __post_init__(self):
        if self.digits < 1:
            raise ValueError("digits must be positive")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")


def parse_config_text(text: str) -> RunConfig:
    """key=value lines; '#' comments and blanks ignored; unknown keys rejected."""
    settings: dict[str, object] = {}
    bounds: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _BOUND_KEYS:
            bounds[key] = int(value)
        elif key == "digits":
            settings[key] = int(value)
        elif key == "format":
            settings[key] = value
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return RunConfig(params=ClassifyParams(**bounds), **settings)


def load_config(path: str | os.PathLike | None = None) -> RunConfig:
    """Config from an explicit path, else from $MOCKCHAR_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return RunConfig()
    return parse_config_text(Path(path).read_text(encoding="utf-8"))
