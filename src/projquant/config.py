"""Run configuration shared by the command-line tools.

The config file format is flat TOML-style "key = value" lines (ints,
floats, booleans and bare/quoted strings; '#' starts a comment).  Every
output artifact embeds the configuration it was produced with, so runs are
reproducible byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, asdict, fields

#: environment variable that may override the output directory (only that)
OUTPUT_DIR_ENV = "PROJQUANT_OUTDIR"


@dataclass
class RunConfig:
    zero_level_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.zero_level_tol <= 0:
            raise ValueError("zero_level_tol must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    def comment_lines(self) -> list[str]:
        """Config echo for CSV output, one '# key = value' line each."""
        return [f"# {k} = {v}" for k, v in sorted(self.to_dict().items())]


def _parse_value(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def load_config(path: str | None) -> RunConfig:
    """Read a key = value file into a RunConfig; unknown keys are an error."""
    if path is None:
        return RunConfig()
    known = {f.name for f in fields(RunConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(val)
    return RunConfig(**values)


def output_path(filename: str | None) -> str | None:
    """Resolve an output file against the directory override, if any."""
    if filename is None:
        return None
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    if outdir and not os.path.isabs(filename):
        return os.path.join(outdir, filename)
    return filename
