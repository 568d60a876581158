"""Run configuration shared by the command-line tools.

The config file format is flat "key = value" lines, '#' starting a comment;
each value is read as an int, the type of every RunConfig key.  Every
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
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    def comment_lines(self) -> list[str]:
        """Config echo for CSV output, one '# key = value' line each."""
        return [f"# {k} = {v}" for k, v in sorted(self.to_dict().items())]


def load_config(path: str | None) -> RunConfig:
    """Read a key = value file into a RunConfig.  An unknown key, a value
    that is not an int (no quotes, no true/false) or out of its key's range
    is an error naming the file, line and key."""
    if path is None:
        return RunConfig()
    keys = {f.name for f in fields(RunConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = int(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be of type int, "
                                 f"got {text}") from None
            try:
                RunConfig(**{key: values[key]})  # the key's own range check
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}, got {text}") from None
    return RunConfig(**values)


def output_path(filename: str | None) -> str | None:
    """Resolve an output file against the directory override, if any."""
    if filename is None:
        return None
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    if outdir and not os.path.isabs(filename):
        return os.path.join(outdir, filename)
    return filename
