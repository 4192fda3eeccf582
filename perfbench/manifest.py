"""``BENCHMARK.json`` — the one declaration of workloads, metric names,
units and bounds. Nothing here imports ``repro``, so ``compare`` works
without ``src/`` on the path."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 171001792


def manifest() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
