"""Shared pieces of the benchmark: paths, run hygiene, load plan, statistics.

Imported by the orchestrator (``run.py``) and by the processes it launches
(``daemon.py``, ``casestudy.py``, ``reference.py``).
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fixed hash seed for every launched process (set-iteration order inside the
#: program must not vary between runs of the same seed).
PYTHONHASHSEED = "0"

#: The twelve Table-1 applications, in Table-1 order.
APPS = [
    "HAAR.js",
    "Tear-able Cloth",
    "CamanJS",
    "fluidSim",
    "Harmony",
    "Ace",
    "MyScript",
    "Realtime Raytracing",
    "Normal Mapping",
    "sigma.js",
    "processing.js",
    "D3.js",
]

LIGHTWEIGHT = ("lightweight",)
ALL_MODES = ("lightweight", "gecko", "loop_profile", "dependence")

#: Mode sets of the warm draw: every app is asked for each once per cycle.
MODESETS: List[Tuple[str, ...]] = [
    LIGHTWEIGHT,
    ("gecko",),
    ("loop_profile",),
    ("dependence",),
    ALL_MODES,
]


def modeset_label(modes: Sequence[str]) -> str:
    return "all" if tuple(modes) == ALL_MODES else "+".join(modes)


def clean_env() -> Dict[str, str]:
    """The environment of every launched process: no ``REPRO_*`` knob set,
    fixed hash seed, and the program's sources first on the import path."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    env["PYTHONPATH"] = str(SRC)
    return env


def require_sources() -> None:
    """Exit with an error when the program's sources are not beside us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def host_info() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "pythonhashseed": PYTHONHASHSEED,
        "repro_env_cleared": sorted(key for key in os.environ if key.startswith("REPRO_")),
    }


def calibrate(rounds: int = 7, loop: int = 200_000) -> float:
    """Median ms of a fixed pure-Python loop: a host-speed diagnostic."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        total = 0
        for value in range(loop):
            total += value * value % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


# ---------------------------------------------------------------- load plan
def plan_cycles(seed: int, count: int = 10) -> List[List[dict]]:
    """The fixed request sequence of the client connection, as whole cycles.

    A cycle is a seeded shuffle of (app x mode set), so every cycle has the
    same composition and the seed only changes the order.
    """
    rng = random.Random(f"plan/{seed}")
    cycles: List[List[dict]] = []
    for _ in range(count):
        cycle = [{"workload": app, "modes": modes, "cold": False}
                 for app in APPS for modes in MODESETS]
        rng.shuffle(cycle)
        cycles.append(cycle)
    return cycles


# --------------------------------------------------------------- statistics
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """(value, percentile) of the highest rank with >= ``beyond`` samples above it.

    With too few samples no such rank exists; the maximum is returned with
    percentile 100 and the caller reports the sample count.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n
