"""What the workloads run on: the paper's circuits, the fault sample drawn
from the workload seed, and the disk caches a prepare step fills.

The paper evaluates the six largest ISCAS-89 circuits and the d695 SOC;
the benchmark samples 200 detected faults per circuit or core (the paper
injects 500) so that one cold build of everything fits in about ten
seconds on two cores.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (ignored by git).
WORK = ROOT / ".bench_build" / "perfbench"

FAULTS = 200
#: ``--seed 0`` reproduces the repo's default fault sample.
BASE_FAULT_SEED = 20030301
DEFAULT_SEED = 0
SCHEMES = ("random", "interval", "two-step")
#: Disk-cache environment variable; the benchmark sets it itself.
DISK_ENV = "REPRO_DISK_CACHE"
#: Longest a prepare step may take before it is killed.
PREPARE_TIMEOUT_S = 150


def experiment_config(seed: int):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        num_faults=FAULTS, num_faults_large=FAULTS,
        fault_seed=BASE_FAULT_SEED + seed,
    )


def circuits() -> List[str]:
    from repro.circuit.library import SIX_LARGEST

    return list(SIX_LARGEST)


def table_groups(cells: int) -> int:
    from repro.experiments.table2 import groups_for_length

    return groups_for_length(cells)


def source_digest() -> str:
    """Identity of the program under test: a hash of every file under
    ``src/`` (the benchmark's checkout is not a git repository)."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def cache_dir(workload: str, seed: int) -> Path:
    return WORK / f"cache-{source_digest()}" / workload / f"seed-{seed}"


def ensure_prepared(workload: str, seed: int) -> Tuple[Path, bool]:
    """Point this process's disk tier at the cache for ``(workload,
    seed)``, filling it first if this source tree has not yet.

    The workload module's ``prepare(seed)`` runs in a fresh interpreter
    with the disk cache switched on, so nothing it allocates counts
    against the measuring process; the child is waited for (and killed
    on timeout or interruption) before this returns.  Caches of other
    source trees are removed first.  Returns the directory and whether
    it was built.
    """
    target = cache_dir(workload, seed)
    os.environ[DISK_ENV] = str(target)
    marker = target / "READY"
    if marker.exists():
        return target, False
    for old in WORK.glob("cache-*"):
        if old != target.parent.parent:
            shutil.rmtree(old, ignore_errors=True)
    target.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    proc = subprocess.Popen(
        [sys.executable, "-c", f"import {workload}; {workload}.prepare({int(seed)})"],
        env=env,
    )
    try:
        code = proc.wait(timeout=PREPARE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"prepare of {workload} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0:
        raise RuntimeError(f"prepare of {workload} exited {code}")
    marker.write_text("ok\n")
    return target, True


def cache_layer_stats() -> Dict[str, float]:
    """Memo-store hit and miss totals over every kind."""
    from repro.experiments import cache

    stats = cache.stats()
    return {
        "hits": float(sum(stats.hits.values())),
        "misses": float(sum(stats.misses.values())),
    }


def clear_memory_caches() -> None:
    """Empty the process-wide memo store and the circuit registry memo."""
    from repro.circuit.library import clear_cache
    from repro.experiments import cache

    cache.clear()
    clear_cache()
