"""Where the benchmark keeps its files, the machine fingerprint, and
the append-only result history."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: the checkout the benchmark runs in (``perfbench/``'s parent)
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: build outputs, kernel cache, traces and history — all inside the
#: checkout and ignored by git
WORK = ROOT / ".bench_build" / "perfbench"
KERNEL_CACHE = ROOT / ".bench_build" / "kernels"
HISTORY = WORK / "history.jsonl"


def configure() -> Dict[str, str]:
    """Point the program at the checkout's sources and kernel cache;
    returns the environment for child processes."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no program sources under {SRC}: run from a full checkout")
    os.environ["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    os.environ["REPRO_KERNELS"] = "auto"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def kernel_cache_files() -> List[str]:
    if not KERNEL_CACHE.is_dir():
        return []
    return sorted(p.name for p in KERNEL_CACHE.glob("*.so"))


def resolved_tier() -> str:
    """Kernel tier ``kernels=auto`` resolves to in this process."""
    from repro.pwl.kernels import active_kernel_backend, using_kernels

    with using_kernels("auto"):
        name = type(active_kernel_backend()).__name__
    return {"CcKernelBackend": "c", "NumbaKernelBackend": "numba",
            "NumpyKernelBackend": "numpy"}.get(name, name)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_hash() -> str:
    """Content hash of the program sources — the commit key, since the
    checkout the benchmark runs in carries no version-control data."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(tier: str, cache_warm: bool) -> Dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_tier": tier,
        "kernel_cache_warm": cache_warm,
    }


def _machine_key(fp: Dict) -> str:
    keys = ("nproc", "cpu", "python", "numpy", "scipy")
    return hashlib.sha256(json.dumps([fp[k] for k in keys]).encode()
                          ).hexdigest()[:12]


def append_history(entry: Dict, path: Optional[Path] = None) -> Dict:
    """Append one result; never rewrites earlier lines.

    The entry is keyed by source hash and machine fingerprint.  When the
    last entry of the same workload on the same machine resolved a
    different kernel tier, the new one is flagged ``comparable: false``.
    """
    path = path or HISTORY
    fp = entry["machine"]
    entry = dict(entry, machine_key=_machine_key(fp),
                 recorded=time.strftime("%Y-%m-%dT%H:%M:%S"))
    entry["comparable"] = True
    if path.exists():
        for line in reversed(path.read_text().splitlines()):
            try:
                prev = json.loads(line)
            except ValueError:
                continue
            if prev.get("workload") == entry["workload"] and \
                    prev.get("machine_key") == entry["machine_key"]:
                if prev["machine"].get("kernel_tier") != fp["kernel_tier"]:
                    entry["comparable"] = False
                    entry["not_comparable_reason"] = (
                        f"kernel tier {fp['kernel_tier']} vs "
                        f"{prev['machine'].get('kernel_tier')} in the "
                        f"previous entry")
                break
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry
