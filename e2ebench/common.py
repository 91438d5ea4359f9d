"""What every phase shares: the workloads, the run context, the result
record, the input cache hand-off, and peak-RSS readings."""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from e2ebench.inputs import DAY_FLOWS

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    """A vantage point: the simulated trace profile the day comes from,
    its client population, and why the benchmark runs it."""

    profile: str
    clients: int
    why: str


WORKLOADS = {
    "adsl_day": Workload(
        "EU1-ADSL2-24H", 110,
        "Residential ADSL day: most flows follow a DNS answer the resolver "
        "still holds, so labeling hits (about 0.86 of flows labeled).",
    ),
    "mobile_3g": Workload(
        "US-3G", 200,
        "3G vantage point: tunnels, mobility and P2P leave more flows "
        "without a DNS label (about 0.64), with another protocol mix.",
    ),
}


@dataclass
class Context:
    root: Path        # checkout root (holds src/ and e2ebench/)
    state: Path       # .e2ebench/ under the root: cache, work, spans
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Rows of the day (tests shrink it, and the population with it).
    day_flows: int = DAY_FLOWS
    clients: int | None = None

    @property
    def work(self) -> Path:
        """This run's working directory (removed when the run ends)."""
        path = self.state / "work" / str(os.getpid())
        path.mkdir(parents=True, exist_ok=True)
        return path

    def env(self) -> dict:
        """Environment for child processes: the benchmark package and
        the program's sources importable, nothing else changed."""
        env = dict(os.environ)
        paths = [str(self.root), str(self.root / "src")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        return env

    def inputs(self) -> Path:
        """Render (or reuse) the seed's inputs in a child process."""
        spec = WORKLOADS[self.workload]
        out = subprocess.run(
            [sys.executable, "-m", "e2ebench.inputs",
             "--root", str(self.state), "--profile", spec.profile,
             "--clients", str(self.clients or spec.clients),
             "--seed", str(self.seed), "--flows", str(self.day_flows)],
            cwd=self.root, env=self.env(), check=True, timeout=600,
            stdout=subprocess.PIPE, text=True,
        )
        return Path(out.stdout.strip().splitlines()[-1])

    def cleanup(self) -> None:
        shutil.rmtree(self.state / "work" / str(os.getpid()),
                      ignore_errors=True)


@dataclass
class Result:
    """One run's outcome: metrics by name as ``(value, unit)``, the
    operation counts, failed checks, and lines for the human report."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    report: list = field(default_factory=list)
    #: Traced runs: one ``(phase, rows, wall_s)`` per phase, where
    #: ``rows`` is the per-layer ledger (see ``spans.ledger``) and
    #: ``wall_s`` the traced wall time it splits.
    ledgers: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, problems: list) -> None:
        """Record failed correctness checks (empty list = passed)."""
        self.errors.extend(problems)


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live child process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
