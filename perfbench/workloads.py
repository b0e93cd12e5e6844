"""The benchmark's workloads: a fixed list of ``lsv-shortmat`` commands each.

The benchmark seed reaches the program only as generated inputs: every
command gets a small shift of its explicit ``--kmin``/``--kmax`` strike
range, and every Monte Carlo command gets its own ``--seed``.  All other
flags are the CLI defaults, except the strike grid of the main ``smile``
commands (25 strikes, issued as five strided commands of 5) and the reduced
sizes of the probe commands (see README.md for why probes exist).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

MODEL_DIR = os.path.join("perfbench", "models")

# largest |shift| added to both ends of a command's log-moneyness range.
# Nelder-Mead work on the square-root wings jumps with the strikes: a shift
# of 0.004 moved a VIX command's objective evaluations by +-10%, 0.0005 by
# +-3%, and the seed should perturb the inputs, not the amount of work
STRIKE_SHIFT = 0.0005

# strike ranges (log-moneyness) of the commands; the MC ranges sit inside
# the [1%, 99%] sample quantiles, where the MC pricer quotes every strike
SMILE_RANGE = (-0.3, 0.3)
# the main smile grid: SMILE_KCOUNT evenly spaced strikes over SMILE_RANGE,
# issued as SMILE_COMMANDS commands, command j taking every SMILE_COMMANDS-th
# strike from strike j on.  A whole 25-strike square-root command runs 2-4 s,
# long enough for the host's speed to change inside it, so the kernels around
# it (hostspeed.py) miss the change: its scaled time spread 17% over six
# repeats, the same strikes in five commands 4%.  Striding rather than
# consecutive strikes gives each command one strike of each region, so no
# command holds only the slow wing strikes
SMILE_KCOUNT = 25
SMILE_COMMANDS = 5
MC_EUR_LOGNORMAL_RANGE = (-0.2, 0.12)
MC_EUR_SQRT_RANGE = (-0.22, 0.12)
MC_VIX_RANGE = (-0.28, 0.26)

# size of the MC probe on the smile workloads: 1 block x 50 steps
PROBE_PATHS = 16384
PROBE_STEPS = 50
# strike count of the smile probes on mc-validate
PROBE_KCOUNT = 5

# CLI defaults the metrics need (``mc``/``compare`` size and strike count)
DEFAULT_PATHS = 100_000
DEFAULT_STEPS = 200
DEFAULT_KCOUNT = 21


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload, before the seed is applied."""

    kind: str  # "table1", "smile", "mc" or "compare"
    model: str = ""  # file stem under MODEL_DIR
    product: str = "european"
    k_range: tuple[float, float] | None = None
    kcount: int = DEFAULT_KCOUNT
    paths: int = DEFAULT_PATHS
    steps: int = DEFAULT_STEPS

    @property
    def key(self) -> str:
        """Stable name of the command, used in output digests and messages."""
        if self.kind == "table1":
            return "table1"
        size = ""
        if self.kind in ("mc", "compare") and (self.paths, self.steps) != (DEFAULT_PATHS, DEFAULT_STEPS):
            size = f"-{self.paths}x{self.steps}"
        elif self.kind == "smile" and self.k_range != SMILE_RANGE:
            size = f"@{self.k_range[0]:+.3f}..{self.k_range[1]:+.3f}"
        elif self.kind == "smile":
            size = f"-k{self.kcount}"
        return f"{self.kind}-{self.product}-{self.model}{size}"

    @property
    def model_path(self) -> str:
        return os.path.join(MODEL_DIR, self.model + ".json")

    @property
    def is_mc(self) -> bool:
        return self.kind in ("mc", "compare")

    @property
    def kernel(self) -> str:
        """The host-speed kernel (hostspeed.py) that scales this command's time."""
        return "paths" if self.is_mc else "solver"

    @property
    def expected_rows(self) -> int:
        return 3 if self.kind == "table1" else self.kcount

    def argv(self, rng: random.Random) -> list[str]:
        """Command line for one run; draws this command's seeded inputs."""
        if self.kind == "table1":
            return ["table1"]
        shift = rng.uniform(-STRIKE_SHIFT, STRIKE_SHIFT)
        kmin, kmax = self.k_range
        args = [self.kind, "--model", self.model_path, "--product", self.product,
                f"--kmin={kmin + shift!r}", f"--kmax={kmax + shift!r}"]
        if self.kcount != DEFAULT_KCOUNT:
            args += ["--kcount", str(self.kcount)]
        if self.is_mc:
            args += ["--seed", str(rng.randrange(1, 2**31))]
            if self.paths != DEFAULT_PATHS:
                args += ["--paths", str(self.paths)]
            if self.steps != DEFAULT_STEPS:
                args += ["--steps", str(self.steps)]
        return args


def _smile_grid(model, product):
    lo, hi = SMILE_RANGE
    k = [lo + i * (hi - lo) / (SMILE_KCOUNT - 1) for i in range(SMILE_KCOUNT)]
    per_command = SMILE_KCOUNT // SMILE_COMMANDS
    last = (per_command - 1) * SMILE_COMMANDS
    return [Command("smile", model, product, (k[j], k[j + last]), kcount=per_command)
            for j in range(SMILE_COMMANDS)]


def _smiles(model):
    return [*_smile_grid(model, "european"), *_smile_grid(model, "vix")]


def _mc_probe(model):
    return Command("mc", model, "european", MC_EUR_RANGE[model], paths=PROBE_PATHS, steps=PROBE_STEPS)


def _smile_probes():
    return [Command("smile", "tanh_lognormal_rho_m07", p, SMILE_RANGE, kcount=PROBE_KCOUNT)
            for p in ("european", "vix")]


MC_EUR_RANGE = {"tanh_lognormal_rho_m07": MC_EUR_LOGNORMAL_RANGE,
                "tanh_sqrt_meanrev_rho_m07": MC_EUR_SQRT_RANGE}

# probes are spread over the pass so that a burst of load on a shared
# machine hits few of them
WORKLOADS: dict[str, list[Command]] = {
    "smile-lognormal": [
        Command("table1"),
        _mc_probe("tanh_lognormal_rho_m07"),
        *_smiles("tanh_lognormal_rho_m07"),
        _mc_probe("tanh_lognormal_rho_m07"),
        *_smiles("tanh_lognormal_rho_0"),
        _mc_probe("tanh_lognormal_rho_m07"),
        *_smiles("tanh_lognormal_rho_p07"),
        _mc_probe("tanh_lognormal_rho_m07"),
        # constant local vol: sabr_rate_closed is an exact oracle here
        *_smile_grid("constant_lognormal_rho_m07", "european"),
    ],
    "smile-sqrt": [
        _mc_probe("tanh_sqrt_meanrev_rho_m07"),
        *_smiles("tanh_sqrt_rho_m07"),
        _mc_probe("tanh_sqrt_meanrev_rho_m07"),
        *_smiles("tanh_sqrt_rho_0"),
        _mc_probe("tanh_sqrt_meanrev_rho_m07"),
    ],
    "mc-validate": [
        Command("compare", "tanh_lognormal_rho_m07", "european", MC_EUR_LOGNORMAL_RANGE),
        *_smile_probes(),
        Command("mc", "tanh_lognormal_rho_m07", "vix", MC_VIX_RANGE),
        *_smile_probes(),
        Command("mc", "tanh_sqrt_meanrev_rho_m07", "european", MC_EUR_SQRT_RANGE),
    ],
}


def command_lines(workload: str, seed: int) -> list[tuple[Command, list[str]]]:
    """The workload's commands with their argv for ``seed``; the same seed
    always gives the same argv."""
    rng = random.Random(seed)
    return [(cmd, cmd.argv(rng)) for cmd in WORKLOADS[workload]]
