"""Seeded inputs for the benchmark workloads.

Every workload is a list of rounds; a round is a tuple of CLI commands. The
`sim-*` workloads run one `simulate --stack` per round on a fixed network,
with the file contents of each round drawn from the run's seed. The
`analytic` workload runs one command of each analytic kind per round on
networks drawn from fixed pools: pool entry i of a kind is generated from its
own seed, so its exact answer can be stored with the benchmark, and the run's
seed picks which pool entries the run visits and in which order.

A network's cost grows about threefold with its budget, so budgets are not
left to chance: pool entries fall into STRATA groups by index, entry i gets a
budget of (i % STRATA + 1) / 8 of its content, and every run visits the
groups in a seeded order, one per round, cycling; all commands of a round
come from the same group. Each run then sees the same mix of budgets, and
runs with different seeds differ only in the networks.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sim-multi", "sim-deep", "analytic")
STRATA = 7
POOL_SIZE = 9 * STRATA
ROUNDS_DRAWN = 32
SIM_DEMAND_CAP = 20000

SIM_NETWORKS = {
    # 4^3 * 3^3 * 2^3 = 13824 cheap demand vectors: the product of the libraries'
    # demand spaces, which factoring verification by library would shrink.
    "sim-multi": {
        "libraries": [
            {"num_files": 4, "alpha": "1/5"},
            {"num_files": 3, "alpha": "2/5"},
            {"num_files": 2, "alpha": "2/5"},
        ],
        "num_users": 3,
        "cache_size": "3/2",
    },
    # one library, 2^8 = 256 expensive demands: a two-part plan at t=3 and t=4
    # with C(8, 4)-sized subset families per part.
    "sim-deep": {
        "libraries": [{"num_files": 2, "alpha": "1"}],
        "num_users": 8,
        "cache_size": "7/8",
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `kind` names the timing bucket, `key` the stored answer."""

    kind: str
    key: str
    config: str | None
    args: tuple[str, ...]
    covered: int = 0  # demand vectors a simulate command covers; 0 otherwise

    def argv(self, directory: Path) -> list[str]:
        head = ["--config", str(directory / self.config)] if self.config else []
        return head + list(self.args)


@dataclass(frozen=True)
class Round:
    """The commands of one round; `group` is the pool group they come from."""

    group: int
    commands: tuple[Command, ...]


def covered_vectors(network: dict) -> int:
    """Demand vectors `simulate --stack` covers: every multi-library demand
    (prod N_l^K) plus every stacked demand (N_max^K)."""
    k = network["num_users"]
    counts = [lib["num_files"] for lib in network["libraries"]]
    return math.prod(n**k for n in counts) + max(counts) ** k


def _libraries(rng: random.Random, count: int) -> list[dict]:
    weights = [rng.randint(1, 9) for _ in range(count)]
    total = sum(weights)
    return [
        {"num_files": rng.randint(1, 20), "alpha": str(Fraction(w, total))} for w in weights
    ]


def _content(libraries: list[dict]) -> Fraction:
    return sum((Fraction(lib["alpha"]) * lib["num_files"] for lib in libraries), Fraction(0))


def pool_entry(pool: str, index: int) -> dict:
    """Entry `index` of a fixed pool; independent of any run seed."""
    rng = random.Random(f"cacheshare-bench:{pool}:{index}")
    if pool == "tradeoff":
        return {"files": rng.randint(10, 50), "users": rng.randint(1000, 3000)}
    if pool == "oracle":
        return {"libraries": _libraries(rng, 3), "num_users": 6, "cache_size": "1"}
    sizes = {"network": 50, "sweep": 2}
    if pool not in sizes:
        raise ValueError(f"unknown pool {pool!r}")
    libraries = _libraries(rng, sizes[pool])
    budget = _content(libraries) * Fraction(index % STRATA + 1, 8)
    return {"libraries": libraries, "num_users": 200, "cache_size": str(budget)}


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _sim_rounds(workload: str, seed: int, directory: Path) -> list[Round]:
    network = SIM_NETWORKS[workload]
    _write_json(directory / "network.json", network)
    rng = random.Random(f"cacheshare-bench:{workload}:{seed}")
    covered = covered_vectors(network)
    rounds = []
    for _ in range(ROUNDS_DRAWN):
        file_seed = str(rng.randrange(2**31))
        args = ("--seed", file_seed, "simulate", "--stack", "--demand-cap", str(SIM_DEMAND_CAP))
        rounds.append(Round(0, (Command("simulate", workload, "network.json", args, covered),)))
    return rounds


def analytic_round(t: int, n: int, o: int, s: int, directory: Path) -> tuple[Command, ...]:
    """One command of each analytic kind on pool entries t (tradeoff shape),
    n (network, for allocate and converse), o (oracle) and s (sweep)."""
    shape = pool_entry("tradeoff", t)
    network, oracle, sweep = f"network-{n:02d}.json", f"oracle-{o:02d}.json", f"sweep-{s:02d}.json"
    _write_json(directory / network, pool_entry("network", n))
    _write_json(directory / oracle, pool_entry("oracle", o))
    _write_json(directory / sweep, pool_entry("sweep", s))
    tradeoff_args = ("tradeoff", "--files", str(shape["files"]), "--users", str(shape["users"]))
    return (
        Command("tradeoff", f"tradeoff:{t}", None, tradeoff_args),
        Command("allocate", f"allocate:{n}", network, ("allocate",)),
        Command("oracle", f"oracle:{o}", oracle, ("allocate", "--oracle-step", "1/100")),
        Command("sweep", f"sweep:{s}", sweep, ("sweep", "--samples", "101")),
        Command("converse", f"converse:{n}", network, ("converse",)),
    )


def _analytic_rounds(seed: int, directory: Path) -> list[Round]:
    rng = random.Random(f"cacheshare-bench:analytic:{seed}")
    order = rng.sample(range(STRATA), STRATA)
    # per pool (tradeoff shapes, networks, oracle and sweep networks) and group,
    # a seeded order of the group's entries
    draws = [
        [rng.sample(range(g, POOL_SIZE, STRATA), POOL_SIZE // STRATA) for g in range(STRATA)]
        for _ in range(4)
    ]
    rounds = []
    for r in range(ROUNDS_DRAWN):
        group = order[r % STRATA]
        indices = [draw[group][r // STRATA] for draw in draws]
        rounds.append(Round(group, analytic_round(*indices, directory)))
    return rounds


def write_inputs(workload: str, seed: int, directory: Path) -> list[Round]:
    """Write the workload's configs and schedule into `directory`; return the rounds.

    The same (workload, seed) always writes byte-identical files.
    """
    directory = Path(directory)
    if workload == "analytic":
        rounds = _analytic_rounds(seed, directory)
    elif workload in SIM_NETWORKS:
        rounds = _sim_rounds(workload, seed, directory)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    schedule = {
        "workload": workload,
        "seed": seed,
        "rounds": [
            {
                "group": rnd.group,
                "commands": [
                    {"kind": c.kind, "key": c.key, "config": c.config, "args": list(c.args)}
                    for c in rnd.commands
                ],
            }
            for rnd in rounds
        ],
    }
    _write_json(directory / "schedule.json", schedule)
    return rounds
