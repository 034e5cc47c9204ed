"""Seeded workloads for the stagecraft benchmark, and the checks on their outputs.

A workload is a pool of CLI items.  Each item is one config file plus a
per-item ``--seed``; running it is one call to ``stagecraft.cli.main``,
the same call the ``stagecraft`` command makes.  The pool is drawn from
the workload seed alone with a single-threaded ``random.Random``, so the
same seed gives the same files.  Item sizes are drawn one per equal-width
stratum of their range, which keeps the size distribution, and with it
the timings, nearly the same from seed to seed.

Only the standard library is imported here: generating the configs is
part of the timed set-up, and must not import numpy early.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

SLACK = 1e-9

WORKLOADS = ("verify-replay", "synthesize-decompose", "converse-roundtrip", "oracle-solve")


@dataclass
class Item:
    """One CLI invocation and what its outputs must satisfy."""

    index: int
    command: str
    label: str
    config: dict
    seed: int
    config_path: str = ""
    out_dir: str = ""
    expect: dict = field(default_factory=dict)

    def argv(self) -> list:
        return [self.command, "--config", self.config_path, "--out", self.out_dir,
                "--seed", str(self.seed)]


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """One draw near the middle of each of n equal-width strata of [lo, hi).

    The strata come in a fixed order that interleaves small and large
    values, so every seed gives the same mix of sizes at every position
    and only the draws within the strata change.
    """
    width = (hi - lo) / n
    stride = min((s for s in range(1, n + 1) if math.gcd(s, n) == 1),
                 key=lambda s: abs(s - 0.38 * n))
    return [lo + ((i * stride) % n + 0.4 + 0.2 * rng.random()) * width for i in range(n)]


def _away_from(rng: random.Random, natural: float) -> float:
    """A decay rate in [0.15, 0.9] at least 0.1 away from ``natural``."""
    while True:
        decay = rng.uniform(0.15, 0.9)
        if abs(decay - natural) >= 0.1:
            return round(decay, 6)


def _linear(c: float) -> dict:
    return {"kind": "kinf", "expr": {"op": "linear", "c": float(c)}}


def _unstable_scalar(rng: random.Random) -> tuple:
    """scalar_linear params with open-loop drift above 1 and a contracting gain."""
    a = round(rng.uniform(1.05, 1.6), 6)
    b = round(rng.uniform(0.5, 2.0), 6)
    closed = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.8)
    gain = round((closed - a) / b, 6)
    return {"a": a, "b": b, "gain": gain}, abs(a + b * gain)


def _verify_replay(rng: random.Random) -> list:
    systems = ("scalar_linear", "two_state_linear", "saturating_scalar")
    kinds = ("ubgec", "uvc", "uac")
    out = []
    for i, horizon in enumerate(_strata(rng, 18, 128, 384)):
        name, kind = systems[i % 3], kinds[(i // 3) % 3]
        system = {"builtin": name}
        if name == "scalar_linear":
            system["params"], _ = _unstable_scalar(rng)
        config = {
            "system": system,
            "certificate": {"kind": kind},
            "samples": {"count": 3, "mode": "random"},
            "horizon": int(horizon),
            "slack": SLACK,
        }
        out.append(("verify", f"verify/{name}/{kind}", config, {"slack": SLACK}))
    return out


def _synthesize_decompose(rng: random.Random) -> list:
    # an odd pool puts the median inside one item's times, not between two
    separable = ("scalar_linear", "two_state_linear", "saturating_scalar")
    lengths = _strata(rng, 15, 12, 36)
    out = []
    for i in range(21):
        if i % 7 in (3, 6):
            name = separable[(i // 7 + i % 7) % 3]
            system = {"builtin": name}
            natural = {"two_state_linear": 0.7, "saturating_scalar": 0.5}.get(name)
            if name == "scalar_linear":
                system["params"], natural = _unstable_scalar(rng)
        else:
            name = "finite_chain"
            system = {"builtin": name, "params": {"length": int(lengths.pop())}}
            natural = 0.5
        config = {
            "system": system,
            "synthesis": {"decay": _away_from(rng, natural)},
            "samples": {"count": 2, "mode": "random"},
            "horizon": 16,
            "slack": SLACK,
        }
        out.append(("synthesize", f"synthesize/{name}", config, {"slack": SLACK}))
    return out


def _converse_roundtrip(rng: random.Random) -> list:
    lengths = _strata(rng, 6, 6, 14)
    drifts = _strata(rng, 6, 0.3, 0.85)
    horizons = _strata(rng, 12, 24, 40)
    out = []
    for i in range(12):
        if i % 2 == 0:
            system = {"builtin": "finite_chain", "params": {"length": int(lengths.pop())}}
            certificate = {"kind": "oracle"}
            label = "converse/finite_chain/oracle"
        else:
            a = rng.choice((-1.0, 1.0)) * round(drifts.pop(), 6)
            system = {"builtin": "scalar_linear", "params": {"a": a}}
            certificate = {"kind": "synthesize", "base": "ubgec"}
            label = "converse/scalar_linear/synthesize"
        config = {
            "system": system,
            "certificate": certificate,
            "samples": {"count": 2, "mode": "random"},
            "horizon": int(horizons[i]),
            "slack": SLACK,
            "converse": {"depth": 4, "nu_depth": 6, "policy_length": 256},
        }
        out.append(("converse", label, config, {"slack": SLACK}))
    return out


def _saturating_grid(rng: random.Random, states: int, inputs: int) -> dict:
    half = states // 2
    reach = rng.uniform(2.0, 2.5)
    positive = [round(reach * (k / half) ** 1.5, 9) for k in range(1, half + 1)]
    state_grid = [-x for x in reversed(positive)] + [0.0] + positive
    span = rng.uniform(0.6, 0.7)
    input_grid = [round(-span + 2.0 * span * k / (inputs - 1), 9) for k in range(inputs)]
    return {"builtin": "saturating_scalar", "state_grid": state_grid, "input_grid": input_grid}


def _oracle_solve(rng: random.Random) -> list:
    # a chain costs about length**2, so lengths are spread evenly in length**2
    # and the largest items, which set the tail, are many and close in cost
    lengths = [int(math.sqrt(v)) for v in _strata(rng, 17, 60 ** 2, 300 ** 2)]
    # the cost of a grid grows with states x inputs: each position pairs a
    # stratum of states with a fixed input count
    grids = [(2 * int(half) + 1, (3, 5, 7, 9)[k % 4])
             for k, half in enumerate(_strata(rng, 16, 40, 150))]
    out = []
    for i in range(33):  # odd, so the median falls inside one item's times
        if i % 2 == 0:
            length = lengths.pop()
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            config = {
                "system": {"builtin": "finite_chain", "params": {"length": length}},
                "oracle": {"stage_cost": {"state_cost": _linear(a), "input_cost": _linear(b)}},
            }
            out.append(("oracle", "oracle/finite_chain", config, {"chain": [length, a, b]}))
        else:
            config = {"system": {"discretize": _saturating_grid(rng, *grids.pop())}}
            out.append(("oracle", "oracle/saturating_grid", config, {}))
    return out


_GENERATORS = {
    "verify-replay": _verify_replay,
    "synthesize-decompose": _synthesize_decompose,
    "converse-roundtrip": _converse_roundtrip,
    "oracle-solve": _oracle_solve,
}


def generate(workload: str, seed: int, work_dir: str) -> list:
    """Draw the workload's pool from ``seed`` and write its configs under ``work_dir``."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(work_dir, exist_ok=True)
    items = []
    for index, (command, label, config, expect) in enumerate(_GENERATORS[workload](rng)):
        item = Item(index, command, label, config, rng.randrange(2 ** 31), expect=expect)
        item.config_path = os.path.join(work_dir, f"item{index:03d}.json")
        item.out_dir = os.path.join(work_dir, f"out{index:03d}")
        with open(item.config_path, "w", encoding="utf-8") as fp:
            json.dump(config, fp, sort_keys=True)
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fp:
        return fp.read()


def _csv_rows(path: str) -> list:
    lines = _read(path).split("\r\n")
    if lines[-1] == "":
        lines.pop()
    return [line.split(",") for line in lines[1:]]


def _check_report(item: Item) -> str | None:
    rows = _csv_rows(os.path.join(item.out_dir, "report.csv"))
    if not rows:
        return "report.csv has no rows"
    slack = item.expect["slack"]
    for row in rows:
        if not float(row[-1]) <= slack:
            return f"margin {row[-1]} of {row[1]} at sample {row[0]} exceeds slack {slack:g}"
    return None


def _check_oracle(item: Item) -> str | None:
    meta = json.loads(_read(os.path.join(item.out_dir, "oracle.json")))
    if meta.get("converged") is not True:
        return "value iteration did not converge"
    if "chain" not in item.expect:
        return None
    length, a, b = item.expect["chain"]
    rows = _csv_rows(os.path.join(item.out_dir, "value_table.csv"))
    if len(rows) != length:
        return f"value table has {len(rows)} rows, expected {length}"
    for state, _sigma, value, _greedy in rows:
        x = int(state)
        # stepping down from x pays a*k + b at every level k = x..1
        exact = a * x * (x + 1) / 2 + b * x
        if float(value) != exact:
            return f"chain value {value} at state {x} differs from the closed form {exact:g}"
    return None


def check_item(item: Item, exit_code: int, stdout: str) -> str | None:
    """Why the item's run is wrong, or None when every check holds."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if not stdout.startswith("PASS"):
        return f"verdict {stdout.strip()[:60]!r}"
    try:
        if item.command == "oracle":
            return _check_oracle(item)
        return _check_report(item)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable artifact: {exc!r}"


def artifact_digest(out_dir: str) -> str:
    """SHA-256 over every artifact of one item, names included, in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fp:
            digest.update(fp.read())
        digest.update(b"\0")
    return digest.hexdigest()
