"""Task-family generators: slippery gridworld CMDP sequences with
controllable similarity.

Grid convention: start at the top-left cell, goal at the bottom-right cell,
both always frozen. Reaching the goal pays goal_reward once and the episode
absorbs; stepping into a hole incurs one unit of cost (scaled by hole_cost)
and absorbs. A dedicated absorbing state is appended so the discounted
infinite-horizon formulation applies exactly.

Cells are numbered r * cols + c. A CMDP is built with array operations:
each (cell, action) row has three outcomes, the intended move of MOVES and
the two perpendicular slips of PERP, each clipped at the border, and those
(S, A, 3) destinations and probabilities are the CMDP's kernel entries as
they stand. The reward and cost tables add each row's outcomes that reach
the goal or a hole, in outcome order, so the CMDP is the same bit for bit
as a per-cell loop of += writes into a dense kernel would build.

What depends only on the grid's shape, each cell's move targets (nested
tuples, for the reachability search) and each (state, action) row's
outcome destinations (an array, for the CMDP), is built once per
(rows, cols) by _shape_tables and shared read-only by every grid of that
shape.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cmdp import TabularCmdp
from .errors import (GenerationFailure, InvalidInput, check_counts, check_reals, is_real,
                     known_keys)

HIGH_SIMILARITY = "HighSimilarity"
LOW_SIMILARITY = "LowSimilarity"

# action order: up, down, left, right
MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))
PERP = {0: (2, 3), 1: (2, 3), 2: (0, 1), 3: (0, 1)}


@dataclass(frozen=True)
class GridSpec:
    rows: int = 4
    cols: int = 4
    frozen_prob: float = 0.7
    goal_reward: float = 2.0
    hole_cost: float = 1.0
    cost_limit: float = 0.3
    slip_prob: float = 1.0 / 3.0
    discount: float = 0.95
    seed: int = 0

    def __post_init__(self):
        check_counts(self, rows=2, cols=2, seed=0)
        check_reals(self, "frozen_prob", "goal_reward", "hole_cost", "cost_limit",
                    "slip_prob", "discount")
        if not (0.0 <= self.frozen_prob <= 1.0 and 0.0 <= self.slip_prob <= 1.0):
            raise InvalidInput("probabilities must lie in [0, 1]")
        for name in ("goal_reward", "hole_cost"):
            value = getattr(self, name)
            if not value >= 0.0:  # NaN fails too
                raise InvalidInput(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class TaskSequenceConfig:
    mode: str
    num_tasks: int
    base: GridSpec = field(default_factory=GridSpec)
    low_sim_prob_range: tuple = (0.3, 0.7)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (HIGH_SIMILARITY, LOW_SIMILARITY):
            raise InvalidInput(f"unknown mode {self.mode!r}")
        check_counts(self, num_tasks=1, seed=0)
        lo_hi = self.low_sim_prob_range
        if not (isinstance(lo_hi, (list, tuple)) and len(lo_hi) == 2
                and all(map(is_real, lo_hi))
                and 0.0 <= lo_hi[0] <= lo_hi[1] <= 1.0):   # NaN fails too
            raise InvalidInput("low_sim_prob_range must be two numbers "
                               f"0 <= lo <= hi <= 1, got {lo_hi!r}")
        object.__setattr__(self, "low_sim_prob_range", tuple(lo_hi))

    @classmethod
    def from_dict(cls, doc):
        """The config of a parsed JSON task-source object; keys it leaves
        out take the dataclass defaults."""
        kw = dict(known_keys(doc, cls, "task_source", required=("mode", "num_tasks")))
        if "base" in kw:
            kw["base"] = GridSpec(**known_keys(kw["base"], GridSpec,
                                               "task_source.base"))
        return cls(**kw)


class _ShapeTables(NamedTuple):
    """What the reachability search and the CMDP build need of one grid
    shape, shared read-only by every grid of that shape."""
    moves: tuple            # moves[s][a]: the cell move a of MOVES reaches from s
    outcomes: np.ndarray    # (rows*cols + 1, 4, 3): each (state, action) row's
                            # destinations, the intended move then the PERP slips


@functools.cache
def _shape_tables(rows, cols):
    """The _ShapeTables of a rows x cols grid, built on the first call for
    that shape. A move stays put at the border; the absorbing state's row
    (the last) names the absorbing state."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    dr, dc = np.array(MOVES).T
    targets = (np.clip(r[:, None] + dr, 0, rows - 1) * cols
               + np.clip(c[:, None] + dc, 0, cols - 1))
    outcomes = np.full((rows * cols + 1, len(MOVES), 3), rows * cols, dtype=np.intp)
    outcomes[:-1] = targets[:, [(a,) + PERP[a] for a in range(len(MOVES))]]
    outcomes.setflags(write=False)
    return _ShapeTables(tuple(map(tuple, targets.tolist())), outcomes)


def _goal_reachable(frozen, rows, cols):
    """BFS over frozen cells under deterministic moves, holes blocking."""
    goal = rows * cols - 1
    moves = _shape_tables(rows, cols).moves
    open_cells = frozen.ravel().tolist()
    seen = [False] * (goal + 1)
    seen[0] = True
    queue = [0]
    for s in queue:  # grows while it is read
        if s == goal:
            return True
        for t in moves[s]:
            if open_cells[t] and not seen[t]:
                seen[t] = True
                queue.append(t)
    return False


def _sample_grid(spec, rng):
    frozen = rng.random((spec.rows, spec.cols)) < spec.frozen_prob
    frozen[0, 0] = True
    frozen[spec.rows - 1, spec.cols - 1] = True
    return frozen


def grid_to_cmdp(frozen, spec):
    """Build the tabular CMDP for an explicit frozen/hole bitmap.

    Every (state, action) row gets three outcomes, the intended move and then
    the two perpendicular slips of PERP; a terminal row (hole, goal or the
    absorbing state) sends all its mass to the absorbing state instead.
    Those outcomes are the kernel entries; a row may name a state twice
    where a move is clipped at the border.
    """
    rows, cols = spec.rows, spec.cols
    n_cells = rows * cols
    n_states = n_cells + 1          # + absorbing
    absorbing = n_cells
    goal = n_cells - 1
    n_actions = 4
    holes = np.append(~frozen.reshape(-1), False)   # + absorbing
    terminal = holes.copy()
    terminal[goal] = terminal[absorbing] = True

    dest = np.where(terminal[:, None, None], absorbing,
                    _shape_tables(rows, cols).outcomes)
    prob = np.empty((n_states, n_actions, 3))
    prob[:] = (1.0 - spec.slip_prob, spec.slip_prob / 2.0, spec.slip_prob / 2.0)
    prob[terminal] = (1.0, 0.0, 0.0)

    # each row's outcomes that reach the goal, then a hole, added in order
    reached = prob * np.stack([dest == goal, holes[dest]])
    reward, cost = (reached[..., 0] + reached[..., 1]) + reached[..., 2]
    reward = spec.goal_reward * reward
    cost = spec.hole_cost * cost
    initial_dist = np.zeros(n_states)
    initial_dist[0] = 1.0
    return TabularCmdp(
        kernel=(dest, prob),
        reward=reward,
        costs=cost[None],
        limits=np.array([spec.cost_limit]),
        discount=spec.discount,
        initial_dist=initial_dist,
        c_max=max(spec.goal_reward, spec.hole_cost, 1e-12),
    )


def gen_grid(spec, max_attempts=100):
    """Sample a bitmap with a reachable goal under the grid spec's seed."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(max_attempts):
        frozen = _sample_grid(spec, rng)
        if _goal_reachable(frozen, spec.rows, spec.cols):
            return frozen
    raise GenerationFailure(f"no reachable {spec.rows}x{spec.cols} grid at "
                            f"frozen_prob {spec.frozen_prob:.3g} in "
                            f"{max_attempts} attempts")


def gen_frozen_lake(spec, max_attempts=100):
    """Sample a reachable grid under the grid spec's seed and build its CMDP."""
    return grid_to_cmdp(gen_grid(spec, max_attempts), spec)


def gen_task_sequence(config):
    """Generate a task sequence; returns (cmdps, grids, manifest dict).

    HighSimilarity flips exactly one non-terminal cell of the base grid per
    subsequent task (distinct cells, reachability preserved); LowSimilarity
    redraws every grid with an independent frozen probability, grid t from
    child t + 1 of the sequence seed. Child 0 seeds the sequence's own rng,
    and only the children a mode reads are spawned.
    """
    root = np.random.SeedSequence(config.seed)
    rng = np.random.default_rng(root.spawn(1)[0])
    cmdps, grids, notes = [], [], []

    if config.mode == HIGH_SIMILARITY:
        base_grid = gen_grid(config.base)
        cmdps.append(grid_to_cmdp(base_grid, config.base))
        grids.append(base_grid)
        notes.append({"flip": None, "frozen_prob": config.base.frozen_prob})
        rows, cols = config.base.rows, config.base.cols
        flippable = [divmod(k, cols) for k in range(1, rows * cols - 1)]
        if config.num_tasks - 1 > len(flippable):
            raise InvalidInput("more tasks than flippable cells")
        order = list(rng.permutation(len(flippable)))
        while len(cmdps) < config.num_tasks:
            if not order:
                raise GenerationFailure("ran out of reachability-preserving flips")
            r, c = flippable[order.pop(0)]
            grid = base_grid.copy()
            grid[r, c] = ~grid[r, c]
            if not _goal_reachable(grid, rows, cols):
                continue
            cmdps.append(grid_to_cmdp(grid, config.base))
            grids.append(grid)
            notes.append({"flip": [int(r), int(c)],
                          "frozen_prob": config.base.frozen_prob})
    else:
        lo, hi = config.low_sim_prob_range
        for child in root.spawn(config.num_tasks):
            prob = float(lo + (hi - lo) * rng.random())
            spec = GridSpec(**{**config.base.__dict__,
                               "frozen_prob": prob,
                               "seed": int(child.generate_state(1)[0])})
            grid = gen_grid(spec)
            cmdps.append(grid_to_cmdp(grid, spec))
            grids.append(grid)
            notes.append({"flip": None, "frozen_prob": prob})

    manifest = {
        "mode": config.mode,
        "num_tasks": config.num_tasks,
        "seed": config.seed,
        "base": dict(config.base.__dict__),
        "tasks": [{
            "index": t,
            "grid": grid_ascii(grids[t]),
            **notes[t],
        } for t in range(config.num_tasks)],
    }
    return cmdps, grids, manifest


def grid_ascii(frozen):
    """Render a bitmap for inspection: S start, G goal, . frozen, H hole."""
    chars = np.where(frozen, ".", "H")
    chars[-1, -1] = "G"
    chars[0, 0] = "S"
    return ["".join(row) for row in chars.tolist()]


def write_task_sequence(config, out_dir):
    """Write numbered CMDP JSON files plus a manifest to out_dir."""
    import os

    cmdps, _, manifest = gen_task_sequence(config)
    os.makedirs(out_dir, exist_ok=True)
    for t, cmdp in enumerate(cmdps):
        with open(os.path.join(out_dir, f"task_{t:03d}.json"), "w") as fh:
            fh.write(cmdp.to_json())
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    return cmdps


def load_task_sequence(in_dir):
    import os

    names = sorted(n for n in os.listdir(in_dir)
                   if n.startswith("task_") and n.endswith(".json"))
    cmdps = []
    for name in names:
        with open(os.path.join(in_dir, name)) as fh:
            cmdps.append(TabularCmdp.from_json(fh.read()))
    return cmdps
