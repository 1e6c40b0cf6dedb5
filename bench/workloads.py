"""The benchmark's workloads: closed loop, one client, one process each.

``train``       optimizer steps of the default model (cm2, B=8, d=128, k=10,
                ego 48, UNet 16x4) on records built from a few seeded
                floorplans; one op is one step.
``eval``        closed-loop rollouts of a fixed-init default model through
                ``evaluate_episode`` on a fixed pool of held-out floorplans,
                with a reduced step budget; one op is one rollout step.
``gen-data``    the gen-data pipeline per floorplan: its episodes with
                instructions, their records and one record-file round trip;
                one op is one floorplan, from a fixed pool.

Each workload runs units (a step, an episode, a floorplan) and returns, per unit, the op
latencies, the outputs' digest and its output checks. ``eval`` and
``gen-data`` replay a fixed pool in passes, each pass in a seeded order, so
that a faster program runs more of the same mix rather than a different one,
and so that each piece of work is timed in several passes. Checks run after
the unit's timed part; a check that needs more memory than the unit itself runs
after the measured phase, so that peak RSS is the program's. The program's
functions are called through their modules at call time, so that the
tracer's wrappers see every call.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from mapnav import numerics as nm
from mapnav.config import RunConfig
from mapnav.mapping import crop_ego_occupancy, world_to_ego
from mapnav.model import CM2Model, make_gt_heatmaps
from mapnav.train_eval import dataset, evaluate, training

import checks
from tracing import Patches

WARM_UP = 999                  # unit index of the warm-up, never a measured unit
EVAL_EPISODE_OFFSET = 2000     # generate_splits' episode offset for the unseen split
# The default RunConfig holds out floorplans 200-249; eval replays the first.
EVAL_POOL = range(200, 205)
# Floorplans of gen-data's pool, clear of the default config's 0-249.
GEN_DATA_POOL = range(1000, 1006)

TINY_MODEL = dict(d=16, k=3, ego_size=16, unet_base=4, unet_depth=2, n_instr_layers=1)


@dataclass
class Unit:
    """What one unit of work did."""
    op_ms: list             # latency of each op in the unit; they add up to its time
    samples: int
    key: object = None      # units with the same key do the same work (pool position)
    host_ms: float = 0.0    # host speed reference timed around the unit
    peak_rss_mb: float = 0.0    # the process's peak RSS once the unit has run
    episodes: int = 0
    records: int = 0
    digest: bytes = b""     # outputs, for the traced-vs-untraced comparison
    checks: list = field(default_factory=list)        # callables -> list of problems
    late_checks: list = field(default_factory=list)   # the same, run after the phase
    failed: int = 0         # ops that raised or failed an output check
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return max(len(self.op_ms), self.failed)

    def run_checks(self, late: bool = False):
        """Run and drop (with the data they hold) the checks or late checks."""
        pending = self.late_checks if late else self.checks
        while pending:
            problems = pending.pop()()
            self.failed += len(problems)
            self.notes += problems


class Workload:
    """Set up (repeatably), warm up, then run units ``0, 1, ...``; a run
    covers at least one :attr:`group` of units (one pass over a pool), and
    its peak RSS is read once the first group has run, so that it covers the
    same work in every run."""
    group = 1

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.probes = Patches()

    def setup(self):
        """Build the inputs and the model."""

    def warm_up(self):
        self.unit(WARM_UP)

    def reset(self):
        """Return to the state right after :meth:`setup`, so that running
        units 0..n-1 again gives the same outputs."""

    def unit(self, i: int) -> Unit:
        raise NotImplementedError

    def final_digest(self) -> bytes:
        return b""

    def close(self):
        self.probes.undo()


class PoolWorkload(Workload):
    """Replays :attr:`pool` in passes, each pass in a seeded order; the
    warm-up unit runs the pool's first entry under every seed."""
    pool: list

    @property
    def group(self):
        return len(self.pool)

    def position(self, i) -> int:
        if i == WARM_UP:
            return 0
        order = np.random.default_rng([self.seed, 5, i // self.group]).permutation(self.group)
        return int(order[i % self.group])


def floorplan_seed(seed: int, i: int) -> int:
    """Seeded floorplans, clear of the default config's 0-249. They stay
    below 42950 because generate_split numbers episodes fp_seed * 100000 + n
    and the record format stores episode ids as uint32."""
    return 1000 + (1009 * seed + i) % 40_000


def _config(tiny: bool, **extra) -> RunConfig:
    cfg = RunConfig(**(TINY_MODEL if tiny else {}))
    return dataclasses.replace(cfg, **extra).validate()


# ----------------------------------------------------------------------
class Train(Workload):
    """The autodiff tapes are cyclic garbage that only the collector's full
    collections free, and these follow the allocation count: peak RSS grows
    with every step until the next one. Peak RSS is therefore read after a
    fixed number of steps, one group."""
    group = 8
    def setup(self):
        cfg = _config(self.tiny, batch_size=2 if self.tiny else 8)
        n_plans, per_plan = (1, 1) if self.tiny else (3, 2)
        pairs = dataset.generate_split(
            cfg, [floorplan_seed(self.seed, j) for j in range(n_plans)], 0, per_plan)
        self.records = dataset.build_dataset(pairs, cfg.samples_per_episode, cfg.k,
                                             cfg.ego_size, self.seed, num_rays=cfg.num_rays,
                                             max_range=cfg.max_range, p_noise=cfg.p_noise)
        self.model = CM2Model(cfg.model_config(), rng=np.random.default_rng([self.seed, 1]))
        self.initial = {n: p.data.copy() for n, p in self.model.params.items()}
        self.cfg = cfg
        self.reset()

    def reset(self):
        for n, p in self.model.params.items():
            p.data = self.initial[n].copy()
            p.grad = None
        self.opt = nm.Adam(self.model.params, lr=self.cfg.lr)

    def unit(self, i):
        cfg, model = self.cfg, self.model
        idx = np.random.default_rng([self.seed, 2, i]).integers(
            0, len(self.records), size=cfg.batch_size)
        batch_records = [self.records[j] for j in idx]
        before = {n: p.data.copy() for n, p in model.params.items()} if i == 0 else None
        t0 = perf_counter()
        batch = training.assemble_batch(batch_records, cfg.sigma)
        model.zero_grad()
        loss, _, _ = training.batch_loss(model, batch, cfg)
        value = float(loss.item())
        loss.backward()
        self.opt.step(only_with_grad=True)
        del loss
        busy = perf_counter() - t0
        unit = Unit([1000.0 * busy], samples=len(batch_records),
                    digest=struct.pack("<d", value))
        unit.checks.append(lambda: [] if math.isfinite(value) else [f"step {i}: loss {value}"])
        if i == 0:
            grads = {n: None if p.grad is None else p.grad.copy()
                     for n, p in model.params.items()}
            unit.checks.append(functools.partial(self._gradient_problems, batch, before, grads))
        return unit

    def _gradient_problems(self, batch, before, grads) -> list[str]:
        """Directional-derivative check of the gradient a step used, at the
        parameters it was taken at."""
        params = self.model.params
        now = {n: p.data for n, p in params.items()}

        def loss_at():
            with nm.no_grad():
                return float(training.batch_loss(self.model, batch, self.cfg)[0].item())

        try:
            for n, p in params.items():
                p.data = before[n]
            ok, msg = checks.directional_derivative_ok(
                loss_at, params, grads, np.random.default_rng([self.seed, 3]))
        finally:
            for n, p in params.items():
                p.data = now[n]
        return [] if ok else [f"step 0: {msg}"]

    def final_digest(self):
        h = hashlib.sha256()
        for n in sorted(self.model.params):
            h.update(self.model.params[n].data.tobytes())
        return h.digest()


# ----------------------------------------------------------------------
class RolloutProbe:
    """Times rollout steps from outside the controller: a step ends when
    ``step_agent`` returns, or, for the stop step, when ``run_rollout``
    returns. Also keeps the rollout result, the predictor's inputs at one
    sampled step and sampled planner searches, for the output checks."""

    def __init__(self, patches: Patches, astar_every: int):
        self.astar_every = astar_every
        self.begin(None)
        patches.wrap("mapnav.controller", "run_rollout", self._wrap_rollout)
        patches.wrap("mapnav.worldsim.agent", "step_agent", self._wrap_step)
        patches.wrap("mapnav.train_eval.evaluate", "make_predictor", self._wrap_make_predictor)
        patches.wrap("mapnav.controller", "_astar_weighted", self._wrap_astar)

    def begin(self, plan, sample_step: int = 0, astar_offset: int = 0):
        self.plan = plan
        self.sample_step = sample_step
        self.astar_offset = astar_offset
        self.marks, self.start, self.end, self.result = [], None, None, None
        self.captured, self.searches, self.astar_calls = None, [], 0

    def step_ms(self, busy: float) -> list[float]:
        """Step latencies; the last step also carries what the unit did
        around the rollout (the episode's metrics), so that they add up to
        ``busy``."""
        t = [self.start] + self.marks
        lat = list(np.diff(t))
        tail = self.end - t[-1]
        if self.result.stopped or not lat:
            lat.append(tail)
        else:
            lat[-1] += tail
        lat[-1] += busy - (self.end - self.start)
        return [1000.0 * x for x in lat]

    def _wrap_rollout(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            self.start = perf_counter()
            self.result = fn(*args, **kwargs)
            self.end = perf_counter()
            return self.result
        return probe

    def _wrap_step(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            pose = fn(*args, **kwargs)
            self.marks.append(perf_counter())
            return pose
        return probe

    def _wrap_make_predictor(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            predict = fn(*args, **kwargs)
            calls = [0]

            def sampled(pose, gmap, occ_frame, sem_frame):
                heat = predict(pose, gmap, occ_frame, sem_frame)
                if calls[0] <= self.sample_step:
                    self.captured = (pose, gmap.copy(), sem_frame, heat)
                calls[0] += 1
                return heat
            return sampled
        return probe

    def _wrap_astar(self, fn):
        @functools.wraps(fn)
        def probe(cost, start, goal):
            path = fn(cost, start, goal)
            if self.astar_calls % self.astar_every == self.astar_offset:
                self.searches.append((cost, start, goal, path))
            self.astar_calls += 1
            return path
        return probe

    def unit(self, busy: float, m, key) -> Unit:
        """The finished rollout as a unit, with its obstacle check."""
        result = self.result
        h = hashlib.sha256()
        h.update(np.asarray(result.trajectory, dtype=np.float64).tobytes())
        h.update(",".join(result.actions).encode())
        h.update(struct.pack("<?5d", result.stopped, m.tl, m.ne, m.os_, m.sr, m.spl))
        unit = Unit(self.step_ms(busy), samples=result.steps + result.stopped, key=key,
                    episodes=1, digest=h.digest())
        unit.checks.append(functools.partial(_obstacle_problems, self.plan, result.trajectory))
        return unit


def _obstacle_problems(plan, trajectory) -> list[str]:
    return [f"trajectory pose {j} is inside an obstacle"
            for j in checks.poses_in_obstacles(plan, trajectory)]


class Eval(PoolWorkload):
    """The model's init is fixed, and so is the episode pool; the seed picks
    the order of each pass, the step whose heatmaps are checked and the
    planner searches that are checked. The init decides where the untrained
    heatmaps point, and with that how much planning each step does."""
    ASTAR_EVERY = 10

    def __init__(self, *args):
        super().__init__(*args)
        self.probe = RolloutProbe(self.probes, astar_every=self.ASTAR_EVERY)

    def setup(self):
        self.cfg = _config(self.tiny, budget=3 if self.tiny else 20)
        self.model = CM2Model(self.cfg.model_config(), rng=np.random.default_rng(0))
        seeds = EVAL_POOL[:2] if self.tiny else EVAL_POOL
        self.pool = dataset.generate_split(self.cfg, seeds, EVAL_EPISODE_OFFSET, 1)
        if len(self.pool) != len(seeds):
            raise RuntimeError(f"{len(self.pool)} pool episodes, not {len(seeds)}")

    def unit(self, i):
        position = self.position(i)
        plan, ep = self.pool[position]
        rng = np.random.default_rng([self.seed, 4, i])
        self.probe.begin(plan, sample_step=int(rng.integers(0, self.cfg.budget)),
                         astar_offset=int(rng.integers(0, self.ASTAR_EVERY)))
        t0 = perf_counter()
        m = evaluate.evaluate_episode(self.model, self.cfg, plan, ep)
        busy = perf_counter() - t0
        unit = self.probe.unit(busy, m, position)
        for search in self.probe.searches:
            unit.checks.append(functools.partial(_planner_problems, i, *search))
        unit.late_checks.append(functools.partial(self._grad_mode_problems, i, ep,
                                                  *self.probe.captured))
        return unit

    def _grad_mode_problems(self, i, ep, pose, gmap, sem_frame, heat) -> list[str]:
        """The no_grad heatmaps must match the predictor's forward run in
        grad mode on the same inputs."""
        model, c = self.model, self.model.config
        u = c.heatmap_size
        instr = [model.encode_instruction(np.asarray(ep.tokens))]
        p0, _ = make_gt_heatmaps(world_to_ego(pose, np.array([[ep.start.x, ep.start.y]])),
                                 u, u, self.cfg.sigma)
        occ_in = crop_ego_occupancy(gmap, pose, c.ego_size)[None]
        _, sem_hat, _, _ = model.predict_maps(occ_in, sem_frame[None], instr)
        ref, _, _, _ = model.predict_path(sem_hat, instr, p0[None])
        if not ref.requires_grad:
            return [f"episode {i}: the grad-mode forward built no autodiff graph"]
        if not checks.heatmaps_match(heat, np.asarray(ref.data[0])):
            return [f"episode {i}: no_grad heatmaps differ from the grad-mode forward"]
        return []


def _planner_problems(i, cost, start, goal, path) -> list[str]:
    ok, msg = checks.planner_path_ok(cost, start, goal, path)
    return [] if ok else [f"episode {i}: {msg}"]


# ----------------------------------------------------------------------
class GenData(PoolWorkload):
    """One op is what the gen-data pipeline does per floorplan: its
    ``episodes_per_floorplan`` episodes, their records, and one record file
    written and read back. The floorplans come from a fixed pool; the seed
    picks the order of each pass and the records' sampled time steps."""

    def __init__(self, *args):
        super().__init__(*args)
        self.dir = tempfile.mkdtemp(prefix="gen-data-", dir=self.workdir)
        self.path = os.path.join(self.dir, "records.bin")

    def setup(self):
        self.cfg = _config(self.tiny, episodes_per_floorplan=2 if self.tiny else 10,
                           samples_per_episode=2 if self.tiny else 10)
        self.pool = list(GEN_DATA_POOL[:2] if self.tiny else GEN_DATA_POOL)

    def unit(self, i):
        cfg = self.cfg
        position = self.position(i)
        t0 = perf_counter()
        pairs = dataset.generate_split(cfg, [self.pool[position]], 0,
                                       cfg.episodes_per_floorplan)
        records = dataset.build_dataset(pairs, cfg.samples_per_episode, cfg.k, cfg.ego_size,
                                        self.seed, num_rays=cfg.num_rays,
                                        max_range=cfg.max_range, p_noise=cfg.p_noise)
        dataset.save_records(self.path, records)
        loaded = dataset.load_records(self.path)
        busy = perf_counter() - t0
        with open(self.path, "rb") as fh:
            saved = fh.read()
        unit = Unit([1000.0 * busy], samples=len(records), key=position, episodes=len(pairs),
                    records=len(records), digest=hashlib.sha256(saved).digest())
        unit.checks.append(functools.partial(self._problems, i, len(pairs), records,
                                             loaded, saved))
        return unit

    def _problems(self, i, n_episodes, records, loaded, saved) -> list[str]:
        """Counts as configured; loaded records equal to the saved ones."""
        cfg = self.cfg
        problems = []
        if (n_episodes != cfg.episodes_per_floorplan
                or len(records) != n_episodes * cfg.samples_per_episode):
            problems.append(f"{n_episodes} episodes and {len(records)} records, configured "
                            f"{cfg.episodes_per_floorplan} and "
                            f"{cfg.episodes_per_floorplan * cfg.samples_per_episode}")
        if len(loaded) != len(records):
            problems.append(f"loaded {len(loaded)} of {len(records)} records")
        for a, b in zip(records, loaded):
            same = (a.episode_id == b.episode_id and a.t == b.t and a.pose == b.pose
                    and all(np.array_equal(getattr(a, f), getattr(b, f))
                            for f in ("tokens", "occ_labels", "chi_labels", "sem_labels",
                                      "waypoints_ego", "traversed")))
            if not same:
                problems.append(f"record {a.episode_id}/{a.t} changed in the round trip")
        scratch = self.path + ".check"
        dataset.save_records(scratch, loaded)
        with open(scratch, "rb") as fh:
            if fh.read() != saved:
                problems.append("re-saved records differ from the saved bytes")
        os.remove(scratch)
        return [f"floorplan unit {i}: {p}" for p in problems]

    def close(self):
        super().close()
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"train": Train, "eval": Eval, "gen-data": GenData}
