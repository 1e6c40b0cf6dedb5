"""Training over two batch shards: the same losses, byte for byte, as one
forward over the whole batch; gradients equal to rounding; the same bytes on
the worker and the in-process path; and the worker's lifecycle."""
import os
import subprocess
import sys

import numpy as np
import pytest

import mapnav
from gradcheck import grad_check
from sensing import sensing
from mapnav import numerics as nm
from mapnav.config import RunConfig
from mapnav.errors import UsageError
from mapnav.model import CM2Model
from mapnav.train_eval import assemble_batch, batch_loss, build_dataset, shards, train
from mapnav.worldsim import generate_episode

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mapnav.__file__)))
PATHS = {"in-process": 1, "worker": 2}   # the usable-CPU count that picks each


def small_config(**over):
    base = dict(ego_size=24, d=16, k=5, unet_base=8, unet_depth=3, n_instr_layers=1,
                batch_size=4, train_steps=4, checkpoint_every=0, seed=0)
    base.update(over)
    return RunConfig(**base).validate()


@pytest.fixture(scope="module")
def records(plan):
    eps = [generate_episode(plan, s, episode_id=s) for s in range(2)]
    return build_dataset([(plan, ep) for ep in eps], 4, 5, 24, seed=1, **sensing())


def _cpus(monkeypatch, n):
    monkeypatch.setattr(shards, "usable_cpus", lambda: n)


def _one_graph(monkeypatch):
    """batch_loss over one forward of the whole batch, as without shards."""
    monkeypatch.setattr(shards, "forward", lambda model, mode, inputs:
                        shards.model_forward(model, mode, inputs))


def _loss_and_grads(model, batch, config):
    model.zero_grad()
    loss = batch_loss(model, batch, config)[0]
    value = loss.data.tobytes()
    loss.backward()
    return value, {n: p.grad for n, p in model.params.items() if p.grad is not None}


@pytest.mark.parametrize("path", PATHS)
def test_sharded_loss_equals_one_forward_and_grads_to_rounding(records, monkeypatch, path):
    """The loss of two shards is that of one forward, byte for byte, for an
    even and an odd batch, with and without the map heads; every gradient
    is the one-graph gradient to rounding (measured: ≤ 2.1e-14 of the
    parameter's largest entry at this config, 1.3e-15 at the default)."""
    for mode, bsz in (("cm2", 4), ("cm2", 5), ("cm2-gt", 4)):
        config = small_config(mode=mode)
        model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
        batch = assemble_batch(records[:bsz], config.sigma)
        with monkeypatch.context() as m:
            _one_graph(m)
            want, ref = _loss_and_grads(model, batch, config)
        with monkeypatch.context() as m:
            _cpus(m, PATHS[path])
            got, grads = _loss_and_grads(model, batch, config)
        assert got == want, (mode, bsz)
        assert grads.keys() == ref.keys(), (mode, bsz)
        for name, g in grads.items():
            bound = 1e-12 * np.max(np.abs(ref[name]))
            assert np.max(np.abs(g - ref[name])) <= bound, (mode, bsz, name)


def test_joined_outputs_equal_one_forward_at_the_default_config(plan):
    """What the loss identity rests on, at the default model and B=8: the
    heatmaps, traversal and map outputs of a forward over the batch equal
    those of its two halves joined, byte for byte."""
    config = RunConfig().validate()
    eps = [generate_episode(plan, s, episode_id=s) for s in range(2)]
    recs = build_dataset([(plan, ep) for ep in eps], 4, config.k, config.ego_size, seed=1,
                         **sensing(config))
    occ, chi, sem, _, _, p0, _, tokens = assemble_batch(recs[:8], config.sigma)
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    inputs = (occ, chi, sem, p0, tokens)
    with nm.no_grad():
        whole = shards.model_forward(model, config.mode, inputs)
        halves = [shards.model_forward(model, config.mode, [x[lo:hi] for x in inputs])
                  for lo, hi in ((0, 4), (4, 8))]
    for k, out in enumerate(whole):
        joined = np.concatenate([h[k].data for h in halves])
        assert out.data.tobytes() == joined.tobytes(), k


def test_paths_and_cpu_counts_give_the_same_checkpoint_and_curve(records, tmp_path,
                                                                monkeypatch):
    config = small_config()
    runs = []
    for path, cpus in PATHS.items():
        _cpus(monkeypatch, cpus)
        train(config, records, tmp_path / path)
        runs.append([(tmp_path / path / f).read_bytes() for f in ("model.ckpt",
                                                                  "loss_curve.csv")])
        assert isinstance(shards._SIDE, shards._Worker) == (path == "worker")
    assert runs[0] == runs[1]


@pytest.mark.parametrize("path", PATHS)
def test_gradcheck_through_the_sharded_batch_loss(records, monkeypatch, path):
    _cpus(monkeypatch, PATHS[path])
    config = small_config()
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    batch = assemble_batch(records[:4], config.sigma)
    params = {n: model.params[n] for n in ("enc_o.c0.w", "attn_s.wq", "f.head.b", "xi.w")}
    report = grad_check(lambda: batch_loss(model, batch, config)[0], params,
                        max_entries=2, rng=np.random.default_rng(3))
    assert max(report.values()) < 1e-4, report


@pytest.mark.parametrize("path", PATHS)
def test_backward_after_a_newer_sharded_forward_raises(records, monkeypatch, path):
    _cpus(monkeypatch, PATHS[path])
    config = small_config()
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    batch = assemble_batch(records[:4], config.sigma)
    old = batch_loss(model, batch, config)[0]
    new = batch_loss(model, batch, config)[0]
    with pytest.raises(UsageError, match="newer sharded forward"):
        old.backward()
    model.zero_grad()
    new.backward()
    assert all(p.grad is not None for n, p in model.params.items() if n != "const_h_o")


@pytest.mark.parametrize("path", PATHS)
def test_a_dropped_sharded_loss_does_not_block_the_next_step(records, monkeypatch, path):
    _cpus(monkeypatch, PATHS[path])
    config = small_config()
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    first, second = (assemble_batch(records[lo:lo + 4], config.sigma) for lo in (0, 4))
    _, want = _loss_and_grads(model, second, config)
    batch_loss(model, first, config)   # dropped without a backward
    _, got = _loss_and_grads(model, second, config)
    assert got.keys() == want.keys()
    assert all(got[n].tobytes() == want[n].tobytes() for n in want)


def test_the_worker_persists_and_a_forked_child_forgets_it(records, monkeypatch):
    """Steps reuse one worker. A child forked after a step has none: its
    own sharded step forks its own and gives the same bytes, and the
    parent's worker serves on."""
    import multiprocessing
    _cpus(monkeypatch, 2)
    config = small_config()
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    batch = assemble_batch(records[:4], config.sigma)
    want = _loss_and_grads(model, batch, config)
    pid = shards._SIDE.pid
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_step_in_child, args=(send, model, batch, config))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child sent nothing"
        forgot, loss, grads, child_pid = recv.recv()
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert forgot and child_pid not in (None, pid)
    assert loss == want[0] and grads.keys() == want[1].keys()
    assert all(grads[n].tobytes() == want[1][n].tobytes() for n in grads)
    assert _loss_and_grads(model, batch, config)[0] == want[0]
    assert shards._SIDE.pid == pid


def _step_in_child(conn, model, batch, config):
    forgot = shards._SIDE is None
    loss, grads = _loss_and_grads(model, batch, config)
    conn.send((forgot, loss, grads, getattr(shards._SIDE, "pid", None)))
    conn.close()
    shards.close()   # a multiprocessing child ends without running atexit


def _running(pid) -> bool:
    """Whether ``pid`` is a process that has not exited (not even a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_process_that_exits_leaves_no_worker_running():
    proc = _fresh(
        "import numpy as np\n"
        "from mapnav.config import RunConfig\n"
        "from mapnav.model import CM2Model\n"
        "from mapnav.train_eval import assemble_batch, batch_loss, build_dataset, shards\n"
        "from mapnav.worldsim import generate_episode, generate_floorplan\n"
        "shards.usable_cpus = lambda: 2\n"
        "plan = generate_floorplan(3)\n"
        "cfg = RunConfig(ego_size=24, d=16, k=5, unet_base=8, unet_depth=3,\n"
        "                n_instr_layers=1, batch_size=4).validate()\n"
        "recs = build_dataset([(plan, generate_episode(plan, 0, episode_id=0))], 4, 5, 24, 1,\n"
        "                     num_rays=cfg.num_rays, max_range=cfg.max_range,\n"
        "                     p_noise=cfg.p_noise)\n"
        "model = CM2Model(cfg.model_config())\n"
        "pids = []\n"
        "for _ in range(2):\n"
        "    batch_loss(model, assemble_batch(recs, cfg.sigma), cfg)[0].backward()\n"
        "    pids.append(shards._SIDE.pid)\n"
        "print(*pids)\n")
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert first == second
    assert not _running(first)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_importing_every_module_starts_no_process():
    proc = _fresh(
        "import glob, os, pkgutil, importlib, mapnav\n"
        "for m in pkgutil.walk_packages(mapnav.__path__, 'mapnav.'):\n"
        "    importlib.import_module(m.name)\n"
        "from mapnav.train_eval import shards\n"
        "assert shards._SIDE is None\n"
        "kids = [open(f).read().split() for f in glob.glob('/proc/self/task/*/children')]\n"
        "assert not any(kids), kids\n")
    assert proc.returncode == 0, proc.stderr
