"""build_dataset, generate_splits and evaluate_navigation over the ordered
map: the serial loop's records, splits and metrics, byte for byte, on every
path; and the map helper's lifecycle."""
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import mapnav
from sensing import sensing
from mapnav.cli import EXIT_OK, EXIT_WORKER, main
from mapnav.config import RunConfig
from mapnav.errors import WorkerError
from mapnav.model import CM2Model
from mapnav.numerics import parallel
from mapnav.train_eval import dataset, generate_split, generate_splits, save_records
from mapnav.train_eval.dataset import build_dataset, build_episode_records, episode_rng
from mapnav.train_eval.evaluate import evaluate_episode, evaluate_navigation
from mapnav.train_eval.metrics import aggregate_nav
from mapnav.worldsim.episodes import episode_to_json

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mapnav.__file__)))
SETTINGS = dict(samples_per_episode=4, k=5, ego_size=24, seed=7)
FIELDS = ("tokens", "occ_labels", "chi_labels", "sem_labels", "waypoints_ego", "traversed")


def build_dataset_reference(pairs, samples_per_episode, k, ego_size, seed, **sensing):
    """The serial loop: every episode's records, in order, in this process."""
    records = []
    for plan, episode in pairs:
        records += build_episode_records(plan, episode, samples_per_episode, k, ego_size,
                                         episode_rng(seed, episode), **sensing)
    return records


@pytest.fixture(scope="module")
def pairs():
    """Six episodes on three floorplans."""
    got = generate_split(RunConfig(), range(1000, 1003), 0, 2)
    assert len(got) == 6
    return got


def _build(pairs):
    return build_dataset(pairs, **SETTINGS, **sensing(p_noise=0.2))


def _assert_same(got, want, tmp_path):
    """Record for record, field for field with its dtype, and in the bytes
    save_records writes."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.episode_id, a.t, a.pose) == (b.episode_id, b.t, b.pose)
        for f in FIELDS:
            x, y = getattr(a, f), getattr(b, f)
            assert x.dtype == y.dtype and x.shape == y.shape, f
            assert x.tobytes() == y.tobytes(), (a.episode_id, a.t, f)
    save_records(tmp_path / "got.bin", got)
    save_records(tmp_path / "want.bin", want)
    assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()


def _cpus(monkeypatch, n):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


@pytest.mark.parametrize("cpus, n, forked", [(2, 6, True), (1, 6, False), (2, 5, True),
                                             (2, 1, None), (2, 0, None)],
                         ids=["helper", "one-cpu", "odd", "one-pair", "none"])
def test_build_dataset_equals_the_serial_loop(pairs, tmp_path, monkeypatch, cpus, n, forked):
    """``forked``: whether the helper ran in a forked process, or None if
    no helper was needed."""
    _cpus(monkeypatch, cpus)
    got = _build(pairs[:n])
    _assert_same(got, build_dataset_reference(pairs[:n], **SETTINGS, **sensing(p_noise=0.2)),
                 tmp_path)
    if forked is None:
        assert not parallel._OPEN and (parallel._HELPER is None or parallel._HELPER.closed)
    else:
        assert not parallel._HELPER.closed and parallel._HELPER.forked == forked
        assert (parallel._HELPER.pid is not None) == forked


def generate_splits_reference(config) -> dict:
    """Each split from one serial generate_split call over its floorplans."""
    def eval_split(seeds, episode_offset):
        seeds = seeds[:config.eval_episodes]
        per_plan = -(-config.eval_episodes // max(1, len(seeds)))
        return generate_split(config, seeds, episode_offset, per_plan)[:config.eval_episodes]

    train_seeds = range(config.num_floorplans)
    return {"train": generate_split(config, train_seeds, 0, config.episodes_per_floorplan),
            "seen": eval_split(train_seeds, 1000),
            "unseen": eval_split(range(config.num_floorplans,
                                       config.num_floorplans + config.heldout_floorplans), 2000)}


@pytest.mark.parametrize("cpus, forked", [(2, True), (1, False)], ids=["helper", "one-cpu"])
@pytest.mark.parametrize("plans, heldout, n_eval", [(3, 2, 2), (2, 1, 5), (1, 0, 3)])
def test_generate_splits_equals_the_serial_loop(monkeypatch, cpus, forked, plans, heldout,
                                                n_eval):
    """Every split's floorplans and episodes, in order, with more floorplans
    than evaluation episodes, fewer, and no held-out floorplan."""
    _cpus(monkeypatch, cpus)
    config = RunConfig(num_floorplans=plans, heldout_floorplans=heldout,
                       episodes_per_floorplan=2, eval_episodes=n_eval)

    def flat(splits):
        return {name: [(plan.seed, plan.grid.tobytes(), episode_to_json(ep))
                       for plan, ep in pairs] for name, pairs in splits.items()}

    assert flat(generate_splits(config)) == flat(generate_splits_reference(config))
    assert parallel._HELPER.forked == forked


def test_a_daemonic_process_builds_the_serial_records_in_process(pairs, tmp_path):
    want = build_dataset_reference(pairs, **SETTINGS, **sensing(p_noise=0.2))
    forked, records = _in_child(_build_in_child, pairs, daemon=True)
    assert forked is False
    _assert_same(records, want, tmp_path)


@pytest.fixture(scope="module")
def evaluated(pairs):
    """A small untrained model, its run config, and the NavMetrics of a
    serial in-process loop over ``evaluate_episode`` on ``pairs``."""
    config = RunConfig(ego_size=24, d=16, k=5, unet_base=8, unet_depth=3, n_instr_layers=1,
                       budget=10).validate()
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    return model, config, [evaluate_episode(model, config, *pair) for pair in pairs]


@pytest.mark.parametrize("cpus, n, forked", [(2, 6, True), (1, 6, False), (2, 5, True),
                                             (2, 1, None), (2, 0, None)],
                         ids=["helper", "one-cpu", "odd", "one-pair", "none"])
def test_evaluate_navigation_equals_the_serial_loop(pairs, evaluated, monkeypatch, cpus, n,
                                                    forked):
    """Every episode's NavMetrics, in order, and the aggregate. ``forked``:
    whether the helper ran in a forked process, or None if no helper was
    needed."""
    model, config, serial = evaluated
    _cpus(monkeypatch, cpus)
    per_episode, agg = evaluate_navigation(model, config, pairs[:n])
    assert per_episode == serial[:n]
    assert agg == aggregate_nav(serial[:n])
    if forked is None:
        assert not parallel._OPEN and (parallel._HELPER is None or parallel._HELPER.closed)
    else:
        assert not parallel._HELPER.closed and parallel._HELPER.forked == forked


def test_a_daemonic_process_evaluates_the_serial_loop_in_process(pairs, evaluated):
    model, config, serial = evaluated
    forked, per_episode = _in_child(_evaluate_in_child, (model, config, pairs), daemon=True)
    assert forked is False and per_episode == serial


def test_a_child_forked_after_a_build_forgets_the_helper(pairs, tmp_path, monkeypatch):
    """A child forked after build_dataset does not use the parent's helper:
    its own build forks its own and gives the same bytes, and the parent's
    helper serves on."""
    _cpus(monkeypatch, 2)
    want = _build(pairs)
    pid = parallel._HELPER.pid
    forgot, forked, child_pid, records = _in_child(_forget_and_build_in_child, pairs)
    assert forgot and forked and child_pid not in (None, pid)
    _assert_same(records, want, tmp_path)
    _assert_same(_build(pairs), want, tmp_path)
    assert parallel._HELPER.pid == pid


def _in_child(target, arg, daemon=False):
    """``target(conn, arg)``'s message, from a forked multiprocessing child."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=target, args=(send, arg), daemon=daemon)
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child sent nothing"
        got = recv.recv()
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    return got


def _build_in_child(conn, pairs):
    records = _build(pairs)
    conn.send((parallel._HELPER.forked, records))
    conn.close()


def _evaluate_in_child(conn, args):
    per_episode, _ = evaluate_navigation(*args)
    conn.send((parallel._HELPER.forked, per_episode))
    conn.close()


def _forget_and_build_in_child(conn, pairs):
    forgot = parallel._HELPER.closed
    records = _build(pairs)
    conn.send((forgot, parallel._HELPER.forked, parallel._HELPER.pid, records))
    conn.close()
    parallel.close_all()   # a multiprocessing child ends without running atexit


def test_a_killed_helper_exits_4_and_the_next_call_forks_another(tmp_path, monkeypatch,
                                                                capsys):
    """A map helper killed mid-build fails gen-data with a WorkerError
    naming its exit status, at once; the next call forks a new helper and
    writes the same files as a run that was never interrupted."""
    _cpus(monkeypatch, 2)
    config = tmp_path / "config.json"
    RunConfig(ego_size=24, k=5, num_floorplans=2, heldout_floorplans=1,
              episodes_per_floorplan=2, samples_per_episode=2, eval_episodes=2).save(config)
    caller, build = os.getpid(), dataset.build_episode_records

    def killing(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return build(*args, **kwargs)

    monkeypatch.setattr(dataset, "build_episode_records", killing)
    t0 = time.monotonic()
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "a")]) \
        == EXIT_WORKER
    assert time.monotonic() - t0 < 30
    killed = parallel._HELPER.pid
    assert parallel._HELPER.closed and not parallel._OPEN
    assert (f"map helper (pid {killed}) died with exit status -9 (signal 9)"
            in capsys.readouterr().err)
    with pytest.raises(WorkerError, match="exit status -9"):
        _build(generate_split(RunConfig(), [1000], 0, 2))
    monkeypatch.setattr(dataset, "build_episode_records", build)
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert parallel._HELPER.pid not in (None, killed)
    _cpus(monkeypatch, 1)
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "c")]) == EXIT_OK
    for name in os.listdir(tmp_path / "c"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def test_a_script_without_a_main_guard_evaluates(tmp_path):
    """evaluate_navigation forks its helper, which imports nothing again, so
    a script that calls it at top level runs and exits."""
    script = tmp_path / "evaluate_two.py"
    script.write_text(
        "import numpy as np\n"
        "from mapnav.config import RunConfig\n"
        "from mapnav.model import CM2Model\n"
        "from mapnav.numerics import parallel\n"
        "from mapnav.train_eval import evaluate_navigation, generate_split\n"
        "parallel.usable_cpus = lambda: 2\n"
        "cfg = RunConfig(ego_size=24, d=16, k=5, unet_base=8, unet_depth=3,\n"
        "                n_instr_layers=1, budget=5).validate()\n"
        "model = CM2Model(cfg.model_config(), rng=np.random.default_rng(0))\n"
        "per_episode, _ = evaluate_navigation(model, cfg, generate_split(cfg, [1000], 0, 2))\n"
        "assert len(per_episode) == 2 and parallel._HELPER.forked\n")
    proc = subprocess.run([sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
