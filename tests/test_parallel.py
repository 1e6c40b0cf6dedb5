"""build_dataset over the records helper: the serial loop's records, byte
for byte, on every path; and the helper's lifecycle."""
import multiprocessing
import os
import signal
import time

import pytest

from sensing import sensing
from mapnav.cli import EXIT_OK, EXIT_WORKER, main
from mapnav.config import RunConfig
from mapnav.errors import WorkerError
from mapnav.numerics import parallel
from mapnav.train_eval import dataset, generate_split, save_records
from mapnav.train_eval.dataset import build_dataset, build_episode_records, episode_rng

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
        assert not parallel._OPEN and (dataset._HELPER is None or dataset._HELPER.closed)
    else:
        assert not dataset._HELPER.closed and dataset._HELPER.forked == forked
        assert (dataset._HELPER.pid is not None) == forked


def test_a_daemonic_process_builds_the_serial_records_in_process(pairs, tmp_path):
    want = build_dataset_reference(pairs, **SETTINGS, **sensing(p_noise=0.2))
    forked, records = _in_child(_build_in_child, pairs, daemon=True)
    assert forked is False
    _assert_same(records, want, tmp_path)


def test_a_child_forked_after_a_build_forgets_the_helper(pairs, tmp_path, monkeypatch):
    """A child forked after build_dataset does not use the parent's helper:
    its own build forks its own and gives the same bytes, and the parent's
    helper serves on."""
    _cpus(monkeypatch, 2)
    want = _build(pairs)
    pid = dataset._HELPER.pid
    forgot, forked, child_pid, records = _in_child(_forget_and_build_in_child, pairs)
    assert forgot and forked and child_pid not in (None, pid)
    _assert_same(records, want, tmp_path)
    _assert_same(_build(pairs), want, tmp_path)
    assert dataset._HELPER.pid == pid


def _in_child(target, pairs, daemon=False):
    """``target(conn, pairs)``'s message, from a forked multiprocessing child."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=target, args=(send, pairs), daemon=daemon)
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
    conn.send((dataset._HELPER.forked, records))
    conn.close()


def _forget_and_build_in_child(conn, pairs):
    forgot = dataset._HELPER.closed
    records = _build(pairs)
    conn.send((forgot, dataset._HELPER.forked, dataset._HELPER.pid, records))
    conn.close()
    parallel.close_all()   # a multiprocessing child ends without running atexit


def test_a_killed_helper_exits_4_and_the_next_call_forks_another(tmp_path, monkeypatch,
                                                                capsys):
    """A records helper killed mid-build fails gen-data with a WorkerError
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
    killed = dataset._HELPER.pid
    assert dataset._HELPER.closed and not parallel._OPEN
    assert (f"records helper (pid {killed}) died with exit status -9 (signal 9)"
            in capsys.readouterr().err)
    with pytest.raises(WorkerError, match="exit status -9"):
        _build(generate_split(RunConfig(), [1000], 0, 2))
    monkeypatch.setattr(dataset, "build_episode_records", build)
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert dataset._HELPER.pid not in (None, killed)
    _cpus(monkeypatch, 1)
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "c")]) == EXIT_OK
    for name in os.listdir(tmp_path / "c"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()
