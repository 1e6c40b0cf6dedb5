import dataclasses
import json
import os

import numpy as np
import pytest

from mapnav.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_WORKER, main
from mapnav.config import RunConfig


def tiny_config(**over):
    base = dict(ego_size=24, d=16, k=5, unet_base=8, unet_depth=3,
                n_instr_layers=1, batch_size=4, train_steps=6,
                checkpoint_every=0, num_floorplans=2, heldout_floorplans=1,
                episodes_per_floorplan=2, samples_per_episode=2,
                eval_episodes=2, budget=30, seed=0)
    base.update(over)
    return RunConfig(**base).validate()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One gen-data + train run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    tiny_config().save(cfg_path)
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == EXIT_OK
    assert main(["train", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(run)]) == EXIT_OK
    return {"root": root, "config": cfg_path, "data": data, "run": run}


# ----------------------------------------------------------------- gen-data
def test_gen_data_outputs(workdir):
    data = workdir["data"]
    for name in ("train_episodes.jsonl", "seen_episodes.jsonl",
                 "unseen_episodes.jsonl", "train_records.bin",
                 "unseen_records.bin", "config.json"):
        assert (data / name).exists(), name
    assert not (data / ".partial").exists()
    from mapnav.train_eval import load_records
    records = load_records(data / "train_records.bin")
    n_eps = len((data / "train_episodes.jsonl").read_text().splitlines())
    assert len(records) == 2 * n_eps  # samples_per_episode = 2


def test_gen_data_byte_reproducible(workdir, tmp_path):
    rerun = tmp_path / "data2"
    assert main(["gen-data", "--config", str(workdir["config"]),
                 "--out", str(rerun)]) == EXIT_OK
    for name in os.listdir(workdir["data"]):
        a = (workdir["data"] / name).read_bytes()
        b = (rerun / name).read_bytes()
        assert a == b, name


def test_gen_data_corrupt_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not_a_field": 1}')
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()  # no partial output
    assert "error" in capsys.readouterr().err


def test_gen_data_missing_config(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE


# -------------------------------------------------------------------- train
def test_train_outputs(workdir):
    assert (workdir["run"] / "model.ckpt").exists()
    curve = (workdir["run"] / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "step,loss,loss_wp,loss_m"
    assert len(curve) == 1 + 6  # header + train_steps rows


def test_killed_shard_worker_exits_4_and_the_next_step_forks_another(workdir, tmp_path,
                                                                     monkeypatch, capsys):
    """A shard worker killed between two steps fails the run with a
    WorkerError naming its exit status, at once; the next run's first step
    forks a new worker."""
    import signal
    import time
    from mapnav.numerics import parallel
    from mapnav.train_eval import shards, training
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assemble, calls, killed = training.assemble_batch, [], []

    def killing(records, sigma):
        calls.append(len(records))
        if len(calls) == 2:   # after the first step
            killed.append(shards._SIDE.helper.pid)
            os.kill(killed[0], signal.SIGKILL)
        return assemble(records, sigma)

    args = ["train", "--config", str(workdir["config"]), "--data", str(workdir["data"])]
    monkeypatch.setattr(training, "assemble_batch", killing)
    t0 = time.monotonic()
    assert main(args + ["--out", str(tmp_path / "killed")]) == EXIT_WORKER
    assert time.monotonic() - t0 < 30
    assert len(calls) == 2 and shards._SIDE.helper.closed
    assert f"(pid {killed[0]}) died with exit status -9 (signal 9)" in capsys.readouterr().err
    monkeypatch.setattr(training, "assemble_batch", assemble)
    assert main(args + ["--out", str(tmp_path / "again")]) == EXIT_OK
    assert shards._SIDE.helper.pid != killed[0]


def test_train_missing_data(workdir, tmp_path):
    assert main(["train", "--config", str(workdir["config"]),
                 "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_train_with_zero_steps_writes_the_untrained_model(workdir, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    config = tiny_config(train_steps=0)
    config.save(cfg_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(workdir["data"]),
                 "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "trained 0 steps" in printed and "final loss" not in printed
    assert (out / "loss_curve.csv").read_text().splitlines() == ["step,loss,loss_wp,loss_m"]
    from mapnav.model import CM2Model
    saved = CM2Model.load(out / "model.ckpt")
    fresh = CM2Model(config.model_config(), rng=np.random.default_rng(config.seed))
    assert saved.params.keys() == fresh.params.keys()
    assert all(np.array_equal(saved.params[n].data, p.data) for n, p in fresh.params.items())


# --------------------------------------------------------------------- eval
def test_eval_writes_metrics(workdir, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = main(["eval", "--config", str(workdir["config"]),
                 "--ckpt", str(workdir["run"] / "model.ckpt"),
                 "--data", str(workdir["data"]), "--split", "unseen",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = [l for l in out.read_text().splitlines() if l]
    n_eps = len((workdir["data"] / "unseen_episodes.jsonl").read_text().splitlines())
    assert lines[0] == "episode,TL,NE,OS,SR,SPL"
    assert len(lines) == 1 + n_eps + 1  # header + rows + aggregate
    assert lines[-1].startswith("aggregate")
    assert "PCW" in capsys.readouterr().out


def test_a_killed_map_helper_exits_4_and_the_next_eval_forks_another(
        workdir, tmp_path, monkeypatch, capsys):
    """A map helper killed mid-rollout fails eval with a WorkerError naming
    its exit status, at once; the next call forks a new helper and writes
    the metrics of an in-process run."""
    import signal
    import time
    from mapnav.numerics import parallel
    from mapnav.train_eval import evaluate
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    caller, rollout = os.getpid(), evaluate.evaluate_episode

    def killing(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return rollout(*args, **kwargs)

    monkeypatch.setattr(evaluate, "evaluate_episode", killing)
    args = ["eval", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
            "--ckpt", str(workdir["run"] / "model.ckpt"), "--split", "seen", "--out"]
    t0 = time.monotonic()
    assert main(args + [str(tmp_path / "killed.csv")]) == EXIT_WORKER
    assert time.monotonic() - t0 < 30
    killed = parallel._HELPER.pid
    assert parallel._HELPER.closed and not parallel._OPEN
    assert (f"map helper (pid {killed}) died with exit status -9 (signal 9)"
            in capsys.readouterr().err)
    monkeypatch.setattr(evaluate, "evaluate_episode", rollout)
    assert main(args + [str(tmp_path / "forked.csv")]) == EXIT_OK
    assert parallel._HELPER.pid not in (None, killed)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert main(args + [str(tmp_path / "in-process.csv")]) == EXIT_OK
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "in-process.csv").read_bytes()


def test_eval_missing_checkpoint(workdir, tmp_path):
    assert main(["eval", "--config", str(workdir["config"]),
                 "--ckpt", str(tmp_path / "none.ckpt"),
                 "--data", str(workdir["data"])]) == EXIT_USAGE


def test_eval_truncated_checkpoint(workdir, tmp_path, capsys):
    blob = (workdir["run"] / "model.ckpt").read_bytes()
    bad = tmp_path / "cut.ckpt"
    bad.write_bytes(blob[:len(blob) // 2])
    assert main(["eval", "--config", str(workdir["config"]), "--ckpt", str(bad),
                 "--data", str(workdir["data"])]) == EXIT_USAGE
    assert "truncated or corrupt checkpoint" in capsys.readouterr().err


def test_eval_checkpoint_with_extra_tensor(workdir, tmp_path, capsys):
    import numpy as np
    from mapnav.numerics import load_checkpoint, save_checkpoint
    params, cfg = load_checkpoint(workdir["run"] / "model.ckpt")
    bad = tmp_path / "extra.ckpt"
    save_checkpoint(bad, dict(params, **{"bogus.w": np.zeros((2, 3))}), config=cfg)
    assert main(["eval", "--config", str(workdir["config"]), "--ckpt", str(bad),
                 "--data", str(workdir["data"]), "--out", str(tmp_path / "m.csv")]) == EXIT_USAGE
    assert "unexpected 'bogus.w'" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("bad, message", [({"bogus": 1}, "unknown config keys: ['bogus']"),
                                          ({"d": "16"}, "d must be int"),
                                          ({"k": True}, "k must be int"),
                                          ({"d": None}, "missing config keys: ['d']")],
                         ids=["unknown-key", "str-for-int", "bool-for-int", "missing-key"])
def test_eval_checkpoint_with_bad_model_config(workdir, tmp_path, capsys, bad, message):
    from mapnav.numerics import load_checkpoint, save_checkpoint
    params, cfg = load_checkpoint(workdir["run"] / "model.ckpt")
    ckpt = tmp_path / "bad.ckpt"
    config = {k: v for k, v in dict(cfg, **bad).items() if v is not None}   # None drops a key
    save_checkpoint(ckpt, params, config=config)
    assert main(["eval", "--config", str(workdir["config"]), "--ckpt", str(ckpt),
                 "--data", str(workdir["data"]), "--out", str(tmp_path / "m.csv")]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_config_disagreeing_with_checkpoint_is_rejected(workdir, tmp_path, capsys):
    other = tmp_path / "k7.json"
    tiny_config(k=7, d=32).save(other)
    ckpt = str(workdir["run"] / "model.ckpt")
    episodes = str(workdir["data"] / "unseen_episodes.jsonl")
    ep_id = str(first_episode_id(workdir))
    for argv in (["eval", "--data", str(workdir["data"]), "--out", str(tmp_path / "m.csv")],
                 ["rollout", "--episodes", episodes, "--episode", ep_id,
                  "--trace", str(tmp_path / "t.jsonl")],
                 ["viz", "--episodes", episodes, "--episode", ep_id,
                  "--out", str(tmp_path / "img")]):
        assert main(argv + ["--config", str(other), "--ckpt", ckpt]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "k (config 7, checkpoint 5)" in err and "d (config 32, checkpoint 16)" in err
    for made in ("m.csv", "t.jsonl", "img"):
        assert not (tmp_path / made).exists()


def test_checkpoint_without_config_uses_its_model(workdir, tmp_path, monkeypatch):
    """Without --config, eval and rollout take the model fields (ego 24 here,
    not the default 48) from the checkpoint and sense at its ego size. The
    default config is given a 30-step budget to keep the rollouts short."""
    import mapnav.cli as cli
    monkeypatch.setattr(cli, "_load_config", lambda path: RunConfig(budget=30).validate())
    ckpt = str(workdir["run"] / "model.ckpt")
    out, trace = tmp_path / "m.csv", tmp_path / "t.jsonl"
    assert main(["eval", "--ckpt", ckpt, "--data", str(workdir["data"]),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[-1].startswith("aggregate")
    assert main(["rollout", "--ckpt", ckpt,
                 "--episodes", str(workdir["data"] / "unseen_episodes.jsonl"),
                 "--episode", str(first_episode_id(workdir)),
                 "--trace", str(trace)]) == EXIT_OK
    assert trace.read_text().splitlines()


# ----------------------------------------------------------- rollout + viz
def first_episode_id(workdir):
    line = (workdir["data"] / "unseen_episodes.jsonl").read_text().splitlines()[0]
    return json.loads(line)["id"]


def test_rollout_and_viz(workdir, tmp_path):
    ep_id = first_episode_id(workdir)
    trace = tmp_path / "trace.jsonl"
    episodes = workdir["data"] / "unseen_episodes.jsonl"
    code = main(["rollout", "--config", str(workdir["config"]),
                 "--ckpt", str(workdir["run"] / "model.ckpt"),
                 "--episodes", str(episodes), "--episode", str(ep_id),
                 "--trace", str(trace)])
    assert code == EXIT_OK
    rows = [json.loads(l) for l in trace.read_text().splitlines()]
    assert rows and all("action" in r and "pose" in r for r in rows)

    imgdir = tmp_path / "imgs"
    viz = ["viz", "--config", str(workdir["config"]),
           "--ckpt", str(workdir["run"] / "model.ckpt"),
           "--episodes", str(episodes), "--episode", str(ep_id), "--out", str(imgdir)]
    assert main(viz) == EXIT_OK
    maps = [f for f in os.listdir(imgdir) if f.endswith("-map.ppm")]
    assert len(maps) == len(rows)  # one image set per traced step
    assert any(f.endswith("-features.pgm") for f in os.listdir(imgdir))
    with pytest.raises(SystemExit) as exc:   # viz takes no trace: it re-runs the rollout
        main(viz + ["--trace", str(trace)])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("over", [{}, {"mode": "cm2-gt"}, {"p_noise": 0.2}],
                         ids=["cm2", "cm2-gt", "p_noise"])
def test_viz_replay_equals_rollout(workdir, tmp_path, monkeypatch, over):
    """viz re-runs the episode through run_rollout: at every traced step the
    final heatmap it renders peaks at the trace's stop confidence."""
    import mapnav.viz as viz
    config = tmp_path / "config.json"
    tiny_config(**over).save(config)
    common = ["--config", str(config), "--ckpt", str(workdir["run"] / "model.ckpt"),
              "--episodes", str(workdir["data"] / "unseen_episodes.jsonl"),
              "--episode", str(first_episode_id(workdir))]
    assert main(["rollout"] + common + ["--trace", str(tmp_path / "t.jsonl")]) == EXIT_OK
    peaks = []
    decode = viz.decode_waypoints
    monkeypatch.setattr(viz, "decode_waypoints",
                        lambda heat: peaks.append(float(heat[-1].max())) or decode(heat))
    assert main(["viz"] + common + ["--out", str(tmp_path / "img")]) == EXIT_OK
    rows = [json.loads(l) for l in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert peaks == [r["stop_conf"] for r in rows]


def export_rollout_reference(trace_path, model, config, plan, episode, out_dir):
    """The former viz: replay a rollout trace, sensing and running the model
    again at each traced pose with the episode's rng, and write the same
    per-step image sets as ``export_rollout``."""
    from mapnav.controller import decode_waypoints
    from mapnav.mapping import new_global_occupancy, sense
    from mapnav.train_eval.dataset import episode_rng
    from mapnav.train_eval.evaluate import episode_forward
    from mapnav.viz import attention_images, rollout_frame, write_pgm, write_ppm
    from mapnav.worldsim.agent import Pose
    os.makedirs(out_dir, exist_ok=True)
    with open(trace_path) as fh:
        steps = [json.loads(line) for line in fh if line.strip()]
    forward = episode_forward(model, config, plan, episode)
    rng = episode_rng(config.seed, episode)
    gmap = new_global_occupancy(plan.grid.shape[0])
    for row in steps:
        t = row["t"]
        pose = Pose(*row["pose"])
        sem_frame = sense(plan, pose, gmap, config.ego_size, config.num_rays,
                          config.max_range, config.p_noise, rng)
        out = forward(pose, gmap, sem_frame)
        sem_labels = np.asarray(out.sem.data[0]).argmax(axis=0)
        decoded = decode_waypoints(np.asarray(out.heatmaps.data[0]))
        frame = rollout_frame(plan, pose, tuple(episode.goal), sem_labels, decoded)
        write_ppm(os.path.join(out_dir, f"step{t:04d}-map.ppm"), frame)
        pooled = np.asarray(out.h_grid.data[0]).mean(axis=0)
        write_pgm(os.path.join(out_dir, f"step{t:04d}-features.pgm"), pooled)
        for name, amap in attention_images(out.attn[0], episode.tokens,
                                           model.config.token_grid):
            write_pgm(os.path.join(out_dir, f"step{t:04d}-attn-{name}.pgm"), amap)
    return len(steps)


@pytest.mark.parametrize("over", [{}, {"mode": "cm2-gt"}, {"p_noise": 0.2}],
                         ids=["cm2", "cm2-gt", "p_noise"])
def test_viz_writes_the_reference_replay_of_the_rollout_trace(workdir, tmp_path, over):
    """export_rollout writes the file names and bytes that replaying the
    rollout's trace writes."""
    from mapnav.model import CM2Model
    from mapnav.train_eval.evaluate import evaluate_episode
    from mapnav.viz import export_rollout
    from mapnav.worldsim.episodes import load_episodes
    from mapnav.worldsim.floorplan import generate_floorplan
    config = tiny_config(**over)
    model = CM2Model.load(workdir["run"] / "model.ckpt")
    episode = load_episodes(workdir["data"] / "unseen_episodes.jsonl")[0]
    plan = generate_floorplan(episode.floorplan_seed, config.world_size)
    trace = tmp_path / "t.jsonl"
    evaluate_episode(model, config, plan, episode, trace_path=trace)   # what `rollout` runs
    want, got = tmp_path / "reference", tmp_path / "viz"
    n = export_rollout_reference(trace, model, config, plan, episode, want)
    assert export_rollout(model, config, plan, episode, got) == n
    names = sorted(os.listdir(want))
    assert sorted(os.listdir(got)) == names and len(names) > 2 * n
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_rollout_unknown_episode(workdir, tmp_path):
    assert main(["rollout", "--config", str(workdir["config"]),
                 "--ckpt", str(workdir["run"] / "model.ckpt"),
                 "--episodes", str(workdir["data"] / "unseen_episodes.jsonl"),
                 "--episode", "999999999",
                 "--trace", str(tmp_path / "t.jsonl")]) == EXIT_USAGE


def test_rollout_generates_only_its_episodes_floorplan(workdir, tmp_path, monkeypatch):
    """rollout finds its episode in a file of three floorplans and generates
    that floorplan alone; an unknown id generates none and exits 2."""
    import mapnav.worldsim.floorplan as floorplan
    from mapnav.train_eval import generate_split
    from mapnav.worldsim.episodes import save_episodes
    pairs = generate_split(tiny_config(), range(300, 303), 2000, 1)
    assert len({ep.floorplan_seed for _, ep in pairs}) == 3
    episodes = tmp_path / "episodes.jsonl"
    save_episodes(episodes, [ep for _, ep in pairs])
    made, generate = [], floorplan.generate_floorplan
    monkeypatch.setattr(floorplan, "generate_floorplan",
                        lambda seed, size: made.append(seed) or generate(seed, size))
    args = ["rollout", "--config", str(workdir["config"]),
            "--ckpt", str(workdir["run"] / "model.ckpt"), "--episodes", str(episodes),
            "--trace", str(tmp_path / "t.jsonl"), "--episode"]
    assert main(args + [str(pairs[1][1].episode_id)]) == EXIT_OK
    assert made == [pairs[1][1].floorplan_seed]
    made.clear()
    assert main(args + ["999999999"]) == EXIT_USAGE
    assert made == []


# ------------------------------------------------------------------- config
def test_config_round_trip(tmp_path):
    cfg = tiny_config(mode="cm2-gt", tau=1.5)
    path = tmp_path / "c.json"
    cfg.save(path)
    assert RunConfig.load(path) == cfg


def test_config_seed_env_override(tmp_path, monkeypatch, capsys):
    """The CLI applies CM2_SEED to the config it loads, with or without
    ``--config``; a RunConfig itself reads no environment."""
    from mapnav.cli import _load_config
    path = tmp_path / "c.json"
    tiny_config(seed=3).save(path)
    monkeypatch.setenv("CM2_SEED", "77")
    assert RunConfig().seed == 0
    assert _load_config(None).seed == 77
    assert _load_config(str(path)) == dataclasses.replace(tiny_config(), seed=77)
    out = tmp_path / "data"
    small = tiny_config(num_floorplans=1, episodes_per_floorplan=1, eval_episodes=1)
    small.save(path)
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert RunConfig.load(out / "config.json") == dataclasses.replace(small, seed=77)
    monkeypatch.setenv("CM2_SEED", "seven")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert "CM2_SEED must be an integer, got 'seven'" in capsys.readouterr().err


def test_config_rejects_invalid():
    from mapnav.errors import ConfigError
    with pytest.raises(ConfigError):
        tiny_config(mode="bogus")
    with pytest.raises(ConfigError):
        tiny_config(ego_size=25)
    with pytest.raises(ConfigError):
        tiny_config(eval_episodes=0)  # an evaluation split holds eval_episodes episodes
    tiny_config(num_floorplans=0, heldout_floorplans=0)  # no floorplan of a split is legal
    for field in ("episodes_per_floorplan", "samples_per_episode"):
        for value in (0, -1):  # no training records, or a raw numpy error
            with pytest.raises(ConfigError):
                tiny_config(**{field: value})
    # a raw numpy error in sensing, or a NaN loss from flat heatmaps
    for field, value in (("max_range", 0.0), ("max_range", -1.0), ("max_range", float("nan")),
                         ("num_rays", 0), ("sigma", 0.0), ("sigma", -1.0),
                         # an IndexError, a ZeroDivisionError, or no instruction layers
                         ("unet_depth", 0), ("unet_base", 0), ("n_instr_layers", -1),
                         # a non-optimal plan, a rollout that never stops, or one that always does
                         ("unknown_cost", 0.5), ("unknown_cost", float("nan")),
                         ("tau", 0.0), ("tau", float("nan")), ("gamma", 1.5),
                         # a rollout of no step, or metrics that fail every episode
                         ("budget", 0), ("budget", -3),
                         ("success_radius", float("nan")), ("success_radius", -1.0)):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value})


def test_model_config_carries_every_shared_field():
    from mapnav.model import ModelConfig
    changed = dict(ego_size=16, d=32, k=4, n_instr_layers=1, unet_base=8, unet_depth=2,
                   sigma=1.5, use_map_attention=False, use_start_heatmap=False)
    shared = ({f.name for f in dataclasses.fields(RunConfig)}
              & {f.name for f in dataclasses.fields(ModelConfig)})
    assert set(changed) == shared
    defaults = dataclasses.asdict(RunConfig().model_config())
    assert all(defaults[name] != value for name, value in changed.items())
    got = RunConfig(**changed).validate().model_config()
    assert dataclasses.asdict(got) == {**defaults, **changed}


def test_run_settings_have_one_default():
    """RunConfig holds the only default of every run setting: each library
    function, and ModelConfig, that takes one requires it."""
    import inspect
    from mapnav import cli, controller, mapping
    from mapnav.language import encoder
    from mapnav.model import ModelConfig, losses, supervision
    from mapnav.numerics import optim
    from mapnav.train_eval import ablations, training
    from mapnav.worldsim import agent, floorplan
    required = {
        agent.raycast: ("num_rays", "max_range", "p_noise"),
        mapping.ground_project: ("size",),
        mapping.crop_ego_occupancy: ("size",),
        mapping.crop_ego_semantic: ("size",),
        optim.Adam: ("lr",),
        supervision.make_gt_heatmaps: ("sigma",),
        losses.loss_waypoint: ("lambda_aux",),
        losses.loss_total: ("lambda_wp", "lambda_m"),
        controller.plan_local: ("unknown_cost",),
        encoder.init_instruction_params: ("n_layers",),
        encoder.encode_instruction: ("n_layers",),
        floorplan.generate_floorplan: ("size",),
        cli._load_pairs: ("world_size",),
        ablations.train_variants: ("seeds",),
    }
    for fn, names in required.items():
        params = inspect.signature(fn).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, (fn.__qualname__, name)
    assert "steps" not in inspect.signature(training.train).parameters
    shared = ({f.name for f in dataclasses.fields(RunConfig)}
              & {f.name for f in dataclasses.fields(ModelConfig)})
    assert len(shared) == 9
    for f in dataclasses.fields(ModelConfig):
        if f.name in shared:
            assert f.default is dataclasses.MISSING, f.name
    for module, name in ((agent, "DEFAULT_NUM_RAYS"), (agent, "DEFAULT_MAX_RANGE"),
                         (mapping, "DEFAULT_EGO_SIZE"), (optim, "AdamState")):
        assert not hasattr(module, name), name


@pytest.mark.parametrize("field, value", [("episodes_per_floorplan", 0),
                                          ("samples_per_episode", 0),
                                          ("samples_per_episode", -1),
                                          ("max_range", -1.0),
                                          ("num_rays", 0),
                                          ("sigma", 0.0),
                                          ("d", "x"),
                                          ("lr", None),
                                          ("seed", "1"),
                                          # held-out seeds below 0: a raw numpy error
                                          ("num_floorplans", -3),
                                          # an empty unseen split, silently
                                          ("heldout_floorplans", -1)])
def test_gen_data_rejects_empty_dataset_config(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.json"
    dataclasses.replace(tiny_config(), **{field: value}).save(bad)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--seeds", "0"], ["--suite", "full,no-pO"]],
                         ids=["no-seeds", "unknown-variant"])
def test_ablate_rejects_bad_arguments(workdir, tmp_path, capsys, argv):
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                 "--out", str(out)] + argv) == EXIT_USAGE
    assert argv[0] in capsys.readouterr().err
    assert not out.exists()  # nothing trained


def test_ablate_default_suite_trains_and_evaluates_every_variant(workdir, tmp_path):
    """Every variant, ``lambda-xi-0`` among them, trains over two batch
    shards and is evaluated; the full model's first seed also runs the tau
    sweep."""
    from mapnav.train_eval.ablations import TAU_SWEEP, VARIANTS
    cfg_path = tmp_path / "config.json"
    tiny_config(train_steps=2, budget=10).save(cfg_path)
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(cfg_path), "--data", str(workdir["data"]),
                 "--out", str(out), "--seeds", "1"]) == EXIT_OK
    rows = (out / "ablations.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == (list(VARIANTS)
                                              + [f"tau-{t}" for t in TAU_SWEEP])


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_WORKER) == (0, 2, 3, 4)


def test_the_cli_runs_one_blas_thread_unless_told_otherwise():
    """Run before numpy loads, ``main`` sets each BLAS thread-count variable
    the caller left unset to 1, and keeps one the caller set."""
    import subprocess
    import sys
    import mapnav
    src = os.path.dirname(os.path.dirname(os.path.abspath(mapnav.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in mapnav.BLAS_THREAD_VARS}
    env.update(PYTHONPATH=src, OMP_NUM_THREADS="3")
    code = ("import os, sys\n"
            "from mapnav.cli import EXIT_USAGE, main\n"
            "assert 'numpy' not in sys.modules\n"
            "assert main(['train', '--data', 'none', '--out', 'none']) == EXIT_USAGE\n"
            "print(*(os.environ[k] for k in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS',"
            " 'MKL_NUM_THREADS')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "3", "1"]
