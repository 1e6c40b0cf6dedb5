import dataclasses
import math
import os
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sensing import sensing
from mapnav import numerics as nm
from mapnav.config import RunConfig
from mapnav.errors import NumericError, UsageError
from mapnav.language import MAX_TOKENS
from mapnav.mapping import (FREE, OCC, OCC_THRESHOLD, UNK, crop_ego_occupancy,
                            crop_ego_semantic, new_global_occupancy, sense, update_global,
                            world_to_ego)
from mapnav.model.cm2 import one_hot
from mapnav.model.supervision import ego_to_heatmap_cell, make_gt_heatmaps, sample_waypoints
from mapnav.train_eval import (
    METRIC_COLUMNS, TAU_SWEEP, VARIANTS, NavMetrics, aggregate_nav,
    assemble_batch, batch_loss, build_dataset, build_episode_records,
    compute_map_metrics, compute_pcw, episode_metrics, evaluate_map_quality,
    format_table, generate_split, generate_splits, load_records, save_records,
    summarize, train, variant_config, write_report,
)
from mapnav.train_eval.dataset import (
    HEADING_JITTER, HISTORY_SPACING, MAGIC, TrainingRecord, _path_heading, _path_point,
    episode_rng,
)
from mapnav.worldsim import (
    FLOOR, NUM_CLASSES, WALL, Floorplan, Pose, generate_episode, generate_floorplan,
    wrap_angle,
)


def tiny_config(**over):
    base = dict(ego_size=24, d=16, k=5, unet_base=8, unet_depth=3,
                n_instr_layers=1, batch_size=4, train_steps=5,
                checkpoint_every=0, num_floorplans=2, heldout_floorplans=1,
                episodes_per_floorplan=2, samples_per_episode=4,
                eval_episodes=2, seed=0)
    base.update(over)
    return RunConfig(**base).validate()


def box_plan(size=64):
    grid = np.full((size, size), FLOOR, dtype=np.uint8)
    grid[0, :] = grid[-1, :] = WALL
    grid[:, 0] = grid[:, -1] = WALL
    return Floorplan(grid=grid, seed=0)


def fake_episode(goal, length):
    return SimpleNamespace(goal=goal, path_length=length)


# ------------------------------------------------------------------ dataset
@pytest.fixture(scope="module")
def records(plan, episode):
    rng = np.random.default_rng(0)
    return build_episode_records(plan, episode, 6, 5, 24, rng, **sensing())


def test_record_supervision_invariants(records):
    assert len(records) == 6
    for rec in records:
        xi = rec.traversed.astype(float)
        assert xi[0] == 1.0
        assert np.all(np.diff(xi) <= 0.0)  # prefix-monotone
    assert records[0].traversed.sum() == 1   # at path start
    assert records[-1].traversed.sum() == 5  # at path end


def test_record_visibility_consistency(records):
    for rec in records:
        vis = assemble_batch([rec], sigma=1.0)[4][0]
        for i, (f, r) in enumerate(rec.waypoints_ego):
            cr, cc = ego_to_heatmap_cell(f, r, 12, 12)
            assert vis[i] == (0 <= cr < 12 and 0 <= cc < 12)


def test_record_array_shapes(records):
    """One record's label maps, as batch assembly gives them and as the
    model one-hot encodes them, and its supervision targets."""
    occ, chi, sem, hm, vis, p0, xi, _ = assemble_batch(records[:1], sigma=1.0)
    occ, chi, sem = one_hot(occ, 3)[0], one_hot(chi, NUM_CLASSES)[0], one_hot(sem, NUM_CLASSES)[0]
    assert occ.shape == (3, 24, 24) and np.allclose(occ.sum(axis=0), 1.0)
    assert chi.shape[1:] == (24, 24) and np.allclose(chi.sum(axis=0), 1.0)
    assert sem.shape == chi.shape
    assert hm.shape == (1, 5, 12, 12) and p0.shape == (1, 1, 12, 12)
    assert vis.shape == (1, 5) and xi.shape == (1, 5)


def record_arrays_reference(rec, num_classes=NUM_CLASSES, sigma=1.0):
    """One record expanded into one-hot model inputs and targets, one
    record at a time: (occ (3,s,s), chi (c,s,s), sem_gt (c,s,s), heatmaps
    (k,u,u), visibility (k,), start_heatmap (1,u,u), traversed (k,))."""
    s = rec.occ_labels.shape[0]
    u = s // 2
    occ = np.zeros((3, s, s))
    for ch in (OCC, FREE, UNK):
        occ[ch] = rec.occ_labels == ch
    rows, cols = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    chi = np.zeros((num_classes, s, s))
    chi[rec.chi_labels.astype(int), rows, cols] = 1.0
    sem = np.zeros((num_classes, s, s))
    sem[rec.sem_labels.astype(int), rows, cols] = 1.0
    heatmaps, vis = make_gt_heatmaps(rec.waypoints_ego, u, u, sigma)
    start_hm, _ = make_gt_heatmaps(rec.waypoints_ego[:1], u, u, sigma)
    return occ, chi, sem, heatmaps, vis, start_hm, rec.traversed.astype(np.float64)


def test_model_one_hots_of_batch_equal_per_record_expansion():
    """The model's one-hot grids of assembled label maps, and the batch's
    heatmaps, visibility, start heatmaps and traversal labels, equal the
    per-record expansion byte for byte, at ego 24 and 48 and p_noise 0 and
    0.3."""
    pairs = generate_split(RunConfig(), range(20, 23), 0, 2)
    for p_noise in (0.0, 0.3):
        for ego in (24, 48):
            records = build_dataset(pairs, 4, 5, ego, seed=7, **sensing(p_noise=p_noise))
            occ, chi, sem, hm, vis, p0, xi, _ = assemble_batch(records, sigma=1.0)
            assert len(np.unique(occ)) == 3 and len(np.unique(chi)) > 3
            got = (one_hot(occ, 3), one_hot(chi, NUM_CLASSES), one_hot(sem, NUM_CLASSES),
                   hm, vis, p0, xi)
            want = [np.stack(a) for a in zip(*map(record_arrays_reference, records))]
            want[4] = want[4].astype(np.float64)
            for name, g, w in zip(("occ", "chi", "sem", "hm", "vis", "p0", "xi"), got, want):
                assert g.dtype == w.dtype and g.shape == w.shape, (name, p_noise, ego)
                assert np.ascontiguousarray(g).tobytes() == w.tobytes(), (name, p_noise, ego)


def test_dataset_deterministic_and_serializable(plan, episode, tmp_path):
    a = build_dataset([(plan, episode)], 3, 5, 24, seed=7, **sensing())
    b = build_dataset([(plan, episode)], 3, 5, 24, seed=7, **sensing())
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_records(pa, a)
    save_records(pb, b)
    assert pa.read_bytes() == pb.read_bytes()
    loaded = load_records(pa)
    assert len(loaded) == len(a)
    for x, y in zip(loaded, a):
        assert x.episode_id == y.episode_id and x.t == y.t
        assert np.array_equal(x.occ_labels, y.occ_labels)
        assert np.array_equal(x.waypoints_ego, y.waypoints_ego)
        assert np.array_equal(x.tokens, y.tokens)


def test_load_rejects_bad_magic(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTDATA!" + b"\x00" * 16)
    with pytest.raises(UsageError):
        load_records(bad)


def test_load_rejects_truncated_or_corrupt_files(records, tmp_path):
    """A one-record file cut at every byte, and one with bytes after its end."""
    good = tmp_path / "r.bin"
    save_records(good, records[:1])
    blob = good.read_bytes()
    bad = tmp_path / "bad.bin"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        want = "truncated or corrupt" if cut >= len(MAGIC) else "not a training-record file"
        with pytest.raises(UsageError, match=want):
            load_records(bad)
    bad.write_bytes(blob + b"\x00" * 3)
    with pytest.raises(UsageError, match="3 bytes after the end"):
        load_records(bad)


def save_records_reference(path, records):
    """The record format written field by field with ``struct``: ``MAGIC``,
    the header (count, ego size s, k, tokens per record), then per record
    episode id, t, pose, tokens, the three s x s label maps, the k waypoints
    and the k traversal flags, packed little-endian."""
    s = records[0].occ_labels.shape[0] if records else 0
    k = len(records[0].waypoints_ego) if records else 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        if not records:
            fh.write(struct.pack("<IHHH", 0, 0, 0, 0))
            return
        fh.write(struct.pack("<IHHH", len(records), s, k, MAX_TOKENS))
        for r in records:
            fh.write(struct.pack("<IH", r.episode_id, r.t))
            fh.write(struct.pack("<3d", r.pose.x, r.pose.y, r.pose.theta))
            fh.write(np.asarray(r.tokens, dtype="<u2").tobytes())
            fh.write(r.occ_labels.astype(np.uint8).tobytes())
            fh.write(r.chi_labels.astype(np.uint8).tobytes())
            fh.write(r.sem_labels.astype(np.uint8).tobytes())
            fh.write(r.waypoints_ego.astype("<f8").tobytes())
            fh.write(r.traversed.astype(np.uint8).tobytes())


@pytest.mark.parametrize("ego, k", [(24, 5), (48, 10), (None, None)],
                         ids=["ego24-k5", "ego48-k10", "empty"])
def test_saved_records_equal_the_reference_writer_and_load_back(plan, tmp_path, ego, k):
    recs = []
    if ego is not None:
        eps = [generate_episode(plan, s, episode_id=42949 * 100000 + s) for s in range(2)]
        recs = build_dataset([(plan, ep) for ep in eps], 3, k, ego, seed=7,
                             **sensing(p_noise=0.3))
    got, want = tmp_path / "got.bin", tmp_path / "want.bin"
    save_records(got, recs)
    save_records_reference(want, recs)
    assert got.read_bytes() == want.read_bytes()
    loaded = load_records(got)
    assert len(loaded) == len(recs)
    dtypes = {"tokens": np.int64, "occ_labels": np.uint8, "chi_labels": np.uint8,
              "sem_labels": np.uint8, "waypoints_ego": np.float64, "traversed": np.uint8}
    for x, y in zip(loaded, recs):
        assert (x.episode_id, x.t, x.pose) == (y.episode_id, y.t, y.pose)
        for name, dtype in dtypes.items():
            a, b = getattr(x, name), getattr(y, name)
            assert a.dtype == dtype and a.flags.writeable, name
            assert a.shape == b.shape and np.array_equal(a, b), name


def test_save_rejects_fields_the_format_cannot_hold(records, tmp_path):
    # generate_split numbers episodes fp_seed * 100000 + n, past uint32 from
    # floorplan seed 42950 on
    too_big = [replace(records[0], episode_id=42950 * 100000),
               replace(records[0], t=2**16)]
    for i, rec in enumerate(too_big):
        path = tmp_path / f"r{i}.bin"
        with pytest.raises(UsageError, match=f"episode {rec.episode_id}, t {rec.t}"):
            save_records(path, [records[1], rec])
        assert not path.exists()


def test_save_rejects_records_of_another_shape(plan, episode, records, tmp_path):
    """A record file holds the ego size and k of its first record; a record
    of another shape is refused before anything is written."""
    ego_48 = build_episode_records(plan, episode, 1, 5, 48, np.random.default_rng(0),
                                   **sensing())[0]
    k_3 = replace(records[1], waypoints_ego=records[1].waypoints_ego[:3],
                  traversed=records[1].traversed[:3])
    for i, rec in enumerate((ego_48, k_3)):
        path = tmp_path / f"r{i}.bin"
        with pytest.raises(UsageError, match="24x24 label maps and k=5"):
            save_records(path, [records[0], rec])
        assert not path.exists()


def build_episode_records_reference(plan, episode, samples_per_episode, k, ego_size, rng,
                                    num_rays, max_range, p_noise):
    """The per-pose record builder: one ``sense`` per sensor pose, one pair
    of crops per sample."""
    path = np.asarray(episode.gt_path)
    arcs = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(path, axis=0), axis=1))])
    total = arcs[-1]
    wps, wp_arcs = sample_waypoints(path, k)
    gmap = new_global_occupancy(plan.grid.shape[0])
    records = []
    history_s = 0.0
    for t, sa in enumerate(np.linspace(0.0, total, samples_per_episode)):
        while history_s <= sa + 1e-9:
            hp = _path_point(path, arcs, history_s)
            hpose = Pose(hp[0], hp[1], _path_heading(path, arcs, history_s))
            sense(plan, hpose, gmap, ego_size, num_rays, max_range, p_noise, rng)
            if history_s >= total:
                break
            history_s = min(history_s + HISTORY_SPACING, total)
        p = _path_point(path, arcs, sa)
        theta = wrap_angle(_path_heading(path, arcs, sa)
                           + rng.uniform(-HEADING_JITTER, HEADING_JITTER))
        pose = Pose(float(p[0]), float(p[1]), theta)
        chi_frame = sense(plan, pose, gmap, ego_size, num_rays, max_range, p_noise, rng)
        records.append(TrainingRecord(
            episode_id=episode.episode_id, t=t, pose=pose,
            tokens=np.asarray(episode.tokens, dtype=np.int64),
            occ_labels=crop_ego_occupancy(gmap, pose, ego_size),
            chi_labels=chi_frame,
            sem_labels=crop_ego_semantic(plan, pose, ego_size),
            waypoints_ego=world_to_ego(pose, wps),
            traversed=(wp_arcs <= sa + 1e-9).astype(np.uint8)))
    return records


def test_records_equal_per_pose_reference(tmp_path):
    """Records built by stretches save to the same bytes as records built
    one pose at a time, on 10 floorplans at p_noise 0, 0.3 and 1.0, ego 24
    and 48, and 1 or 10 samples per episode."""
    pairs = generate_split(RunConfig(), range(20, 30), 0, 1)
    assert len(pairs) == 10
    got_path, want_path = tmp_path / "got.bin", tmp_path / "want.bin"
    for p_noise in (0.0, 0.3, 1.0):
        for ego in (24, 48):
            for samples in (1, 10):
                got, want = [], []
                for plan, ep in pairs:
                    got += build_episode_records(plan, ep, samples, 5, ego, episode_rng(7, ep),
                                                 **sensing(p_noise=p_noise))
                    want += build_episode_records_reference(plan, ep, samples, 5, ego,
                                                            episode_rng(7, ep),
                                                            **sensing(p_noise=p_noise))
                save_records(got_path, got)
                save_records(want_path, want)
                assert got_path.read_bytes() == want_path.read_bytes(), (p_noise, ego, samples)


def test_record_maps_hold_no_false_walls(monkeypatch):
    """At p_noise 0, the sensed map at the end of each episode's records
    reads no floorplan-traversable cell as occupied and no obstacle cell as
    free."""
    maps = []

    def keep_map(gmap, scans, poses):
        maps.append(gmap)
        return update_global(gmap, scans, poses)

    monkeypatch.setattr("mapnav.train_eval.dataset.update_global", keep_map)
    pairs = generate_split(RunConfig(), range(1000, 1003), 0, 3)
    assert len(pairs) == 9
    occupied = 0
    for plan, ep in pairs:
        build_episode_records(plan, ep, 10, 5, 48, episode_rng(0, ep), **sensing())
        gmap, traversable = maps[-1], plan.traversable_mask()
        assert not (gmap[traversable] > OCC_THRESHOLD).any(), ep.episode_id
        assert not (gmap[~traversable] < -OCC_THRESHOLD).any(), ep.episode_id
        occupied += int((gmap > OCC_THRESHOLD).sum())
    assert occupied > 500


def test_generate_split_layout():
    config = tiny_config()
    train_pairs = generate_split(config, range(2), 0, 2)
    seen_pairs = generate_split(config, range(2), 1000, 1)
    assert len(train_pairs) == 4 and len(seen_pairs) == 2
    train_ids = {ep.episode_id for _, ep in train_pairs}
    seen_ids = {ep.episode_id for _, ep in seen_pairs}
    assert train_ids.isdisjoint(seen_ids)
    # same floorplans, different episodes
    assert {p.seed for p, _ in train_pairs} == {p.seed for p, _ in seen_pairs}


def test_generate_splits_hold_eval_episodes():
    # more floorplans than evaluation episodes, then fewer (5 over 2 plans)
    for plans, heldout, n_eval in ((6, 4, 3), (2, 1, 5)):
        config = tiny_config(num_floorplans=plans, heldout_floorplans=heldout,
                             episodes_per_floorplan=1, eval_episodes=n_eval)
        splits = generate_splits(config)
        assert len(splits["train"]) == plans
        assert len(splits["seen"]) == len(splits["unseen"]) == n_eval
        assert {p.seed for p, _ in splits["seen"]} <= set(range(plans))
        assert {p.seed for p, _ in splits["unseen"]} <= set(range(plans, plans + heldout))
        ids = [ep.episode_id for split in splits.values() for _, ep in split]
        assert len(set(ids)) == len(ids)


# ------------------------------------------------------------------ metrics
def test_metrics_hand_computed_table():
    plan = box_plan()
    goal = (6.1, 3.1)
    ep = fake_episode(goal, 3.0)
    start = (3.1, 3.1)

    a = episode_metrics(plan, ep, [start, goal], True, 1.0)
    assert a.tl == pytest.approx(3.0)
    assert a.ne == 0.0
    assert (a.sr, a.os_) == (1.0, 1.0)
    assert a.spl == pytest.approx(1.0)

    detour = [start, (3.1, 6.1), start, (5.6, 3.1)]
    b = episode_metrics(plan, ep, detour, True, 1.0)
    assert b.tl == pytest.approx(8.5)
    assert b.ne == pytest.approx(0.5)
    assert (b.sr, b.os_) == (1.0, 1.0)
    assert b.spl == pytest.approx(3.0 / 8.5)

    c = episode_metrics(plan, ep, [start, (3.1, 6.1), start, (5.4, 3.1)],
                        False, 1.0)
    assert c.ne == pytest.approx(0.7)
    assert (c.sr, c.os_, c.spl) == (0.0, 1.0, 0.0)

    d = episode_metrics(plan, ep, [start, (4.1, 3.1)], True, 1.0)
    assert d.ne == pytest.approx(2.0)
    assert (d.sr, d.os_, d.spl) == (0.0, 0.0, 0.0)

    e = episode_metrics(plan, ep, [start, goal], False, 1.0)
    assert (e.ne, e.sr, e.os_, e.spl) == (0.0, 0.0, 1.0, 0.0)

    agg = aggregate_nav([a, b, c, d, e])
    assert agg["SR"] == pytest.approx(40.0)
    assert agg["OS"] == pytest.approx(80.0)
    assert agg["SPL"] == pytest.approx(100.0 * (1.0 + 3.0 / 8.5) / 5.0)
    assert agg["TL"] == pytest.approx((3.0 + 8.5 + 8.3 + 1.0 + 3.0) / 5.0)
    assert agg["NE"] == pytest.approx((0.0 + 0.5 + 0.7 + 2.0 + 0.0) / 5.0)


def test_metric_invariants_random(rng):
    plan = box_plan()
    for _ in range(20):
        n = int(rng.integers(1, 6))
        traj = [tuple(rng.uniform(1.0, 11.0, size=2)) for _ in range(n)]
        goal = tuple(rng.uniform(1.0, 11.0, size=2))
        ep = fake_episode(goal, float(rng.uniform(3.0, 9.0)))
        m = episode_metrics(plan, ep, traj, bool(rng.integers(2)), 1.0)
        assert m.tl >= 0.0
        assert m.spl <= m.sr
        assert m.os_ >= m.sr


def test_map_metrics_closed_forms():
    gt = np.array([[1, 1, 2, 2]] * 4)
    assert compute_map_metrics(gt, gt) == {"IoU": 100.0, "F1": 100.0}

    disjoint = np.array([[2, 2, 1, 1]] * 4)
    out = compute_map_metrics(disjoint, gt)
    assert out["IoU"] == 0.0 and out["F1"] == 0.0

    half = np.array([[2, 1, 2, 1]] * 4)  # each class half-overlaps its truth
    out = compute_map_metrics(half, gt)
    assert out["IoU"] == pytest.approx(100.0 / 3.0)
    assert out["F1"] == pytest.approx(50.0)


def test_map_metrics_excludes_void():
    gt = np.array([[0, 0, 1, 1]])
    pred = np.array([[1, 1, 1, 1]])  # wrong on void cells only
    out = compute_map_metrics(pred, gt)
    assert out["F1"] == pytest.approx(2 * 2 / (2 * 2 + 2 + 0) * 100.0)


def test_pcw_cases():
    gt = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    vis = np.array([True, True, False])
    assert compute_pcw([(0.0, 0.0), (1.0, 1.0), None], gt, vis) == 100.0
    assert compute_pcw([(2.5, 0.0), (1.0, 3.6), None], gt, vis) == 0.0
    assert compute_pcw([None, (1.0, 1.0), None], gt, vis) == 50.0
    assert compute_pcw([(9.0, 9.0)], np.array([[0.0, 0.0]]),
                       np.array([False])) == 100.0  # nothing visible


# ----------------------------------------------------------------- training
@pytest.fixture(scope="module")
def train_records(plan):
    eps = [generate_episode(plan, s, episode_id=s) for s in range(2)]
    return build_dataset([(plan, ep) for ep in eps], 4, 5, 24, seed=1, **sensing())


def test_training_deterministic(train_records, tmp_path):
    config = tiny_config()
    _, h1 = train(config, train_records, tmp_path / "r1")
    _, h2 = train(config, train_records, tmp_path / "r2")
    assert [r["loss"] for r in h1] == [r["loss"] for r in h2]
    assert (tmp_path / "r1" / "model.ckpt").read_bytes() == \
           (tmp_path / "r2" / "model.ckpt").read_bytes()
    assert (tmp_path / "r1" / "loss_curve.csv").read_bytes() == \
           (tmp_path / "r2" / "loss_curve.csv").read_bytes()


def test_training_loss_decreases(train_records, tmp_path):
    # The waypoint loss is a sum over the visible waypoints of a batch, so
    # losses of different random minibatches differ mostly by how many
    # waypoints they happen to draw and cannot be compared. Evaluate one
    # fixed batch with the starting model and with the trained one.
    config = tiny_config(mode="cm2-gt", train_steps=60)
    batch = assemble_batch(train_records, config.sigma)
    start, _ = train(replace(config, train_steps=0), train_records, tmp_path / "init")
    trained, _ = train(config, train_records, tmp_path / "gt")
    with nm.no_grad():
        before = batch_loss(start, batch, config)[1]
        after = batch_loss(trained, batch, config)[1]
    assert after < before


def test_training_rejects_empty_dataset(tmp_path):
    with pytest.raises(UsageError):
        train(tiny_config(), [], tmp_path / "x")


def test_training_aborts_on_divergence(train_records, tmp_path, monkeypatch):
    import mapnav.train_eval.training as training_mod

    class NanLoss:
        def item(self):
            return float("nan")

    monkeypatch.setattr(training_mod, "batch_loss",
                        lambda model, batch, config: (NanLoss(), float("nan"), 0.0))
    with pytest.raises(NumericError):
        training_mod.train(tiny_config(mode="cm2-gt"), train_records,
                           tmp_path / "boom")


def test_assemble_batch_shapes(train_records):
    batch = assemble_batch(train_records[:3], sigma=1.0)
    occ, chi, sem, hm, vis, p0, xi, tokens = batch
    assert occ.shape == chi.shape == sem.shape == (3, 24, 24)
    assert occ.dtype == chi.dtype == sem.dtype == np.uint8
    assert hm.shape == (3, 5, 12, 12) and p0.shape == (3, 1, 12, 12)
    assert vis.shape == (3, 5) and xi.shape == (3, 5)
    assert len(tokens) == 3


# ---------------------------------------------------------------- ablations
def test_variant_config_overrides():
    base = tiny_config()
    assert variant_config(base, "no-mapattn", 3).use_map_attention is False
    assert variant_config(base, "no-p0", 1).use_start_heatmap is False
    assert variant_config(base, "lambda-xi-0", 0).lambda_xi == 0.0
    assert variant_config(base, "full", 2).seed == 2
    assert set(VARIANTS) == {"full", "no-mapattn", "no-p0", "lambda-xi-0"}
    assert TAU_SWEEP == (0.5, 1.0, 1.5)


def test_each_variant_run_keeps_its_seed_under_cm2_seed(monkeypatch, tmp_path):
    """CM2_SEED is the CLI's, applied once to the config it loads; a variant
    config and every run that ``train_variants`` starts carry their own seed."""
    import mapnav.train_eval.ablations as ablations_mod
    monkeypatch.setenv("CM2_SEED", "5")
    base = tiny_config()
    assert [variant_config(base, "full", s).seed for s in (5, 6, 7)] == [5, 6, 7]
    trained = []
    monkeypatch.setattr(ablations_mod, "train",
                        lambda cfg, records, out: trained.append((cfg.seed, os.path.basename(out))))
    paths = ablations_mod.train_variants(base, [], tmp_path, seeds=(5, 6, 7),
                                         names=("full", "no-p0"))
    assert trained == [(s, f"{n}-s{s}") for n in ("full", "no-p0") for s in (5, 6, 7)]
    assert list(paths["no-p0"]) == [5, 6, 7]


def test_summarize_and_table():
    rows = []
    for seed, sr in ((0, 50.0), (1, 60.0), (2, 70.0)):
        row = {"variant": "full", "seed": seed}
        row.update({c: sr for c in METRIC_COLUMNS})
        rows.append(row)
    summary = summarize(rows)
    mean, std = summary["full"]["SR"]
    assert mean == pytest.approx(60.0)
    assert std == pytest.approx(np.std([50.0, 60.0, 70.0]))
    table = format_table(rows)
    assert "full" in table and "60.00" in table


def test_write_report_columns(tmp_path):
    row = {"variant": "full", "seed": 0}
    row.update({c: 1.0 for c in METRIC_COLUMNS})
    write_report([row], tmp_path)
    header = (tmp_path / "ablations.csv").read_text().splitlines()[0]
    assert header == "variant,seed," + ",".join(METRIC_COLUMNS)


# ------------------------------------------------------------ map quality
def test_evaluate_map_quality_gt_mode(train_records, tmp_path):
    from mapnav.train_eval.training import train as train_fn
    config = tiny_config(mode="cm2-gt", train_steps=2)
    model, _ = train_fn(config, train_records, tmp_path / "m")
    out = evaluate_map_quality(model, config, train_records[:3])
    assert set(out) == {"PCW", "IoU", "F1"}
    assert 0.0 <= out["PCW"] <= 100.0
    assert math.isnan(out["IoU"]) and math.isnan(out["F1"])  # no map head


# --------------------------------------------------------- closed-loop eval
def test_evaluate_episode_honours_p_noise(plan, episode, tmp_path, monkeypatch):
    """Eval senses with the config's label noise, drawn from the episode's
    own rng: noisy runs repeat exactly, and differ from noise-free ones in
    the semantic frames the model sees."""
    import mapnav.train_eval.evaluate as evaluate
    from mapnav.model import CM2Model
    frames = []
    make_predictor = evaluate.make_predictor

    def recording(*args):
        predict = make_predictor(*args)
        frames.append([])

        def wrapped(pose, gmap, occ_frame, sem_frame):
            frames[-1].append(sem_frame)
            return predict(pose, gmap, occ_frame, sem_frame)
        return wrapped

    monkeypatch.setattr(evaluate, "make_predictor", recording)
    model = CM2Model(tiny_config().model_config(), rng=np.random.default_rng(0))
    traces = []
    for i, p_noise in enumerate((0.2, 0.2, 0.0)):
        path = tmp_path / f"trace{i}.jsonl"
        evaluate.evaluate_episode(model, tiny_config(p_noise=p_noise, budget=6), plan,
                                  episode, trace_path=path)
        traces.append(path.read_text())
    noisy, again, clean = frames
    assert traces[0] == traces[1]
    assert all(np.array_equal(a, b) for a, b in zip(noisy, again))
    assert any(not np.array_equal(a, b) for a, b in zip(noisy, clean))


def test_rollout_step_builds_no_tape(plan, episode, monkeypatch):
    """A rollout runs under no_grad from its instruction encoding on: neither
    the encoding nor a step's Forward outputs carry an autodiff graph."""
    import mapnav.train_eval.evaluate as evaluate
    from mapnav.model import CM2Model
    config = tiny_config()
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    encodings = []
    encode = model.encode_instruction

    def recording(*args):
        encodings.append(encode(*args))
        return encodings[-1]

    monkeypatch.setattr(model, "encode_instruction", recording)
    forward = evaluate.episode_forward(model, config, plan, episode)
    pose = Pose(episode.start.x, episode.start.y, episode.start.theta)
    gmap = new_global_occupancy(plan.grid.shape[0])
    sem_frame = sense(plan, pose, gmap, config.ego_size, config.num_rays, config.max_range,
                      0.0, None)
    out = forward(pose, gmap, sem_frame)
    (enc,) = encodings
    assert set(enc.kv) == {"attn_o.", "attn_s."}
    tensors = [t for kv in enc.kv.values() for t in kv]
    tensors += [out.occ_hat, out.sem, out.heatmaps, out.traversed, out.h_grid]
    assert not any(t.requires_grad for t in tensors)


def _counting(monkeypatch, calls, module, name, key):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[key(*args)] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_rollout_runs_per_episode_work_once(plan, episode, monkeypatch):
    """What only the episode determines stays out of the rollout step: a
    T-step rollout runs the language encoder once, each cross-modal block's
    text branch once, one model forward per distinct input state since the
    agent last moved, and one shortest-path search per distinct trajectory
    position."""
    import collections

    import mapnav.model.cm2 as cm2
    import mapnav.train_eval.evaluate as evaluate
    import mapnav.train_eval.metrics as metrics
    from mapnav.model import CM2Model
    calls = collections.Counter()
    _counting(monkeypatch, calls, cm2, "encode_instruction", lambda *a: "encoder")
    _counting(monkeypatch, calls, cm2, "text_keys_values", lambda *a: ("text", a[2]))
    _counting(monkeypatch, calls, cm2, "cross_modal_attend", lambda *a: ("map", a[4]))
    _counting(monkeypatch, calls, metrics, "shortest_path", lambda *a: "search")
    trajectories = []
    episode_metrics = evaluate.episode_metrics

    def recording(plan, episode, trajectory, *args):
        trajectories.append(trajectory)
        return episode_metrics(plan, episode, trajectory, *args)

    monkeypatch.setattr(evaluate, "episode_metrics", recording)
    config = tiny_config(budget=48)
    states = []
    make_predictor = evaluate.make_predictor

    def inputs_recording(*args):
        predict = make_predictor(*args)
        u = config.model_config().heatmap_size
        start = np.array([[episode.start.x, episode.start.y]])

        def wrapped(pose, gmap, occ_frame, sem_frame):
            p0, _ = make_gt_heatmaps(world_to_ego(pose, start), u, u, config.sigma)
            occ = crop_ego_occupancy(gmap, pose, config.ego_size)
            states.append(((pose.x, pose.y), p0.tobytes() + occ.tobytes() + sem_frame.tobytes()))
            return predict(pose, gmap, occ_frame, sem_frame)
        return wrapped

    monkeypatch.setattr(evaluate, "make_predictor", inputs_recording)
    # this init spins in place; its states repeat from the second full turn on
    model = CM2Model(config.model_config(), rng=np.random.default_rng(1))
    evaluate.evaluate_episode(model, config, plan, episode)
    forwards = calls["map", "attn_s."]
    (trajectory,) = trajectories
    positions = {(x, y) for x, y, _ in trajectory}
    distinct, seen, at = 0, set(), None
    for position, state in states:
        if position != at:
            seen, at = set(), position
        distinct += state not in seen
        seen.add(state)
    assert len(states) == 48 and calls["map", "attn_o."] == forwards
    assert forwards == distinct < len(states)   # a state repeated before a move
    assert calls["encoder"] == 1
    assert calls["text", "attn_o."] == calls["text", "attn_s."] == 1
    assert len(positions) < len(trajectory)   # the rollout turned in place
    assert calls["search"] == len(positions)


def _counted_forwards(monkeypatch, model) -> list:
    """Count ``model.forward`` calls; the returned one-item list holds the
    count."""
    count = [0]
    forward = model.forward

    def counted(*args, **kwargs):
        count[0] += 1
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", counted)
    return count


@pytest.mark.parametrize("mode", ["cm2", "cm2-gt"])
def test_predictor_runs_one_forward_per_state_at_a_position(plan, episode, monkeypatch, mode):
    """A state seen again at the agent's position gets the kept heatmap
    stack, read-only and byte for byte a fresh forward's; a state whose
    model inputs differ runs the forward, and so does a state seen again
    after the agent moved away and back."""
    import mapnav.train_eval.evaluate as evaluate
    from mapnav.model import CM2Model
    config = tiny_config(mode=mode)
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    forward = evaluate.episode_forward(model, config, plan, episode)
    count = _counted_forwards(monkeypatch, model)
    predict = evaluate.make_predictor(model, config, plan, episode)
    pose = Pose(episode.start.x, episode.start.y, episode.start.theta)
    gmap = new_global_occupancy(plan.grid.shape[0])
    sem_frame = sense(plan, pose, gmap, config.ego_size, config.num_rays, config.max_range,
                      0.0, None)
    first = predict(pose, gmap, None, sem_frame)
    again = predict(pose, gmap, None, sem_frame.copy())
    assert count[0] == 1
    fresh = np.asarray(forward(pose, gmap, sem_frame).heatmaps.data[0])
    count[0] -= 1
    for heatmaps in (first, again):
        assert heatmaps.tobytes() == fresh.tobytes()
        assert not heatmaps.flags.writeable
        with pytest.raises(ValueError):
            heatmaps[0, 0, 0] = 1.0
    noisy = sense(plan, pose, None, config.ego_size, config.num_rays, config.max_range,
                  0.5, np.random.default_rng(0))
    assert not np.array_equal(noisy, sem_frame)
    predict(pose, gmap, None, noisy)
    # cm2-gt reads the ground-truth crop, not the sensed frame
    assert count[0] == (2 if mode == "cm2" else 1)
    moved = Pose(pose.x + 0.2, pose.y, pose.theta)
    predict(moved, gmap, None, sem_frame)
    back = predict(pose, gmap, None, sem_frame)
    assert count[0] == (4 if mode == "cm2" else 3)
    assert back.tobytes() == fresh.tobytes() and not back.flags.writeable


def test_predictor_keeps_one_turn_of_states_at_a_position(plan, episode, monkeypatch):
    """At one position the predictor keeps the stacks of at most one full
    turn's worth of states; a new state beyond that drops the least
    recently used one, which then runs the forward again."""
    import mapnav.train_eval.evaluate as evaluate
    from mapnav.model import CM2Model
    n = evaluate.KEPT_PER_POSITION
    assert n == 24   # 15-degree turns
    config = tiny_config()
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    count = _counted_forwards(monkeypatch, model)
    predict = evaluate.make_predictor(model, config, plan, episode)
    pose = Pose(episode.start.x, episode.start.y, episode.start.theta)
    gmap = new_global_occupancy(plan.grid.shape[0])
    sem_frame = sense(plan, pose, gmap, config.ego_size, config.num_rays, config.max_range,
                      0.0, None)
    frames = []
    for i in range(n + 1):   # n + 1 states that differ in one label each
        frames.append(sem_frame.copy())
        frames[-1].flat[i] = (sem_frame.flat[i] + 1) % NUM_CLASSES
    for frame in frames[:n]:
        predict(pose, gmap, None, frame)
    predict(pose, gmap, None, frames[0])       # kept: now the most recently used
    assert count[0] == n
    predict(pose, gmap, None, frames[n])       # drops frames[1]'s stack
    predict(pose, gmap, None, frames[0])
    assert count[0] == n + 1
    predict(pose, gmap, None, frames[1])
    assert count[0] == n + 2


@pytest.mark.parametrize("mode", ["cm2", "cm2-gt"])
@pytest.mark.parametrize("p_noise", [0.0, 0.2])
def test_rollout_reusing_heatmaps_equals_a_forward_per_step(plan, episode, tmp_path,
                                                            monkeypatch, mode, p_noise):
    """A rollout that spins in place and reuses kept heatmaps takes the
    trajectory, the actions, the trace file and the metrics of a predictor
    that runs the forward at every step, byte for byte."""
    import mapnav.train_eval.evaluate as evaluate
    from mapnav.model import CM2Model
    config = tiny_config(mode=mode, p_noise=p_noise, budget=48)
    # this init spins in place; its states repeat from the second full turn on
    model = CM2Model(config.model_config(), rng=np.random.default_rng(1))
    count = _counted_forwards(monkeypatch, model)
    results = []
    run_rollout = evaluate.run_rollout

    def recording(*args, **kwargs):
        results.append(run_rollout(*args, **kwargs))
        return results[-1]

    def per_step(model, config, plan, episode):
        forward = evaluate.episode_forward(model, config, plan, episode)
        return lambda pose, gmap, occ_frame, sem_frame: np.asarray(
            forward(pose, gmap, sem_frame).heatmaps.data[0])

    monkeypatch.setattr(evaluate, "run_rollout", recording)
    metrics = [evaluate.evaluate_episode(model, config, plan, episode,
                                         trace_path=tmp_path / "reused.jsonl")]
    forwards, count[0] = count[0], 0
    monkeypatch.setattr(evaluate, "make_predictor", per_step)
    metrics.append(evaluate.evaluate_episode(model, config, plan, episode,
                                             trace_path=tmp_path / "per_step.jsonl"))
    reused, fresh = results
    assert count[0] == len(fresh.trace)
    assert forwards < count[0]
    assert reused.trajectory == fresh.trajectory and reused.actions == fresh.actions
    assert (tmp_path / "reused.jsonl").read_bytes() == (tmp_path / "per_step.jsonl").read_bytes()
    packed = [struct.pack("<5d", *dataclasses.astuple(m)) for m in metrics]
    assert packed[0] == packed[1]


def test_batch_loss_encodes_its_batch_once(train_records, monkeypatch):
    """One forward encodes its batch once; in grad mode each of the two
    batch shards, here both in this process, encodes its half once."""
    import collections

    import mapnav.model.cm2 as cm2
    from mapnav.model import CM2Model
    from mapnav.numerics import parallel
    calls = collections.Counter()
    _counting(monkeypatch, calls, cm2, "encode_instruction", lambda *a: ("encoder", a[0].shape))
    _counting(monkeypatch, calls, cm2, "text_keys_values", lambda *a: ("text", a[2]))
    config = tiny_config()
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    batch = assemble_batch(train_records[:4], config.sigma)
    m = len(train_records[0].tokens)
    with nm.no_grad():
        batch_loss(model, batch, config)
    assert calls == {("encoder", (4, m)): 1, ("text", "attn_o."): 1, ("text", "attn_s."): 1}
    calls.clear()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    batch_loss(model, batch, config)
    assert calls == {("encoder", (2, m)): 2, ("text", "attn_o."): 2, ("text", "attn_s."): 2}


def test_ground_truth_map_batch_encodes_only_the_path_block(train_records, monkeypatch):
    """In mode cm2-gt no map head runs, so a batch's encoding runs only the
    path block's text branch and holds no occupancy block; so does each of
    the two batch shards', here both in this process."""
    import collections

    import mapnav.model.cm2 as cm2
    from mapnav.model import CM2Model
    from mapnav.numerics import parallel
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    calls = collections.Counter()
    _counting(monkeypatch, calls, cm2, "text_keys_values", lambda *a: a[2])
    config = tiny_config(mode="cm2-gt")
    model = CM2Model(config.model_config(), rng=np.random.default_rng(0))
    encodings = []
    encode = model.encode_instruction

    def recording(*args):
        encodings.append(encode(*args))
        return encodings[-1]

    monkeypatch.setattr(model, "encode_instruction", recording)
    batch_loss(model, assemble_batch(train_records[:4], config.sigma), config)
    assert calls == {"attn_s.": 2}
    (enc,) = encodings   # the first shard's; the second shard's model is another
    assert set(enc.kv) == {"attn_s."}
