"""End-to-end acceptance checks for the navigation pipeline.

Each test verifies one headline property at its stated tolerance: gradient
correctness, attention-oracle equivalence, heatmap codec fidelity,
controller soundness, metric exactness, and byte-level determinism.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from gradcheck import grad_check
from sensing import sensing
from mapnav import numerics as nm
from mapnav.cli import EXIT_OK, main
from mapnav.config import RunConfig
from mapnav.controller import (decode_waypoints, heatmap_mode, run_rollout,
                               select_short_term_goal)
from mapnav.mapping import ego_to_world, world_to_ego
from mapnav.model import (CM2Model, ModelConfig, make_gt_heatmaps,
                          sample_waypoints)
from mapnav.model.attention import init_cross_modal
from mapnav.train_eval import (aggregate_nav, build_dataset, compute_map_metrics,
                               episode_metrics, generate_split)
from mapnav.train_eval.training import assemble_batch, batch_loss
from mapnav.worldsim import Pose, generate_episode, generate_floorplan

GRADCHECK_TOL = 1e-4
GRADCHECK_EPS = 1e-5


# ======================================================================
# 1. Gradient correctness: every primitive and each full loss
# ======================================================================

def _check(loss_fn, params, eps=GRADCHECK_EPS):
    errs = grad_check(loss_fn, params, eps=eps, max_entries=4,
                      rng=np.random.default_rng(11))
    worst = max(errs.values())
    assert worst < GRADCHECK_TOL, f"worst relative error {worst:.3e}: {errs}"


def _entrywise_check(loss_fn, params, n_per_param, rng):
    """Central-difference check of sampled parameter entries against the
    autodiff gradient. Primary step 1e-5; entries straddling an activation
    kink (where the 1e-5 secant is provably off even for an exact gradient)
    are re-checked at 1e-6 and must meet the same 1e-4 bar there."""
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss_value = float(loss.item())
    loss.backward()
    grads = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
             for name, p in params.items()}
    # a central difference of a loss of this magnitude cannot resolve
    # absolute gradient differences below ~eps_mach * |loss| / step
    noise_floor = 32.0 * np.finfo(float).eps * abs(loss_value) / GRADCHECK_EPS
    fallback_used = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = min(n_per_param, flat.size)
        for i in rng.choice(flat.size, size=n, replace=False):
            ad = grads[name].reshape(-1)[i]
            rels = []
            ok = False
            for eps in (GRADCHECK_EPS, 1e-6):
                orig = flat[i]
                flat[i] = orig + eps
                lp = float(loss_fn().item())
                flat[i] = orig - eps
                lm = float(loss_fn().item())
                flat[i] = orig
                fd = (lp - lm) / (2.0 * eps)
                rel = abs(fd - ad) / max(abs(fd), abs(ad), 1e-8)
                rels.append(rel)
                if rel < GRADCHECK_TOL or abs(fd - ad) < noise_floor:
                    ok = True
                    break
            assert ok, f"{name}[{i}]: ad {ad:.6e}, rel errors {rels}"
            if len(rels) > 1:
                fallback_used += 1
    return fallback_used


def test_gradcheck_every_primitive():
    rng = np.random.default_rng(0)

    def P(*shape, offset=0.0):
        return nm.Tensor(rng.normal(size=shape) + offset, requires_grad=True)

    def C(*shape):
        return nm.Tensor(rng.normal(size=shape))

    a, b = P(4, 3), P(4, 3)
    w = C(4, 3)
    _check(lambda: nm.tsum(nm.mul(nm.add(a, b), w)), {"a": a, "b": b})
    _check(lambda: nm.tsum(nm.mul(nm.sub(a, b), w)), {"a": a, "b": b})
    _check(lambda: nm.tsum(nm.mul(nm.scale(nm.mul(a, b), 1.7), w)), {"a": a, "b": b})

    x, wt, bias = P(5, 3), P(3, 4), P(4)
    w2 = C(5, 4)
    _check(lambda: nm.tsum(nm.mul(nm.matmul(x, wt), w2)), {"x": x, "w": wt})
    _check(lambda: nm.tsum(nm.mul(nm.linear(x, wt, bias), w2)),
           {"x": x, "w": wt, "b": bias})

    # activations sampled away from their kinks (the finite-difference
    # secant is not a derivative estimate across a kink)
    act = P(4, 5, offset=0.3)
    ca = C(4, 5)
    eye = nm.Tensor(np.eye(5))  # linear's fused ReLU of its input
    _check(lambda: nm.tsum(nm.mul(nm.linear(act, eye, slope=0.0), ca)), {"a": act})
    one = nm.Tensor(np.ones((1, 1, 1, 1)))  # conv2d's fused LeakyReLU of its input
    _check(lambda: nm.tsum(nm.mul(nm.conv2d(nm.reshape(act, (1, 4, 5)), one, slope=0.01), ca)),
           {"a": act})
    _check(lambda: nm.tsum(nm.mul(nm.sigmoid(act), ca)), {"a": act})

    sm = P(4, 5)
    g, beta = P(5), P(5)
    cs = C(4, 5)
    _check(lambda: nm.tsum(nm.mul(nm.softmax(sm, axis=-1), cs)), {"a": sm})
    _check(lambda: nm.tsum(nm.mul(nm.layer_norm(sm, g, beta), cs)),
           {"a": sm, "g": g, "b": beta})

    table = P(7, 4)
    ids = np.array([1, 3, 3, 0])
    ce = C(4, 4)
    _check(lambda: nm.tsum(nm.mul(nm.embedding_lookup(table, ids), ce)),
           {"t": table})

    xc = P(2, 3, 6, 6)
    wc, bc = P(4, 3, 3, 3), P(4)
    c1, c2 = C(2, 4, 6, 6), C(2, 4, 12, 12)
    c3, c4 = C(2, 3, 3, 3), C(2, 3, 9, 9)
    _check(lambda: nm.tsum(nm.mul(nm.conv2d(xc, wc, bc, padding=1), c1)),
           {"x": xc, "w": wc, "b": bc})
    _check(lambda: nm.tsum(nm.mul(nm.upconv2d(xc, wc, bc), c2)),
           {"x": xc, "w": wc, "b": bc})
    _check(lambda: nm.tsum(nm.mul(nm.avg_pool2d(xc, 2), c3)), {"x": xc})
    _check(lambda: nm.tsum(nm.mul(nm.bilinear_resize(xc, 9, 9), c4)), {"x": xc})

    s1, s2 = P(2, 3), P(2, 3)
    cc, ck = C(4, 3), C(2, 2, 3)
    _check(lambda: nm.tsum(nm.mul(nm.concat([s1, s2], axis=0), cc)),
           {"a": s1, "b": s2})
    _check(lambda: nm.tsum(nm.mul(nm.stack([s1, s2], axis=0), ck)),
           {"a": s1, "b": s2})
    r = P(2, 3, 4)
    cr, cm = C(4, 6), C(3)
    _check(lambda: nm.tsum(nm.mul(nm.reshape(nm.transpose(r, (2, 0, 1)), (4, 6)),
                                  cr)), {"r": r})
    _check(lambda: nm.tsum(nm.mul(nm.tmean(r, axis=(0, 2)), cm)), {"r": r})

    pred = nm.Tensor(rng.uniform(0.05, 0.95, size=(3, 4)), requires_grad=True)
    target = rng.uniform(size=(3, 4))
    tgt01 = (target > 0.5).astype(float)
    _check(lambda: nm.binary_cross_entropy(pred, tgt01), {"p": pred})
    logits = P(2, 3, 4, 4)
    onehot = np.eye(3)[rng.integers(0, 3, size=(2, 4, 4))].transpose(0, 3, 1, 2)
    _check(lambda: nm.pixelwise_cross_entropy(nm.softmax(logits, axis=-3), onehot),
           {"l": logits})

    # drawn last, so that the checks above keep their draws
    xb, bb = P(2, 5, 3), P(4)
    cb = C(2, 5, 4)
    _check(lambda: nm.tsum(nm.mul(nm.linear(xb, wt, bb), cb)),
           {"x": xb, "w": wt, "b": bb})   # a (B,M,d) batch
    yc, wj = P(2, 2, 6, 6), P(4, 5, 3, 3)
    _check(lambda: nm.tsum(nm.mul(nm.conv2d(xc, wj, bc, padding=1, slope=0.01, cat=yc), c1)),
           {"x": xc, "cat": yc, "w": wj, "b": bc})   # a second input after x's channels
    c5 = C(2, 4, 3, 3)
    _check(lambda: nm.tsum(nm.mul(nm.conv2d(xc, wc, bc, padding=1, slope=0.01, pool=2), c5)),
           {"x": xc, "w": wc, "b": bc})   # the 2x2 average pool folded in


@pytest.mark.slow
def test_gradcheck_full_losses_within_time_budget():
    t0 = time.time()
    cfg = RunConfig(ego_size=24, d=16, k=3, unet_base=8, unet_depth=3,
                    n_instr_layers=1, num_floorplans=2, heldout_floorplans=1,
                    episodes_per_floorplan=1, samples_per_episode=2,
                    seed=0).validate()
    pairs = generate_split(cfg, range(cfg.num_floorplans), 0, cfg.episodes_per_floorplan)
    records = build_dataset(pairs, 2, cfg.k, cfg.ego_size, 0, **sensing(cfg))[:2]
    batch = assemble_batch(records, cfg.sigma)
    model = CM2Model(cfg.model_config(), rng=np.random.default_rng(0))
    rng = np.random.default_rng(3)

    # combined waypoint+map objective through the full forward pass
    fb = _entrywise_check(lambda: batch_loss(model, batch, cfg)[0],
                          model.params, n_per_param=1, rng=rng)

    # waypoint objective alone (path head on ground-truth maps)
    gt_cfg = dataclasses.replace(cfg, mode="cm2-gt")
    fb += _entrywise_check(lambda: batch_loss(model, batch, gt_cfg)[0],
                           model.params, n_per_param=1, rng=rng)

    # map objective alone
    occ, chi = batch[0], batch[1]
    tokens = batch[7]
    from mapnav.model import loss_map

    def map_only():
        instr = [model.encode_instruction(np.stack(tokens))]
        occ_hat, sem_hat, _, _ = model.predict_maps(occ, chi, instr)
        return loss_map(occ_hat, sem_hat, occ, batch[2])

    fb += _entrywise_check(map_only, model.params, n_per_param=1, rng=rng)

    elapsed = time.time() - t0
    assert elapsed < 300.0, f"gradient check took {elapsed:.0f}s"
    # the kink fallback must stay the exception, not the rule
    assert fb <= 10, f"{fb} entries needed the smaller-step fallback"


# ======================================================================
# 2. Attention-oracle equivalence
# ======================================================================

def test_attention_matches_brute_force_oracle():
    # naive O(N*M*d) looped reimplementation of the whole block
    from tests.test_model import attend, np_cross_modal
    rng = np.random.default_rng(42)
    for case in range(100):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(2, 12))
        d = int(rng.integers(8, 24))
        mask = np.ones(m)                       # 1 = real token
        mask[int(rng.integers(1, m)):] = 0.0    # trailing pads
        params = init_cross_modal(rng, d, "a.")
        y = rng.normal(size=(n, d))
        x = rng.normal(size=(m, d))
        h, attn = attend(y, x, params, "a.", mask)
        raw = {k: np.asarray(v.data) for k, v in params.items()}
        H_ref, A_ref = np_cross_modal(y, x, raw, "a.", mask)
        assert np.max(np.abs(h.data - H_ref)) < 1e-9, case
        assert np.max(np.abs(np.asarray(attn) - A_ref)) < 1e-9, case
        a = np.asarray(attn)
        assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-9
        assert np.all(a[:, mask == 0.0] == 0.0)


# ======================================================================
# 3. Heatmap codec
# ======================================================================

def test_heatmap_codec_on_dataset_waypoints():
    cfg = RunConfig(ego_size=48, k=10, num_floorplans=4, heldout_floorplans=1,
                    episodes_per_floorplan=4, samples_per_episode=4,
                    seed=0).validate()
    pairs = generate_split(cfg, range(cfg.num_floorplans), 0, cfg.episodes_per_floorplan)
    records = build_dataset(pairs, cfg.samples_per_episode, cfg.k,
                            cfg.ego_size, cfg.seed, **sensing(cfg))
    total = hits = 0
    for rec in records:
        hm, vis = make_gt_heatmaps(rec.waypoints_ego, 24, 24, sigma=1.0)
        for i, visible in enumerate(vis):
            if not visible:
                continue
            decoded = heatmap_mode(hm[i])
            assert decoded is not None
            err = math.hypot(decoded[0] - rec.waypoints_ego[i][0],
                             decoded[1] - rec.waypoints_ego[i][1])
            total += 1
            hits += err <= 0.4 + 1e-12
            # peak of every visible ground-truth heatmap is exactly 1
            assert hm[i].max() == 1.0
    assert total >= 500
    assert hits / total >= 0.99, f"{hits}/{total}"

    # value one cell from the peak is exp(-1/2) to machine precision
    hm, _ = make_gt_heatmaps(np.array([[0.0, 0.0]]), 24, 24, sigma=1.0)
    assert abs(hm[0, 12, 13] - math.exp(-0.5)) <= 1e-12
    assert abs(hm[0, 11, 12] - math.exp(-0.5)) <= 1e-12


# ======================================================================
# 4. Controller soundness
# ======================================================================

def test_goal_selection_matches_brute_force_scan():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        wps = [tuple(rng.uniform(-4, 4, size=2)) for _ in range(k)]
        pose = Pose(*rng.uniform(0, 12, size=2), rng.uniform(-np.pi, np.pi))
        zeta, goal = select_short_term_goal(wps, pose)
        dists = [math.hypot(f, r) for f, r in wps]
        expect = min(int(np.argmin(dists)) + 1, k - 1)
        assert zeta == expect + 1
        world = ego_to_world(pose, np.array([wps[expect]]))[0]
        assert goal == pytest.approx(tuple(world))


@pytest.mark.slow
def test_closed_loop_with_gt_maps_and_heatmaps():
    t0 = time.time()
    config = RunConfig()
    successes = runs = 0
    for fp_seed in range(10):
        plan = generate_floorplan(fp_seed)
        for s in range(10):
            ep = generate_episode(plan, s, episode_id=s)

            def predict(pose, gmap, occ_frame, sem_frame,
                        _wps=sample_waypoints(ep.gt_path, 10)[0]):
                return make_gt_heatmaps(world_to_ego(pose, _wps), 24, 24)[0]

            result = run_rollout(plan, ep, predict, config, use_gt_map=True)
            runs += 1
            if result.stopped:
                x, y, _ = result.trajectory[-1]
                if math.hypot(x - ep.goal[0], y - ep.goal[1]) <= config.success_radius:
                    successes += 1
    elapsed = time.time() - t0
    assert runs == 100
    assert successes / runs >= 0.95, f"{successes}/{runs}"
    assert elapsed < 600.0, f"closed-loop suite took {elapsed:.0f}s"


@pytest.mark.slow
def test_closed_loop_with_sensed_maps_and_perfect_heatmaps():
    """The episodes and success rule of the ground-truth-map test above, with
    the planner on the map sensed along the way: the registration must not
    wall off doorways the floorplan leaves open."""
    config = RunConfig()
    successes = runs = 0
    for fp_seed in range(10):
        plan = generate_floorplan(fp_seed)
        for s in range(10):
            ep = generate_episode(plan, s, episode_id=s)

            def predict(pose, gmap, occ_frame, sem_frame,
                        _wps=sample_waypoints(ep.gt_path, 10)[0]):
                return make_gt_heatmaps(world_to_ego(pose, _wps), 24, 24)[0]

            result = run_rollout(plan, ep, predict, config, use_gt_map=False)
            runs += 1
            if result.stopped:
                x, y, _ = result.trajectory[-1]
                if math.hypot(x - ep.goal[0], y - ep.goal[1]) <= config.success_radius:
                    successes += 1
    assert runs == 100
    assert successes / runs >= 0.95, f"{successes}/{runs}"


# ======================================================================
# 5. Metric oracle
# ======================================================================

def _box_plan():
    """A single open room so geodesic == Euclidean along straight lines."""
    from tests.test_mapping import box_room
    return box_room()


def test_metrics_match_hand_computed_fixture():
    plan = _box_plan()
    start = Pose(3.1, 3.1, 0.0)
    goal = (6.1, 3.1)
    ep = type("E", (), {"start": start, "goal": goal, "path_length": 3.0})()

    def straight(x0, y0, x1, y1, n=30):
        return [(x0 + (x1 - x0) * t / n, y0 + (y1 - y0) * t / n, 0.0)
                for t in range(n + 1)]

    # A: perfect run, stops at the goal
    tA = straight(3.1, 3.1, 6.1, 3.1)
    mA = episode_metrics(plan, ep, tA, stopped=True, success_radius=1.0)
    assert mA.tl == pytest.approx(3.0)
    assert mA.ne == pytest.approx(0.0, abs=1e-9)
    assert (mA.sr, mA.os_) == (1.0, 1.0)
    assert mA.spl == pytest.approx(1.0)

    # B: detour then stop 0.5 m short: TL 8.5, SPL = 3/8.5
    tB = straight(3.1, 3.1, 3.1, 6.1) + straight(3.1, 6.1, 3.1, 3.1)[1:] \
        + straight(3.1, 3.1, 5.6, 3.1)[1:]
    mB = episode_metrics(plan, ep, tB, stopped=True, success_radius=1.0)
    assert mB.tl == pytest.approx(8.5)
    assert mB.ne == pytest.approx(0.5)
    assert mB.sr == 1.0
    assert mB.spl == pytest.approx(3.0 / 8.5)

    # C: reaches within radius but never stops: SR 0, OS 1
    tC = straight(3.1, 3.1, 5.4, 3.1)
    mC = episode_metrics(plan, ep, tC, stopped=False, success_radius=1.0)
    assert (mC.sr, mC.os_) == (0.0, 1.0)
    assert mC.ne == pytest.approx(0.7)

    # D: stops far away: everything zero
    tD = straight(3.1, 3.1, 4.1, 3.1)
    mD = episode_metrics(plan, ep, tD, stopped=True, success_radius=1.0)
    assert (mD.sr, mD.os_, mD.spl) == (0.0, 0.0, 0.0)
    assert mD.ne == pytest.approx(2.0)

    # E: sits at the goal without stopping: OS 1, SR 0
    tE = straight(3.1, 3.1, 6.1, 3.1)
    mE = episode_metrics(plan, ep, tE, stopped=False, success_radius=1.0)
    assert (mE.sr, mE.os_) == (0.0, 1.0)

    agg = aggregate_nav([mA, mB, mC, mD, mE])
    assert agg["SR"] == pytest.approx(40.0)
    assert agg["OS"] == pytest.approx(80.0)
    assert agg["SPL"] == pytest.approx(100.0 * (1.0 + 3.0 / 8.5) / 5.0)
    assert agg["TL"] == pytest.approx((mA.tl + mB.tl + mC.tl + mD.tl + mE.tl) / 5.0)

    # definitional invariants on randomized trajectories
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        traj = [(float(x), float(y), 0.0)
                for x, y in rng.uniform(1.0, 7.0, size=(n, 2))]
        m = episode_metrics(plan, ep, traj, stopped=bool(rng.integers(2)),
                            success_radius=1.0)
        assert m.tl >= 0.0
        assert m.spl <= m.sr + 1e-12
        assert m.os_ >= m.sr


def test_iou_f1_closed_forms():
    gt = np.array([[1, 1, 2, 2]] * 4)
    pred = np.array([[2, 1, 2, 1]] * 4)   # half-overlap per class
    m = compute_map_metrics(pred, gt)
    assert m["IoU"] == pytest.approx(100.0 / 3.0)
    assert m["F1"] == pytest.approx(50.0)
    perfect = compute_map_metrics(gt, gt)
    assert perfect["IoU"] == pytest.approx(100.0)
    assert perfect["F1"] == pytest.approx(100.0)
    disjoint = compute_map_metrics(np.full_like(gt, 3), gt)
    assert disjoint["IoU"] == pytest.approx(0.0)
    assert disjoint["F1"] == pytest.approx(0.0)


# ======================================================================
# 11. Byte-level determinism of the pipeline commands
# ======================================================================

def test_pipeline_byte_reproducible(tmp_path):
    cfg = RunConfig(ego_size=24, d=16, k=5, unet_base=8, unet_depth=3,
                    n_instr_layers=1, batch_size=4, train_steps=5,
                    checkpoint_every=0, num_floorplans=2, heldout_floorplans=1,
                    episodes_per_floorplan=2, samples_per_episode=2,
                    eval_episodes=2, budget=25, seed=0).validate()
    cfg_path = tmp_path / "config.json"
    cfg.save(cfg_path)

    outs = []
    for run in ("a", "b"):
        data = tmp_path / f"data_{run}"
        ckpt_dir = tmp_path / f"run_{run}"
        metrics = tmp_path / f"metrics_{run}.csv"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == EXIT_OK
        assert main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(ckpt_dir)]) == EXIT_OK
        assert main(["eval", "--config", str(cfg_path),
                     "--ckpt", str(ckpt_dir / "model.ckpt"),
                     "--data", str(data), "--split", "unseen",
                     "--out", str(metrics)]) == EXIT_OK
        outs.append((data, ckpt_dir, metrics))

    (da, ra, ma), (db, rb, mb) = outs
    for name in ("train_episodes.jsonl", "seen_episodes.jsonl",
                 "unseen_episodes.jsonl", "train_records.bin",
                 "unseen_records.bin", "config.json"):
        assert (da / name).read_bytes() == (db / name).read_bytes(), name
    assert (ra / "model.ckpt").read_bytes() == (rb / "model.ckpt").read_bytes()
    assert (ra / "loss_curve.csv").read_bytes() == (rb / "loss_curve.csv").read_bytes()
    assert ma.read_bytes() == mb.read_bytes()
