import math

import numpy as np
import pytest

from gradcheck import grad_check
from sensing import sensing
import mapnav.numerics as nm
from mapnav.config import RunConfig
from mapnav.errors import ConfigError, UsageError
from mapnav.language import MAX_TOKENS, tokenize
from mapnav.model import (
    CM2Model, HEATMAP_CELL, cross_modal_attend,
    ego_to_heatmap_cell, heatmap_cell_to_ego, init_cross_modal,
    loss_map, loss_total, loss_waypoint, make_gt_heatmaps, sample_waypoints,
    text_keys_values,
)
from mapnav.model.cm2 import apply_map_encoder, one_hot
from mapnav.model.unet import UNetSpec, apply_unet, init_unet
from mapnav.train_eval import build_episode_records
from mapnav.worldsim import NUM_CLASSES

D = 16


# ---------------------------------------------------------------- np oracle
def np_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return g * (x - mu) / np.sqrt(var + eps) + b


def np_self_attention(x, p, prefix, key_mask=None):
    d = x.shape[-1]
    h = np_layer_norm(x, p[prefix + "ln1.g"], p[prefix + "ln1.b"])
    q, k, v = h @ p[prefix + "wq"], h @ p[prefix + "wk"], h @ p[prefix + "wv"]
    scores = q @ k.T / math.sqrt(d)
    if key_mask is not None:
        scores = scores + np.where(key_mask[None, :] > 0, 0.0, -1e30)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    x = x + attn @ v @ p[prefix + "wo"]
    h = np_layer_norm(x, p[prefix + "ln2.g"], p[prefix + "ln2.b"])
    h = np.maximum(h @ p[prefix + "ff1.w"] + p[prefix + "ff1.b"], 0.0)
    return x + h @ p[prefix + "ff2.w"] + p[prefix + "ff2.b"]


def np_cross_modal(y, x, p, prefix, mask):
    """Naive O(N*M*d) reimplementation with explicit loops."""
    d = y.shape[-1]
    ys = np_self_attention(y, p, prefix + "selfmap.")
    xs = np_self_attention(x, p, prefix + "selftext.", key_mask=mask)
    q, k, v = ys @ p[prefix + "wq"], xs @ p[prefix + "wk"], xs @ p[prefix + "wv"]
    n, m = q.shape[0], k.shape[0]
    h = np.zeros((n, d))
    a = np.zeros((n, m))
    for i in range(n):
        scores = np.empty(m)
        for j in range(m):
            scores[j] = sum(q[i, t] * k[j, t] for t in range(d)) / math.sqrt(d)
            if mask[j] == 0:
                scores[j] += -1e30
        e = np.exp(scores - scores.max())
        a[i] = e / e.sum()
        for j in range(m):
            h[i] += a[i, j] * v[j]
    return h, a


def attend(y, x, params, prefix, mask=None):
    """The whole cross-modal block: its text branch, then its map side."""
    keys, values = text_keys_values(nm.Tensor(x), params, prefix, x_pad_mask=mask)
    return cross_modal_attend(nm.Tensor(y), keys, values, params, prefix, x_pad_mask=mask)


@pytest.fixture(scope="module")
def attn_params():
    return init_cross_modal(np.random.default_rng(2), D, "cm.")


def raw(params):
    return {k: np.asarray(v.data) for k, v in params.items()}


def test_cross_modal_matches_brute_force(attn_params):
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, m = int(rng.integers(2, 10)), int(rng.integers(2, 12))
        y = rng.normal(size=(n, D))
        x = rng.normal(size=(m, D))
        mask = np.ones(m)
        mask[int(rng.integers(1, m)):] = 0.0  # trailing pads
        h, attn = attend(y, x, attn_params, "cm.", mask)
        h_ref, attn_ref = np_cross_modal(y, x, raw(attn_params), "cm.", mask)
        assert np.max(np.abs(np.asarray(h.data) - h_ref)) < 1e-9
        assert np.max(np.abs(attn - attn_ref)) < 1e-9
    # a batch: leading axis B, a different pad mask per sample
    y = rng.normal(size=(3, 5, D))
    x = rng.normal(size=(3, 8, D))
    mask = np.ones((3, 8))
    mask[0, 3:] = mask[1, 7:] = mask[2, 1:] = 0.0
    h, attn = attend(y, x, attn_params, "cm.", mask)
    assert h.shape == (3, 5, D) and attn.shape == (3, 5, 8)
    for b in range(3):
        h_ref, attn_ref = np_cross_modal(y[b], x[b], raw(attn_params), "cm.", mask[b])
        assert np.max(np.abs(np.asarray(h.data[b]) - h_ref)) < 1e-9
        assert np.max(np.abs(attn[b] - attn_ref)) < 1e-9


def test_attention_rows_and_pad_columns(attn_params):
    rng = np.random.default_rng(4)
    y = rng.normal(size=(6, D))
    x = rng.normal(size=(9, D))
    mask = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0], dtype=np.float64)
    _, attn = attend(y, x, attn_params, "cm.", mask)
    assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(attn[:, 4:] == 0.0)


def test_attention_single_real_token(attn_params):
    rng = np.random.default_rng(5)
    y = rng.normal(size=(4, D))
    x = rng.normal(size=(7, D))
    mask = np.zeros(7)
    mask[2] = 1.0
    h, attn = attend(y, x, attn_params, "cm.", mask)
    assert np.allclose(attn[:, 2], 1.0)
    p = raw(attn_params)
    xs = np_self_attention(x, p, "cm.selftext.", key_mask=mask)
    expect = xs[2] @ p["cm.wv"]
    assert np.allclose(np.asarray(h.data), np.tile(expect, (4, 1)), atol=1e-9)


def test_attention_dim_mismatch(attn_params):
    with pytest.raises(ConfigError):
        attend(np.zeros((4, D)), np.zeros((5, D + 2)), attn_params, "cm.")
    wide = nm.Tensor(np.zeros((5, D + 2)))
    with pytest.raises(ConfigError):
        cross_modal_attend(nm.Tensor(np.zeros((4, D))), wide, wide, attn_params, "cm.")


def test_text_branch_gradcheck_on_a_batch(attn_params):
    """Finite differences through the text branch of a (B,M,d) batch, with a
    different pad mask per sample, into its parameters and its input."""
    rng = np.random.default_rng(6)
    x = nm.Tensor(rng.normal(size=(3, 6, D)), requires_grad=True)
    mask = np.ones((3, 6))
    mask[0, 4:] = mask[2, 1:] = 0.0
    wk, wv = rng.normal(size=(2, 3, 6, D))
    params = {n: p for n, p in attn_params.items() if ".selfmap." not in n and n != "cm.wq"}

    def loss():
        keys, values = text_keys_values(x, attn_params, "cm.", x_pad_mask=mask)
        return nm.add(nm.tsum(nm.mul(keys, nm.Tensor(wk))),
                      nm.tsum(nm.mul(values, nm.Tensor(wv))))

    report = grad_check(loss, dict(params, x=x), max_entries=6, rng=rng)
    for p in attn_params.values():
        p.grad = None
    assert max(report.values()) < 1e-6, report


# ------------------------------------------------------------ heatmap codec
def test_heatmap_center_peak():
    hm, vis = make_gt_heatmaps(np.array([[0.0, 0.0]]), 24, 24, 1.0)
    assert vis[0]
    assert hm[0, 12, 12] == 1.0
    assert hm[0].max() == 1.0


def test_heatmap_unit_offset_value():
    hm, _ = make_gt_heatmaps(np.array([[0.0, 0.0]]), 24, 24, 1.0)
    assert abs(hm[0, 12, 13] - math.exp(-0.5)) < 1e-12
    assert abs(hm[0, 11, 12] - math.exp(-0.5)) < 1e-12


def test_heatmap_off_map_zero():
    hm, vis = make_gt_heatmaps(np.array([[30.0, 0.0]]), 24, 24, 1.0)
    assert not vis[0]
    assert np.all(hm[0] == 0.0)


def test_heatmap_cell_round_trip():
    for row in range(24):
        for col in range(24):
            f, r = heatmap_cell_to_ego(row, col, 24, 24)
            assert ego_to_heatmap_cell(f, r, 24, 24) == (row, col)


def test_heatmap_codec_quantization(rng):
    """Encode then mode-decode recovers waypoints within one heatmap cell."""
    half = 12 * HEATMAP_CELL - 0.21
    ok = 0
    for _ in range(500):
        f, r = rng.uniform(-half, half, size=2)
        hm, vis = make_gt_heatmaps(np.array([[f, r]]), 24, 24, 1.0)
        assert vis[0]
        idx = np.argmax(hm[0])
        df, dr = heatmap_cell_to_ego(idx // 24, idx % 24, 24, 24)
        if math.hypot(df - f, dr - r) <= 0.4:
            ok += 1
    assert ok / 500 >= 0.99


# ------------------------------------------------------------- supervision
def test_sample_waypoints_endpoints(episode):
    wps, arcs = sample_waypoints(episode.gt_path, 10)
    assert np.allclose(wps[0], episode.gt_path[0])
    assert np.allclose(wps[-1], episode.gt_path[-1])
    assert np.allclose(np.diff(arcs), arcs[1] - arcs[0])  # uniform spacing


def test_traversed_prefix_monotone(plan, episode):
    """The traversal labels of training records: per record a prefix of
    ones, growing along the path, from the first waypoint alone at the start
    to all of them at the goal."""
    records = build_episode_records(plan, episode, 5, 10, 24, np.random.default_rng(0),
                                    **sensing())
    flags = np.stack([r.traversed for r in records]).astype(np.int64)
    assert np.all(np.diff(flags, axis=1) <= 0)
    assert np.all(np.diff(flags.sum(axis=1)) >= 0)
    assert flags[0].sum() == 1
    assert flags[-1].sum() == 10


# -------------------------------------------------------------------- model
@pytest.fixture(scope="module")
def mini():
    config = RunConfig(ego_size=24, d=D, k=3, unet_base=8, unet_depth=3,
                       n_instr_layers=1).model_config()
    return CM2Model(config, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def mini_inputs(mini):
    rng = np.random.default_rng(1)
    s = mini.config.ego_size
    occ = rng.integers(0, 3, size=(2, s, s)).astype(np.uint8)
    sem = rng.integers(0, NUM_CLASSES, size=(2, s, s)).astype(np.uint8)
    instr = [mini.encode_instruction(np.asarray(tokenize(t).tokens))
             for t in ("walk straight then stop near the bed",
                       "turn left near the table then stop")]
    u = mini.config.heatmap_size
    p0 = np.zeros((2, 1, u, u))
    p0[:, 0, u // 2, u // 2] = 1.0
    return occ, sem, instr, p0


def test_predict_maps_simplex(mini, mini_inputs):
    occ, sem, instr, _ = mini_inputs
    occ_p, sem_p, h_grid, attns = mini.predict_maps(occ, sem, instr)
    s = mini.config.ego_size
    assert occ_p.shape == (2, 3, s, s)
    assert sem_p.shape == (2, NUM_CLASSES, s, s)
    assert np.allclose(np.asarray(occ_p.data).sum(axis=1), 1.0, atol=1e-6)
    assert np.allclose(np.asarray(sem_p.data).sum(axis=1), 1.0, atol=1e-6)
    assert h_grid.shape == (2, D, 3, 3)
    assert len(attns) == 2 and attns[0].shape == (9, MAX_TOKENS)


def test_predict_path_ranges(mini, mini_inputs):
    _, sem, instr, p0 = mini_inputs
    heat, trav, _, _ = mini.predict_path(one_hot(sem, NUM_CLASSES), instr, p0)
    u = mini.config.heatmap_size
    assert heat.shape == (2, 3, u, u)
    assert trav.shape == (2, 3)
    h = np.asarray(heat.data)
    t = np.asarray(trav.data)
    assert np.all((h > 0) & (h < 1))
    assert np.all((t > 0) & (t < 1))


def test_predict_path_batch_matches_single_samples(mini, mini_inputs):
    _, sem, instr, p0 = mini_inputs
    sem = one_hot(sem, NUM_CLASSES)
    sem3 = np.concatenate([sem, sem[::-1][:1]])
    instr3 = instr + [mini.encode_instruction(np.asarray(tokenize("go to the tv").tokens))]
    p03 = np.concatenate([p0, np.roll(p0[:1], 2, axis=-1)])
    heat, trav, h_grid, attns = mini.predict_path(sem3, instr3, p03)
    assert attns.shape == (3, 9, MAX_TOKENS)
    for b in range(3):
        heat1, trav1, h_grid1, attns1 = mini.predict_path(sem3[b:b + 1], instr3[b:b + 1],
                                                          p03[b:b + 1])
        # attention runs the same products per sample; the heads after it
        # may take another BLAS kernel for a different row count
        assert np.array_equal(np.asarray(h_grid.data[b]), np.asarray(h_grid1.data[0]))
        assert np.array_equal(attns[b], attns1[0])
        np.testing.assert_allclose(heat.data[b], heat1.data[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(trav.data[b], trav1.data[0], rtol=1e-12, atol=0)


def test_model_stateless(mini, mini_inputs):
    occ, sem, instr, p0 = mini_inputs
    a1 = mini.predict_maps(occ, sem, instr)
    a2 = mini.predict_maps(occ, sem, instr)
    assert np.array_equal(np.asarray(a1[1].data), np.asarray(a2[1].data))
    b1 = mini.predict_path(one_hot(sem, NUM_CLASSES), instr, p0)
    b2 = mini.predict_path(one_hot(sem, NUM_CLASSES), instr, p0)
    assert np.array_equal(np.asarray(b1[0].data), np.asarray(b2[0].data))


def test_model_rejects_bad_shapes(mini, mini_inputs):
    occ, sem, instr, p0 = mini_inputs
    with pytest.raises(ConfigError):
        mini.predict_maps(occ[:, :12, :12], sem[:, :12, :12], instr)
    with pytest.raises(ConfigError):  # one-hot grids where label maps are expected
        mini.predict_maps(one_hot(occ, 3), one_hot(sem, NUM_CLASSES), instr)
    with pytest.raises(UsageError):  # a label past the last class
        mini.predict_maps(occ, np.full_like(sem, NUM_CLASSES), instr)
    with pytest.raises(UsageError):
        mini.predict_maps(np.full_like(occ, 3), sem, instr)
    with pytest.raises(ConfigError):
        mini.predict_path(one_hot(occ, 3), instr, p0)  # 3 channels where c expected
    with pytest.raises(ConfigError):  # a label map where a distribution is expected
        mini.predict_path(sem, instr, p0)


def test_no_map_attention_ignores_instruction(mini_inputs, monkeypatch):
    import mapnav.model.cm2 as cm2
    config = RunConfig(ego_size=24, d=D, k=3, unet_base=8, unet_depth=3,
                       n_instr_layers=1, use_map_attention=False).model_config()
    model = CM2Model(config, rng=np.random.default_rng(0))
    occ, sem, instr, _ = mini_inputs
    other = [model.encode_instruction(np.asarray(tokenize("go to the tv").tokens))
             for _ in range(2)]
    encoded = []
    real_encoder = cm2.apply_map_encoder
    monkeypatch.setattr(cm2, "apply_map_encoder",
                        lambda x, p, d, prefix: encoded.append(prefix) or real_encoder(
                            x, p, d, prefix))
    a = model.predict_maps(occ, sem, [model.encode_instruction(
        np.asarray(tokenize(t).tokens)) for t in ("walk straight", "turn left")])
    b = model.predict_maps(occ, sem, other)
    assert np.array_equal(np.asarray(a[1].data), np.asarray(b[1].data))
    # no occupancy encoder runs, so its weights cannot reach the maps
    assert encoded == []
    for name, p in model.params.items():
        if name.startswith("enc_o."):
            p.data = np.full(p.shape, np.nan)
    c = model.predict_maps(occ, sem, other)
    assert np.array_equal(np.asarray(c[1].data), np.asarray(b[1].data))
    assert c[2].shape == (2, D, config.token_grid, config.token_grid)
    assert c[3].shape == (2, config.n_tokens, 1) and not np.any(c[3])


def test_forward_chains_map_and_path_heads(mini, mini_inputs):
    occ, sem, instr, p0 = mini_inputs
    out = mini.forward("cm2", instr, p0, occ=occ, sem_obs=sem)
    occ_p, sem_p, _, _ = mini.predict_maps(occ, sem, instr)
    heat, trav, h_grid, attn = mini.predict_path(sem_p, instr, p0)
    for got, want in ((out.occ_hat, occ_p), (out.sem, sem_p), (out.heatmaps, heat),
                      (out.traversed, trav), (out.h_grid, h_grid)):
        assert np.array_equal(got.data, want.data)
    assert np.array_equal(out.attn, attn)
    # given a map: the path head reads the ground-truth semantics, no map heads run
    gt = mini.forward("cm2-gt", instr, p0, sem_gt=sem)
    heat_gt, _, _, _ = mini.predict_path(one_hot(sem, NUM_CLASSES), instr, p0)
    assert gt.occ_hat is None
    assert np.array_equal(gt.sem.data, one_hot(sem, NUM_CLASSES))
    assert np.array_equal(gt.heatmaps.data, heat_gt.data)


# ------------------------------------------------------------------- losses
def test_loss_waypoint_perfect():
    gt, _ = make_gt_heatmaps(np.array([[0.0, 0.0], [1.0, 1.0]]), 12, 12, 1.0)
    eps = 1e-6
    pred = nm.Tensor(gt.copy())
    trav = nm.Tensor(np.array([1.0 - eps, eps]))
    loss = loss_waypoint(pred, gt, np.ones(2), trav, np.array([1.0, 0.0]), lambda_aux=1.0)
    assert float(loss.data) <= 10 * -math.log(1 - eps) + 1e-9


def test_loss_waypoint_mask_semantics(rng):
    gt = np.zeros((2, 12, 12))
    pred = nm.Tensor(rng.uniform(size=(2, 12, 12)))
    trav = nm.Tensor(np.full(2, 0.5))
    masked = loss_waypoint(pred, gt, np.zeros(2), trav, np.zeros(2),
                           lambda_aux=0.0)
    assert float(masked.data) == 0.0


def test_loss_waypoint_hand_arithmetic():
    gt = np.zeros((1, 12, 12))
    pred = np.zeros((1, 12, 12))
    pred[0, 3, 4] = 0.1
    loss = loss_waypoint(nm.Tensor(pred), gt, np.ones(1),
                         nm.Tensor(np.array([0.5])), np.array([1.0]),
                         lambda_aux=0.0)
    assert float(loss.data) == pytest.approx(0.01)


def test_loss_map_closed_forms():
    occ_gt = np.zeros((1, 4, 4), dtype=np.uint8)      # label 0 everywhere
    sem_gt = np.full((1, 4, 4), 2, dtype=np.uint8)
    uniform_occ = nm.Tensor(np.full((1, 3, 4, 4), 1.0 / 3.0))
    uniform_sem = nm.Tensor(np.full((1, 13, 4, 4), 1.0 / 13.0))
    loss = loss_map(uniform_occ, uniform_sem, occ_gt, sem_gt)
    assert float(loss.data) == pytest.approx(math.log(3.0) + math.log(13.0))

    near_perfect = nm.Tensor(np.clip(one_hot(occ_gt, 3), 1e-7, 1.0 - 1e-7))
    sem_perfect = nm.Tensor(np.clip(one_hot(sem_gt, 13), 1e-7, 1.0 - 1e-7))
    tiny = loss_map(near_perfect, sem_perfect, occ_gt, sem_gt)
    assert float(tiny.data) <= 2e-6


def test_one_hot_of_label_maps():
    labels = np.array([[[0, 2], [1, 2]]], dtype=np.uint8)
    got = one_hot(labels, 3)
    assert got.shape == (1, 3, 2, 2) and got.dtype == np.float64
    assert np.array_equal(got, np.eye(3)[labels].transpose(0, 3, 1, 2))
    assert np.array_equal(one_hot(labels[0], 3), got[0])
    for bad in (3, -1):
        with pytest.raises(UsageError):
            one_hot(np.array([[bad]]), 3)


def test_loss_total_arithmetic():
    wp = nm.Tensor(np.array(0.3))
    m = nm.Tensor(np.array(0.7))
    assert float(loss_total(wp, m, 1.0, 1.0).data) == pytest.approx(1.0)
    assert float(loss_total(wp, m, 1.0, 0.0).data) == pytest.approx(0.3)


def test_loss_total_gradient_linearity(mini, mini_inputs):
    occ, sem, instr, p0 = mini_inputs
    gt_occ = occ
    gt_sem = sem
    gt_hm, vis = make_gt_heatmaps(np.array([[0.0, 0.0], [1.0, 0.4], [2.0, -1.0]]),
                                  12, 12, 1.0)
    gt_hm = np.stack([gt_hm, gt_hm])
    vis = np.stack([vis, vis]).astype(float)
    trav_gt = np.ones((2, 3))

    texts = ("walk straight then stop near the bed",
             "turn left near the table then stop")

    def forward():
        # fresh encoder graph per pass so intermediate gradients don't carry
        instr = [mini.encode_instruction(np.asarray(tokenize(t).tokens))
                 for t in texts]
        occ_p, sem_p, _, _ = mini.predict_maps(occ, sem, instr)
        heat, trav, _, _ = mini.predict_path(sem_p, instr, p0)
        l_wp = loss_waypoint(heat, gt_hm, vis, trav, trav_gt, lambda_aux=1.0)
        l_m = loss_map(occ_p, sem_p, gt_occ, gt_sem)
        return l_wp, l_m

    grads = {}
    for which in ("wp", "m", "total"):
        mini.zero_grad()
        l_wp, l_m = forward()
        loss = {"wp": l_wp, "m": l_m,
                "total": loss_total(l_wp, l_m, 1.0, 1.0)}[which]
        loss.backward()
        grads[which] = {k: (p.grad.copy() if p.grad is not None else 0.0)
                        for k, p in mini.params.items()}
    for name in grads["total"]:
        combined = grads["wp"][name] + grads["m"][name]
        assert np.max(np.abs(grads["total"][name] - combined)) < 1e-10, name
    mini.zero_grad()


# --------------------------------------------------------------- checkpoint
def test_save_load_round_trip(mini, mini_inputs, tmp_path):
    path = tmp_path / "model.ckpt"
    mini.save(path)
    clone = CM2Model.load(path)
    occ, sem, instr_old, p0 = mini_inputs
    instr = [clone.encode_instruction(np.asarray(tokenize(t).tokens))
             for t in ("walk straight then stop near the bed",
                       "turn left near the table then stop")]
    sem = one_hot(sem, NUM_CLASSES)
    a = mini.predict_path(sem, instr_old, p0)
    b = clone.predict_path(sem, instr, p0)
    assert np.array_equal(np.asarray(a[0].data), np.asarray(b[0].data))
    assert np.array_equal(np.asarray(a[1].data), np.asarray(b[1].data))


def test_load_rejects_checkpoint_names_that_differ(mini, tmp_path):
    """A checkpoint with a tensor the config does not have, or without one
    it has, is refused."""
    from dataclasses import asdict
    extra = dict(mini.params, **{"bogus.w": nm.Tensor(np.zeros(3))})
    missing = dict(mini.params)
    gone = sorted(missing)[0]
    del missing[gone]
    for params, msg in ((extra, "unexpected 'bogus.w'"), (missing, f"missing '{gone}'")):
        path = tmp_path / "bad.ckpt"
        nm.save_checkpoint(path, params, config=asdict(mini.config))
        with pytest.raises(ConfigError, match=msg):
            CM2Model.load(path)


def test_load_rejects_mismatched_config(mini, tmp_path):
    from dataclasses import asdict
    path = tmp_path / "bad.ckpt"
    wrong = asdict(RunConfig(ego_size=24, d=32, k=3, unet_base=8,
                             unet_depth=3, n_instr_layers=1).model_config())
    nm.save_checkpoint(path, mini.params, config=wrong)
    with pytest.raises(ConfigError):
        CM2Model.load(path)
    for field, value in (("unet_depth", 0), ("unet_base", 0), ("n_instr_layers", -1)):
        nm.save_checkpoint(path, mini.params, config=dict(asdict(mini.config), **{field: value}))
        with pytest.raises(ConfigError, match=field):
            CM2Model.load(path)


@pytest.mark.parametrize("ego_size", [0, -8])
def test_load_rejects_a_non_positive_ego_size(mini, tmp_path, ego_size):
    from dataclasses import asdict
    path = tmp_path / "bad.ckpt"
    nm.save_checkpoint(path, mini.params, config=dict(asdict(mini.config), ego_size=ego_size))
    with pytest.raises(ConfigError, match="ego_size must be a positive multiple of 8"):
        CM2Model.load(path)


def test_a_new_model_needs_an_rng(mini):
    with pytest.raises(UsageError, match="rng"):
        CM2Model(mini.config)


def test_load_builds_no_second_model(mini, tmp_path, monkeypatch):
    """``load`` checks the names and shapes against an init that draws
    nothing: it makes no rng, and at its peak it holds the checkpoint's
    weights once, not beside a second, randomly initialised copy (2.1x)."""
    import tracemalloc
    path = tmp_path / "model.ckpt"
    mini.save(path)
    weights = sum(p.data.nbytes for p in mini.params.values())

    def no_rng(*args, **kwargs):
        raise AssertionError("load made an rng")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    tracemalloc.start()
    try:
        clone = CM2Model.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * weights, peak / weights
    for name, p in mini.params.items():
        assert clone.params[name].data.tobytes() == p.data.tobytes(), name


# ------------------------------------------------------ instruction encoding
def test_batched_instruction_encoding_equals_single_encodings(mini):
    """Encoding a (B,M) token batch gives, byte for byte, the B encodings of
    its rows, each with a leading batch axis of one."""
    texts = ("walk straight then stop near the bed", "turn left near the table then stop",
             "go to the tv")
    ids = np.stack([np.asarray(tokenize(t).tokens) for t in texts])
    batch = mini.encode_instruction(ids)
    assert set(batch.kv) == {"attn_o.", "attn_s."}
    assert np.array_equal(batch.mask, (ids != 0).astype(float))
    for b, row in enumerate(ids):
        one = mini.encode_instruction(row)
        assert one.mask.shape == (1, MAX_TOKENS)
        assert np.array_equal(one.mask[0], batch.mask[b])
        for prefix, (keys, values) in batch.kv.items():
            assert keys.shape == values.shape == (len(texts), MAX_TOKENS, D)
            assert one.kv[prefix][0].shape == (1, MAX_TOKENS, D)
            assert np.array_equal(one.kv[prefix][0].data[0], keys.data[b])
            assert np.array_equal(one.kv[prefix][1].data[0], values.data[b])


def test_encoding_without_map_attention_holds_no_occupancy_block(mini):
    from dataclasses import replace
    config = replace(mini.config, use_map_attention=False)
    model = CM2Model(config, params=mini.params)
    enc = model.encode_instruction(np.asarray(tokenize("go to the tv").tokens))
    assert set(enc.kv) == {"attn_s."}
    assert np.array_equal(enc.kv["attn_s."][0].data,
                          mini.encode_instruction(np.asarray(tokenize("go to the tv").tokens))
                          .kv["attn_s."][0].data)


def test_forward_joins_no_channels_with_concat(mini, mini_inputs, monkeypatch):
    """Every channel join of the three UNets is conv2d's second input, so a
    forward with or without the map heads concatenates nothing along the
    channels; only the encodings are joined along the batch."""
    occ, sem, instr, p0 = mini_inputs
    axes = []
    concat = nm.concat

    def recording(tensors, axis=0):
        axes.append(axis)
        return concat(tensors, axis)

    monkeypatch.setattr(nm, "concat", recording)
    for mode in ("cm2", "cm2-gt"):
        out = mini.forward(mode, instr, p0, occ, sem, sem)
        assert out.heatmaps.requires_grad
    assert axes and set(axes) == {0}


def test_encoding_for_ground_truth_maps_holds_no_occupancy_block(mini, mini_inputs):
    occ, sem, _, p0 = mini_inputs
    ids = np.stack([np.asarray(tokenize(t).tokens) for t in ("go to the tv", "go to the bed")])
    enc = mini.encode_instruction(ids, "cm2-gt")
    assert set(enc.kv) == {"attn_s."}
    full = mini.encode_instruction(ids)
    assert np.array_equal(enc.kv["attn_s."][1].data, full.kv["attn_s."][1].data)
    gt = mini.forward("cm2-gt", [enc], p0, sem_gt=sem)
    assert np.array_equal(gt.heatmaps.data, mini.forward("cm2-gt", [full], p0, sem_gt=sem)
                          .heatmaps.data)
    with pytest.raises(ConfigError, match="attn_o"):
        mini.forward("cm2", [enc], p0, occ, sem)


# ------------------------------------------------- LeakyReLU slope oracles
def np_leaky(y):
    return np.where(y > 0, y, 0.01 * y)


def np_avg_pool2(y):
    b, c, h, w = y.shape
    return y.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def np_conv_leaky(h, params, name, padding=1):
    """One hidden conv: ``conv2d`` without its fused activation, then an
    explicit LeakyReLU of slope 0.01."""
    y = nm.conv2d(nm.Tensor(h), params[name + ".w"], params[name + ".b"], padding=padding)
    return np_leaky(np.asarray(y.data))


def test_map_encoder_matches_unfused_oracle(mini):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 24, 24))
    got = apply_map_encoder(nm.Tensor(x), mini.params, D, "enc_o.")
    h = x
    for i in range(3):
        h = np_avg_pool2(np_conv_leaky(h, mini.params, f"enc_o.c{i}"))
    assert got.shape == h.shape == (2, D, 3, 3)
    assert np.max(np.abs(np.asarray(got.data) - h)) < 1e-12


def test_unet_block_matches_unfused_oracle():
    """A one-level UNet (two encoder convs and a pool, the bottleneck, the
    2x up-conv, the skip mix and the 1x1 head) against the unfused ops."""
    spec = UNetSpec(in_ch=3, out_ch=2, base=4, depth=1, spatial=8)
    params = init_unet(np.random.default_rng(9), spec, "u.")
    rng = np.random.default_rng(10)
    for p in params.values():   # nonzero biases, so that the bias goes in before the slope
        p.data = p.data + rng.normal(0.0, 0.1, size=p.shape)
    x = rng.normal(size=(2, 3, 8, 8))
    logits, bneck = apply_unet(nm.Tensor(x), params, spec, "u.")
    skip = np_conv_leaky(x, params, "u.enc0.c1")
    h = np_avg_pool2(np_conv_leaky(skip, params, "u.enc0.c2"))
    h = np_conv_leaky(h, params, "u.bneck")
    assert np.max(np.abs(np.asarray(bneck.data) - h)) < 1e-12
    h = np_conv_leaky(h.repeat(2, axis=-2).repeat(2, axis=-1), params, "u.dec0.up")
    h = np_conv_leaky(np.concatenate([h, skip], axis=1), params, "u.dec0.mix")
    ref = nm.conv2d(nm.Tensor(h), params["u.head.w"], params["u.head.b"])
    assert np.max(np.abs(np.asarray(logits.data) - np.asarray(ref.data))) < 1e-12
