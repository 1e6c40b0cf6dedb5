import math
from types import SimpleNamespace

import numpy as np
import pytest

from gradcheck import grad_check
import mapnav.numerics as nm
from mapnav.errors import UsageError
from mapnav.language import (
    MAX_TOKENS, PAD_ID, UNK_ID, VOCAB_SIZE, WORDS, WORD_TO_ID,
    detokenize, encode_instruction, generate_instruction,
    init_instruction_params, tokenize,
)
from mapnav.worldsim import (
    CLASS_ID, FLOOR, WALL, Floorplan, generate_episode, generate_floorplan,
)


def box_room(size=64):
    grid = np.full((size, size), FLOOR, dtype=np.uint8)
    grid[0, :] = grid[-1, :] = WALL
    grid[:, 0] = grid[:, -1] = WALL
    return Floorplan(grid=grid, seed=0)


def fake_episode(path):
    return SimpleNamespace(gt_path=np.asarray(path, dtype=np.float64))


def straight(a, b, n=40):
    return np.linspace(a, b, n)


# ----------------------------------------------------------------- tokenizer
def test_vocab_structure():
    assert WORDS[PAD_ID] == "<pad>"
    assert WORDS[UNK_ID] == "<unk>"
    assert len(set(WORDS)) == VOCAB_SIZE  # bijective
    assert all(WORD_TO_ID[w] == i for i, w in enumerate(WORDS))


def test_tokenize_empty():
    rec = tokenize("")
    assert rec.tokens == [PAD_ID] * MAX_TOKENS
    assert rec.length == 0


def test_tokenize_short_sentence():
    rec = tokenize("stop near the sink")
    assert rec.length == 4
    assert rec.tokens[:4] == [WORD_TO_ID[w] for w in ("stop", "near", "the", "sink")]
    assert rec.tokens[4:] == [PAD_ID] * (MAX_TOKENS - 4)


def test_tokenize_unknown_and_case():
    rec = tokenize("Walk QUICKLY")
    assert rec.tokens[0] == WORD_TO_ID["walk"]
    assert rec.tokens[1] == UNK_ID


def test_tokenize_truncates():
    rec = tokenize("walk " * 50)
    assert rec.length == MAX_TOKENS
    assert len(rec.tokens) == MAX_TOKENS


# ------------------------------------------------------------------- grammar
def test_grammar_straight_to_sink():
    plan = box_room()
    plan.grid[15, 30] = CLASS_ID["sink"]  # cell center (6.1, 3.1)
    ep = fake_episode(straight([2.0, 3.1], [5.6, 3.1]))
    assert generate_instruction(ep, plan) == "walk straight then stop near the sink"


def test_grammar_left_turn_near_table():
    plan = box_room()
    plan.grid[25, 40] = CLASS_ID["table"]  # near the turn point (8.0, 5.0)
    path = np.vstack([straight([3.0, 4.5], [8.1, 4.5]),
                      straight([8.1, 4.7], [8.1, 9.0])])
    text = generate_instruction(fake_episode(path), plan)
    words = text.split()
    i = words.index("turn")
    assert words[i + 1] == "left"
    assert "table" in words[i:]


def test_grammar_right_turn_direction():
    plan = box_room()
    path = np.vstack([straight([3.0, 9.0], [8.1, 9.0]),
                      straight([8.1, 8.8], [8.1, 4.0])])
    text = generate_instruction(fake_episode(path), plan)
    assert "turn right" in text


def test_grammar_room_fallback_without_objects():
    plan = box_room()
    ep = fake_episode(straight([2.0, 3.0], [6.0, 3.0]))
    text = generate_instruction(ep, plan)
    assert text.startswith("walk straight then stop in the")


def test_grammar_deterministic(plan, episode):
    a = generate_instruction(episode, plan)
    b = generate_instruction(episode, plan)
    assert a == b


def test_grammar_tokenize_round_trip():
    """Every generated instruction survives tokenize/detokenize unchanged
    (grammar vocabulary is a subset of the tokenizer vocabulary)."""
    n = 0
    for fp_seed in range(10):
        plan = generate_floorplan(fp_seed, 64)
        for s in range(20):
            ep = generate_episode(plan, s)
            rec = tokenize(ep.instruction_text)
            assert UNK_ID not in rec.tokens
            if rec.length < MAX_TOKENS:  # truncation loses words by design
                assert detokenize(rec.tokens) == ep.instruction_text
            n += 1
    assert n == 200


# ------------------------------------------------------------------- encoder
D = 16
LAYERS = 2


@pytest.fixture(scope="module")
def instr_params():
    return init_instruction_params(np.random.default_rng(0), D, VOCAB_SIZE, LAYERS)


def toks(text):
    return np.asarray(tokenize(text).tokens)


def np_encoder(ids, p, d, n_layers=2, prefix="instr."):
    """Loop reference of the encoder: each query attends over the real
    tokens only, and pad rows of the output are zero."""
    real = np.flatnonzero(ids != PAD_ID)
    pos, i = np.arange(len(ids))[:, None], np.arange(d)[None, :]
    angle = pos / 10000.0 ** (2 * (i // 2) / d)
    x = p[prefix + "embed"][ids] + np.where(i % 2 == 0, np.sin(angle), np.cos(angle))

    def norm(v, g, b):
        mu, var = v.mean(axis=-1, keepdims=True), v.var(axis=-1, keepdims=True)
        return g * (v - mu) / np.sqrt(var + 1e-5) + b

    for l in range(n_layers):
        w = {k[len(f"{prefix}l{l}."):]: v for k, v in p.items()
             if k.startswith(f"{prefix}l{l}.")}
        h = norm(x, w["ln1.g"], w["ln1.b"])
        q, k, v = h @ w["wq"], h @ w["wk"], h @ w["wv"]
        mixed = np.zeros_like(x)
        for r in range(len(ids)):
            s = k[real] @ q[r] / math.sqrt(d)
            e = np.exp(s - s.max())
            mixed[r] = (e / e.sum()) @ v[real]
        x = x + mixed @ w["wo"]
        h = np.maximum(norm(x, w["ln2.g"], w["ln2.b"]) @ w["ff1.w"] + w["ff1.b"], 0.0)
        x = x + h @ w["ff2.w"] + w["ff2.b"]
    out = x @ p[prefix + "final.w"] + p[prefix + "final.b"]
    out[ids == PAD_ID] = 0.0
    return out


def test_encoder_matches_numpy_reference(instr_params):
    raw = {k: np.asarray(v.data) for k, v in instr_params.items()}
    for text in ("walk straight then stop near the bed", "turn", "go " * 40):
        ids = toks(text)
        x = encode_instruction(ids, instr_params, D, LAYERS)
        np.testing.assert_allclose(x.data, np_encoder(ids, raw, D, n_layers=LAYERS),
                                   rtol=0, atol=1e-12)
    one = init_instruction_params(np.random.default_rng(1), D, VOCAB_SIZE, 1)
    raw = {k: np.asarray(v.data) for k, v in one.items()}
    ids = toks("turn left near the table")
    x = encode_instruction(ids, one, D, 1)
    np.testing.assert_allclose(x.data, np_encoder(ids, raw, D, n_layers=1), rtol=0, atol=1e-12)


def test_encoder_shape_and_determinism(instr_params):
    x = encode_instruction(toks("walk straight then stop"), instr_params, D, LAYERS)
    assert x.shape == (MAX_TOKENS, D)
    y = encode_instruction(toks("walk straight then stop"), instr_params, D, LAYERS)
    assert np.array_equal(np.asarray(x.data), np.asarray(y.data))


def test_encoder_all_pad_is_zero(instr_params):
    x = encode_instruction(np.zeros(MAX_TOKENS, dtype=np.int64), instr_params, D, LAYERS)
    assert np.all(np.asarray(x.data) == 0.0)


def test_encoder_pad_rows_zero(instr_params):
    rec = tokenize("turn left near the table")
    x = np.asarray(encode_instruction(np.asarray(rec.tokens), instr_params, D, LAYERS).data)
    assert np.all(x[rec.length:] == 0.0)
    assert np.any(x[:rec.length] != 0.0)


def test_encoder_position_sensitivity(instr_params):
    a = toks("turn left then right")
    b = toks("turn right then left")
    xa = np.asarray(encode_instruction(a, instr_params, D, LAYERS).data)
    xb = np.asarray(encode_instruction(b, instr_params, D, LAYERS).data)
    assert not np.allclose(xa, xb)


def test_encoder_pad_embedding_irrelevant(instr_params):
    ids = toks("walk to the sofa")
    before = np.asarray(encode_instruction(ids, instr_params, D, LAYERS).data).copy()
    embed = instr_params["instr.embed"]
    old = embed.data[PAD_ID].copy()
    embed.data[PAD_ID] = 123.0
    try:
        after = np.asarray(encode_instruction(ids, instr_params, D, LAYERS).data)
    finally:
        embed.data[PAD_ID] = old
    n = tokenize("walk to the sofa").length
    assert np.allclose(before[:n], after[:n], atol=1e-12)


def test_encoder_rejects_out_of_vocab_id(instr_params):
    bad = np.zeros(MAX_TOKENS, dtype=np.int64)
    bad[0] = VOCAB_SIZE + 5
    with pytest.raises(UsageError):
        encode_instruction(bad, instr_params, D, LAYERS)


def test_encoder_gradcheck(instr_params):
    ids = toks("turn left near the bed then stop")

    def loss():
        return nm.tsum(encode_instruction(ids, instr_params, D, LAYERS))

    report = grad_check(loss, instr_params, eps=1e-5, max_entries=4,
                        rng=np.random.default_rng(3))
    assert max(report.values()) < 1e-4
