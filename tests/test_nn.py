"""The reference trainer: init and dropout bytes pinned by digest, the block
xorshift draw against the per-draw definition, and backward against central
finite differences."""

import hashlib

import numpy as np
import pytest
from oracles import finite_difference_grads, rel_err

from forge.nn import rng, spec_from_dict
from forge.nn.network import EVAL, LOSSES, TRAIN, backward, build_network, forward
from forge.nn.rng import XorShift64

DENSE_RELU = {"input_dims": [32], "layers": [
    {"name": "h", "kind": "dense", "out_units": 64},
    {"name": "r", "kind": "relu"},
    {"name": "out", "kind": "dense", "out_units": 8},
]}
DROPOUT_MLP = {"input_dims": [32], "layers": [
    {"name": "h", "kind": "dense", "out_units": 256},
    {"name": "r", "kind": "relu"},
    {"name": "d", "kind": "dropout", "keep_prob": 0.8},
    {"name": "out", "kind": "dense", "out_units": 8},
]}
SHARED = {"input_dims": [6], "layers": [
    {"name": "a", "kind": "dense", "out_units": 6, "param_key": "w"},
    {"name": "t", "kind": "tanh"},
    {"name": "b", "kind": "dense", "out_units": 6, "param_key": "w"},
    {"name": "s", "kind": "sigmoid"},
    {"name": "out", "kind": "dense", "out_units": 3},
]}


def _digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _params(state) -> dict:
    return {f"{key}.{part}": arr for key, tensors in state.params.items()
            for part, arr in tensors.items()}


# --- golden bytes: any change to the init or dropout streams shows here ---------

@pytest.mark.parametrize("spec,seed,dtype,digest", [
    (DENSE_RELU, 1, np.float32,
     "2d148faf958e2ab685300a857b07e7a87c37750ef93ba515ee64dd20e6cdd184"),
    (DENSE_RELU, 1, np.float64,
     "ae01290de0564694e3caa7d8ffeaf4625c7f6072675785ee6498f897a62ed5b8"),
    (DROPOUT_MLP, 7, np.float32,
     "1dc2d496e1272e9291c7eb558cc64bcdf391929329a4aede0355988f0e9dcbd9"),
    (DROPOUT_MLP, 7, np.float64,
     "cebccf4e20302e06ab298040877fe68dc1924c2816c31fef54c907e56fe6ad22"),
    (SHARED, 2**64 - 1, np.float32,
     "100391d516970d76def5bbdd249f3748dc89e81a48e4527a2bfca4c9556a54c3"),
    (SHARED, 2**64 - 1, np.float64,
     "df470bc7bb7636639a24b6232ac5eb033de9ff11abc7d9b036b8e42b6f4300ef"),
], ids=["dense-f32", "dense-f64", "dropout-f32", "dropout-f64", "shared-f32", "shared-f64"])
def test_build_network_bytes_are_pinned(spec, seed, dtype, digest):
    state = build_network(spec_from_dict(spec), seed, dtype=dtype)
    assert _digest(_params(state)) == digest


@pytest.mark.parametrize("step,digest", [
    (0, "9d66aa12a18545787d2c0b4e8329a18fae97c9f5f8c42c9e12eace16bd32c2f8"),
    (3, "302520521a09623544e844fb03805bc19b4203de86cf1f3bb62d7d51beed6b3a"),
])
def test_train_forward_through_dropout_is_pinned(step, digest):
    state = build_network(spec_from_dict(DROPOUT_MLP), 7)
    state.step = step
    x = (np.arange(40 * 32, dtype=np.float32).reshape(40, 32) % 11 - 5) / 4
    y, tape = forward(state, x, TRAIN)
    mask = next(saved["mask"] for layer, saved in tape if layer.kind == "dropout")
    assert _digest({"y": y, "mask": mask}) == digest


# --- the block draw against the per-draw definition -----------------------------

CHUNK = rng.LANES * rng.STEPS
COUNTS = [0, 1, rng.STEPS - 1, rng.STEPS, rng.STEPS + 1, CHUNK - 1, CHUNK, CHUNK + 1,
          2 * CHUNK + 3 * rng.STEPS + 5]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x1F2E3D4C5B6A798])
def test_block_draws_match_the_per_draw_stream(seed):
    for n in COUNTS:
        one, block = XorShift64(seed), XorShift64(seed)
        expect = [one.random() for _ in range(n)]
        got = block.fill_random(n)
        assert got.dtype == np.float64 and got.tolist() == expect, n
        assert block.state == one.state, n
        lo, hi = -0.375, 1.25
        expect = [lo + (hi - lo) * one.random() for _ in range(n)]
        assert block.fill_uniform(n, lo, hi).tolist() == expect, n
        assert block.state == one.state, n


def test_block_draws_continue_the_stream():
    one, block = XorShift64(99), XorShift64(99)
    expect = [one.random() for _ in range(CHUNK + 40)]
    got = np.concatenate([block.fill_random(17), block.fill_random(CHUNK),
                          block.fill_random(23)])
    assert got.tolist() == expect and block.state == one.state


def test_the_jump_table_is_not_built_at_import():
    import subprocess
    import sys

    code = ("import forge.engine, forge.handlers, forge.nn, forge.wire.server\n"
            "from forge.nn import rng\n"
            "assert rng._jumps is None\n"
            "rng.XorShift64(1).fill_random(1)\n"
            "assert rng._jumps.shape == (rng.LANES, 64)\n")
    subprocess.run([sys.executable, "-c", code], check=True)


# --- backward against central finite differences, in float64 ---------------------

FD_CASES = {
    "dense-relu-mse": ({"input_dims": [5], "layers": [
        {"name": "h", "kind": "dense", "out_units": 7},
        {"name": "r", "kind": "relu"},
        {"name": "out", "kind": "dense", "out_units": 3},
    ]}, "mse"),
    "sigmoid-tanh-xent": ({"input_dims": [5], "layers": [
        {"name": "h", "kind": "dense", "out_units": 6},
        {"name": "s", "kind": "sigmoid"},
        {"name": "g", "kind": "dense", "out_units": 6},
        {"name": "t", "kind": "tanh"},
        {"name": "out", "kind": "dense", "out_units": 4},
    ]}, "softmax-xent"),
    "dropout-mse": ({"input_dims": [5], "layers": [
        {"name": "h", "kind": "dense", "out_units": 8},
        {"name": "t", "kind": "tanh"},
        {"name": "d", "kind": "dropout", "keep_prob": 0.6},
        {"name": "out", "kind": "dense", "out_units": 3},
    ]}, "mse"),
    "dropout-xent": ({"input_dims": [5], "layers": [
        {"name": "h", "kind": "dense", "out_units": 8},
        {"name": "r", "kind": "relu"},
        {"name": "d", "kind": "dropout", "keep_prob": 0.5},
        {"name": "out", "kind": "dense", "out_units": 4},
    ]}, "softmax-xent"),
    "shared-mse": (SHARED, "mse"),
    "shared-xent": (SHARED, "softmax-xent"),
}


@pytest.mark.parametrize("case", sorted(FD_CASES))
def test_backward_matches_finite_differences(case):
    doc, loss = FD_CASES[case]
    spec = spec_from_dict(doc)
    state = build_network(spec, 3, dtype=np.float64)
    state.step = 5  # the dropout mask is fixed by (seed, step, layer name)
    data = np.random.default_rng(8)
    x = data.standard_normal((6, *spec.input_dims))
    out_dims = state.params["out"]["weight"].shape[1]
    target = (data.integers(0, out_dims, 6) if loss == "softmax-xent"
              else data.standard_normal((6, out_dims)))
    loss_fn = LOSSES[loss]

    def loss_of(_params):
        return loss_fn(forward(state, x, TRAIN)[0], target)[0]

    y, tape = forward(state, x, TRAIN)
    grads = backward(state, tape, loss_fn(y, target)[1])
    numeric = finite_difference_grads(loss_of, _params(state), h=1e-6)
    assert set(grads) == set(numeric)
    for name in grads:
        assert rel_err(grads[name], numeric[name]) < 1e-6, name
    if "d" in [layer.name for layer in spec.layers]:
        mask = next(saved["mask"] for layer, saved in tape if layer.name == "d")
        assert 0 < mask.sum() < mask.size  # the mask really drops units
        assert not np.array_equal(forward(state, x, TRAIN)[0], forward(state, x, EVAL)[0])
