import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rewardtune import tensorad as ta
from rewardtune.data import make_world
from rewardtune.models import (
    ImageEncoderParams,
    ModelConfig,
    TextEncoderParams,
    init_image_encoder,
    init_text_encoder,
)
from rewardtune.rewards import (
    DEFAULT_WEIGHTS,
    RewardSpec,
    collapse_target,
    combined_loss,
    reward_alignment,
    reward_clip_constraint,
    reward_collapse_probe,
    reward_image,
    reward_values,
    style_vector,
)
from rewardtune.tensorad import Tensor


def _grad_wrt(x, build):
    tape = ta.Tape()
    with tape:
        loss = build(x)
    return ta.backward(tape, loss)[x.id]


class TestRewardImage:
    def test_style_vector_is_maximum(self):
        s = Tensor(style_vector(16), requires_grad=True)
        r = reward_image(s)
        assert r.item() == 0.0
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = Tensor(rng.standard_normal(16))
            assert reward_image(x).item() <= 0.0

    def test_unit_offset_closed_form(self):
        off = np.zeros(16, dtype=np.float32)
        off[0] = 1.0
        x = Tensor(style_vector(16) + off)
        assert abs(reward_image(x).item() - (-1.0 / 16.0)) < 1e-7

    def test_gradient_matches_finite_differences(self):
        with ta.default_dtype(np.float64):
            x = Tensor(np.random.default_rng(1).standard_normal(16), requires_grad=True)
            fd = ta.finite_diff_grad(lambda p: reward_image(p["x"]), {"x": x}, h=1e-4)
            g = _grad_wrt(x, reward_image)
            rel = np.abs(g - fd["x"]) / np.maximum(np.abs(fd["x"]), 1e-6)
            assert rel.max() < 1e-3


class TestRewardAlignment:
    def test_pattern_sum_scores_one(self):
        world = make_world(0)
        prompt = (2, 5)
        x = Tensor(world.pattern_sum(prompt))
        assert abs(reward_alignment(x, prompt, world).item() - 1.0) < 1e-6

    def test_orthogonal_scores_zero(self):
        world = make_world(1)
        prompt = (0,)
        t = world.pattern_sum(prompt).astype(np.float64)
        v = np.random.default_rng(2).standard_normal(16)
        v -= (v @ t) / (t @ t) * t
        r = reward_alignment(Tensor(v), prompt, world).item()
        assert abs(r) < 1e-6

    def test_negated_pattern_scores_minus_one(self):
        world = make_world(3)
        prompt = (4, 6, 7)
        x = Tensor(-world.pattern_sum(prompt))
        assert abs(reward_alignment(x, prompt, world).item() + 1.0) < 1e-6

    def test_zero_norm_rejected(self):
        world = make_world(0)
        with pytest.raises(ValueError, match="zero"):
            reward_alignment(Tensor(np.zeros(16)), (1,), world)


def _const_embedding_encoders(img_b2, txt_b2):
    """Encoders whose outputs are exactly their final biases (all weights 0)."""
    cfg = ModelConfig()
    img = ImageEncoderParams(
        w1=Tensor(np.zeros((cfg.d, cfg.hidden))),
        b1=Tensor(np.zeros(cfg.hidden)),
        w2=Tensor(np.zeros((cfg.hidden, cfg.c_width))),
        b2=Tensor(np.asarray(img_b2, dtype=np.float32)),
    )
    txt = TextEncoderParams(
        embed=Tensor(np.zeros((cfg.vocab, cfg.e_width))),
        w1=Tensor(np.zeros((cfg.e_width, cfg.hidden))),
        b1=Tensor(np.zeros(cfg.hidden)),
        w2=Tensor(np.zeros((cfg.hidden, cfg.c_width))),
        b2=Tensor(np.asarray(txt_b2, dtype=np.float32)),
    )
    return img, txt


class TestRewardClipConstraint:
    def test_identical_direction_scores_one(self):
        v = np.linspace(1.0, 2.0, 8)
        img, txt = _const_embedding_encoders(v, 2.0 * v)
        r = reward_clip_constraint(Tensor(np.ones(16)), (3,), img, txt)
        assert abs(r.item() - 1.0) < 1e-6

    def test_orthogonal_scores_zero(self):
        a = np.zeros(8)
        a[0] = 1.0
        b = np.zeros(8)
        b[1] = 1.0
        img, txt = _const_embedding_encoders(a, b)
        r = reward_clip_constraint(Tensor(np.ones(16)), (3,), img, txt)
        assert abs(r.item()) < 1e-7

    def test_gradient_reaches_x_and_text_params(self):
        world_x = np.random.default_rng(3).standard_normal(16)
        img = init_image_encoder(1)
        txt = init_text_encoder(2)
        txt.set_requires_grad(True)
        x = Tensor(world_x, requires_grad=True)
        tape = ta.Tape()
        with tape:
            r = reward_clip_constraint(x, (3, 1), img, txt)
        g = ta.backward(tape, r)
        assert np.any(g[x.id] != 0)
        assert np.any(g[txt.w2.id] != 0)
        assert np.any(g[txt.embed.id][1] != 0)
        # image encoder was not marked trainable, so it gets no grads
        assert img.w1.id not in g

    def test_zero_norm_embedding_rejected(self):
        img, txt = _const_embedding_encoders(np.zeros(8), np.ones(8))
        with pytest.raises(ValueError, match="zero"):
            reward_clip_constraint(Tensor(np.ones(16)), (0,), img, txt)


class TestRewardCollapseProbe:
    def test_fixed_point_scores_zero(self):
        c0 = collapse_target(16)
        assert reward_collapse_probe(Tensor(c0)).item() == 0.0

    def test_gradient_points_toward_target(self):
        c0 = collapse_target(16).astype(np.float64)
        delta = np.random.default_rng(4).standard_normal(16) * 0.5
        x = Tensor(c0 + delta, requires_grad=True)
        g = _grad_wrt(x, reward_collapse_probe)
        # ascending the reward moves x toward c0: grad = -2 delta / D
        assert np.allclose(g, -2.0 * delta / 16.0, atol=1e-6)

    def test_equidistant_inputs_score_equally(self):
        c0 = collapse_target(16).astype(np.float64)
        v = np.random.default_rng(5).standard_normal(16)
        a = reward_collapse_probe(Tensor(c0 + v)).item()
        b = reward_collapse_probe(Tensor(c0 - v)).item()
        assert abs(a - b) < 1e-7

    def test_prompt_independent_by_construction(self):
        x = Tensor(np.random.default_rng(6).standard_normal(16))
        assert reward_collapse_probe(x).item() == reward_collapse_probe(x).item()


class TestRewardSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown reward kind"):
            RewardSpec(entries=(("aesthetic", 1.0),))

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            RewardSpec(entries=(("alignment", float("nan")),))

    def test_default_weights(self):
        spec = RewardSpec.default()
        assert dict(spec.entries) == DEFAULT_WEIGHTS
        assert DEFAULT_WEIGHTS == {"clip-constraint": 100.0, "image-style": 1.0, "alignment": 100.0}

    def test_from_config(self):
        spec = RewardSpec.from_config(
            [{"kind": "image-style", "weight": 2}, {"kind": "alignment", "weight": 0.5}]
        )
        assert spec.entries == (("image-style", 2.0), ("alignment", 0.5))
        with pytest.raises(ValueError, match="unknown"):
            RewardSpec.from_config([{"kind": "hps", "weight": 1}])

    @pytest.mark.parametrize("entry", [{"kind": "hps", "weight": 1},
                                       {"kind": "alignment", "weight": [1]},
                                       {"kind": "alignment", "weight": float("nan")}])
    def test_from_config_names_the_bad_entry(self, entry):
        with pytest.raises(ValueError, match=r"^rewards\[1\]: "):
            RewardSpec.from_config([{"kind": "image-style", "weight": 1}, entry])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_from_config_rejects_non_finite_weight_as_not_a_number(self, weight):
        with pytest.raises(ValueError,
                           match=rf"^rewards\[0\]: weight must be a number, got {weight!r}$"):
            RewardSpec.from_config([{"kind": "alignment", "weight": weight}])


class TestCombinedLoss:
    def _context(self, seed=0):
        world = make_world(seed)
        return dict(world=world, image_params=init_image_encoder(seed + 1),
                    text_params=init_text_encoder(seed + 2))

    def test_single_reward_half_gives_minus_half(self):
        # craft x_hat with cos(x_hat, target) = 0.5 exactly
        world = make_world(7)
        prompt = (1,)
        t = world.pattern_sum(prompt).astype(np.float64)
        t_hat = t / np.linalg.norm(t)
        v = np.random.default_rng(8).standard_normal(16)
        v -= (v @ t_hat) * t_hat
        v /= np.linalg.norm(v)
        x = Tensor(0.5 * t_hat + np.sqrt(0.75) * v)
        spec = RewardSpec(entries=(("alignment", 1.0),))
        loss = combined_loss(x, prompt, spec, world=world)
        assert abs(loss.item() - (-0.5)) < 1e-6

    def test_all_zero_weights_give_zero_loss_and_grad(self):
        ctx = self._context()
        spec = RewardSpec(entries=(("alignment", 0.0), ("image-style", 0.0)))
        x = Tensor(np.ones(16), requires_grad=True)
        tape = ta.Tape()
        with tape:
            loss = combined_loss(x, (1,), spec, **ctx)
        assert loss.item() == 0.0
        g = ta.backward(tape, loss)
        # x never entered the graph, so no gradient flows to it at all
        assert x.id not in g

    def test_linearity_over_spec_union(self):
        ctx = self._context(1)
        x = Tensor(np.random.default_rng(9).standard_normal(16))
        prompt = (2, 3)
        a = RewardSpec(entries=(("image-style", 1.0), ("alignment", 100.0)))
        b = RewardSpec(entries=(("clip-constraint", 100.0),))
        both = RewardSpec(entries=a.entries + b.entries)
        la = combined_loss(x, prompt, a, **ctx).item()
        lb = combined_loss(x, prompt, b, **ctx).item()
        lab = combined_loss(x, prompt, both, **ctx).item()
        assert lab == np.float32(np.float32(la) + np.float32(lb))

    def test_weight_scaling_scales_gradient_exactly(self):
        ctx = self._context(2)
        prompt = (4,)
        base = np.random.default_rng(10).standard_normal(16)

        def grad_with(weight):
            x = Tensor(base, requires_grad=True)
            spec = RewardSpec(entries=(("alignment", weight),))
            tape = ta.Tape()
            with tape:
                loss = combined_loss(x, prompt, spec, **ctx)
            return ta.backward(tape, loss)[x.id]

        g1 = grad_with(0.25)
        g4 = grad_with(1.0)
        assert np.array_equal(g4, 4.0 * g1)

    def test_unknown_kind_at_dispatch(self):
        spec = RewardSpec(entries=(("alignment", 1.0),))
        object.__setattr__(spec, "entries", (("bogus", 1.0),))
        with pytest.raises(ValueError, match="unknown reward kind"):
            combined_loss(Tensor(np.ones(16)), (1,), spec, world=make_world(0))

    def test_missing_context_rejected(self):
        spec = RewardSpec(entries=(("alignment", 1.0),))
        with pytest.raises(ValueError, match="needs a world"):
            combined_loss(Tensor(np.ones(16)), (1,), spec)
        spec = RewardSpec(entries=(("clip-constraint", 1.0),))
        with pytest.raises(ValueError, match="both encoders"):
            combined_loss(Tensor(np.ones(16)), (1,), spec)

    def test_gradient_matches_finite_differences(self):
        with ta.default_dtype(np.float64):
            world = make_world(3)
            img = init_image_encoder(4)
            txt = init_text_encoder(5)
            txt.set_requires_grad(True)
            prompt = (0, 2)
            spec = RewardSpec.default()
            named = dict(txt.named())
            named["x"] = Tensor(
                np.random.default_rng(11).standard_normal(16), requires_grad=True
            )

            def run(p):
                tp = TextEncoderParams(**{f: p[f"text/{f}"] for f in
                                          ("embed", "w1", "b1", "w2", "b2")})
                return combined_loss(p["x"], prompt, spec, world=world,
                                     image_params=img, text_params=tp)

            fd = ta.finite_diff_grad(run, named, h=1e-4)
            tape = ta.Tape()
            with tape:
                loss = run(named)
            g = ta.backward(tape, loss)
            for name, t in named.items():
                mask = np.abs(fd[name]) > 1e-6
                if mask.any():
                    rel = np.abs(g[t.id][mask] - fd[name][mask]) / np.abs(fd[name][mask])
                    assert rel.max() < 1e-3, name

    def test_reward_values_readout(self):
        ctx = self._context(4)
        x = Tensor(np.random.default_rng(12).standard_normal(16))
        spec = RewardSpec.default()
        vals = reward_values(x, (1, 2), spec, **ctx)
        assert set(vals) == {"clip-constraint", "image-style", "alignment"}
        assert vals["image-style"] <= 0.0
        assert -1.0 - 1e-6 <= vals["alignment"] <= 1.0 + 1e-6


# combined_loss on (B, D) rows against B per-item calls on one tape, their
# losses added in order and times 1/B (what batch_mean reproduces): the
# losses, the readouts in ``values`` and the gradients of x_hat and of the
# text encoder, byte for byte in float32 and float64

_ROW_SPECS = {
    "default": RewardSpec.default(),
    "collapse": RewardSpec(entries=(("clip-constraint", 0.0),
                                    ("degenerate-collapse-probe", 1.0))),
    "all-zero": RewardSpec(entries=(("image-style", 0.0), ("clip-constraint", 0.0))),
}


@pytest.mark.parametrize("name", sorted(_ROW_SPECS))
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_combined_loss_rows_match_per_item(name, data):
    spec, world = _ROW_SPECS[name], make_world(0)
    batch = data.draw(st.integers(1, 6))
    tokens = st.lists(st.sampled_from(world.token_ids), min_size=1, max_size=3, unique=True)
    prompts = [tuple(data.draw(tokens)) for _ in range(batch)]
    xs = data.draw(hnp.arrays(np.float64, (batch, world.d), elements=st.floats(0.05, 2.0)))
    for dtype in (np.float32, np.float64):
        with ta.default_dtype(dtype):
            text, image = init_text_encoder(2), init_image_encoder(1)
            text.set_requires_grad(True)
            x, values = Tensor(xs, requires_grad=True), {}
            with ta.Tape() as tape:
                losses = combined_loss(x, prompts, spec, world=world, image_params=image,
                                       text_params=text, values=values)
                loss = ta.batch_mean(losses)
            got = ta.backward(tape, loss)

            items = [Tensor(row, requires_grad=True) for row in xs]
            item_values = [{} for _ in prompts]
            with ta.Tape() as tape:
                per_item = [combined_loss(xi, p, spec, world=world, image_params=image,
                                          text_params=text, values=v)
                            for xi, p, v in zip(items, prompts, item_values)]
                total = per_item[0]
                for li in per_item[1:]:
                    total = ta.add(total, li)
                want_loss = ta.mul(total, 1.0 / batch)
            want = ta.backward(tape, want_loss)

        assert losses.data.shape == (batch,)
        assert [v.tobytes() for v in losses.data] == [li.data.tobytes() for li in per_item]
        assert loss.data.tobytes() == want_loss.data.tobytes()
        assert {k: [float(v) for v in vals] for k, vals in values.items()} == {
            k: [v[k] for v in item_values] for k in item_values[0]}
        for i, xi in enumerate(items):
            if xi.id in want:
                assert got[x.id][i].tobytes() == want[xi.id].tobytes(), (dtype, i)
            else:
                assert x.id not in got
        for t in text.tensors():
            assert (got[t.id].tobytes() if t.id in got else None) == (
                want[t.id].tobytes() if t.id in want else None), dtype
