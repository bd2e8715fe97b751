import json

import numpy as np
import pytest

from capgram import grammar as gr


def test_face_grammar_or_likelihoods_sum_to_one():
    g = gr.builtin_face_grammar()
    for symbol, alts in g.or_rules.items():
        assert sum(p for _, p in alts) == pytest.approx(1.0, abs=1e-9)


def test_face_grammar_four_parts_every_sample():
    g = gr.builtin_face_grammar()
    for seed in range(20):
        _, manifest = gr.sample_scene(g, np.random.default_rng(seed), 32, label=1)
        assert [p["name"] for p in manifest["parts"]] == [
            "left_eye",
            "right_eye",
            "nose",
            "mouth",
        ]


def test_face_grammar_acyclic_and_grounded():
    gr.builtin_face_grammar()  # construction runs the checks
    with pytest.raises(ValueError, match="cycle"):
        gr.SceneGrammar(
            terminals={0: gr.FACE_GLYPHS[0]},
            or_rules={"a": [("b", 1.0)], "b": [("a", 1.0)]},
            and_rules={},
            start="a",
        )
    with pytest.raises(ValueError, match="no rule"):
        gr.SceneGrammar(terminals={}, or_rules={}, and_rules={}, start="ghost")
    with pytest.raises(ValueError, match="sum"):
        gr.SceneGrammar(
            terminals={0: gr.FACE_GLYPHS[0]},
            or_rules={"a": [(0, 0.7)]},
            and_rules={},
            start="a",
        )


def test_distractor_grammar_properties():
    g = gr.builtin_distractor_grammar()
    face_glyphs = set(gr.builtin_face_grammar().terminals)
    assert set(g.terminals).isdisjoint(face_glyphs)
    for symbol, alts in g.or_rules.items():
        assert sum(p for _, p in alts) == pytest.approx(1.0, abs=1e-9)
    for seed in range(20):
        _, manifest = gr.sample_scene(g, np.random.default_rng(seed), 32, label=0)
        assert 3 <= len(manifest["parts"]) <= 5
        assert all(p["glyph"] in g.terminals for p in manifest["parts"])


def test_sampling_deterministic_given_seed():
    g = gr.builtin_face_grammar()
    img1, man1 = gr.sample_scene(g, np.random.default_rng(42), 32, label=1)
    img2, man2 = gr.sample_scene(g, np.random.default_rng(42), 32, label=1)
    np.testing.assert_array_equal(img1, img2)
    assert [p["box"] for p in man1["parts"]] == [p["box"] for p in man2["parts"]]


def test_zero_jitter_places_exact_offsets():
    g = gr.builtin_face_grammar()
    g.and_rules["face"] = [(c, off, 0) for c, off, _ in g.and_rules["face"]]
    _, manifest = gr.sample_scene(g, np.random.default_rng(0), 32, label=1)
    centers = {
        p["name"]: ((p["box"][0] + p["box"][2]) // 2, (p["box"][1] + p["box"][3]) // 2)
        for p in manifest["parts"]
    }
    assert centers["left_eye"] == (10, 11)
    assert centers["right_eye"] == (10, 21)
    assert centers["nose"] == (16, 16)
    assert centers["mouth"] == (22, 16)


def test_manifest_replay_is_bit_exact():
    face = gr.builtin_face_grammar()
    dist = gr.builtin_distractor_grammar()
    for seed in range(10):
        for g in (face, dist):
            img, manifest = gr.sample_scene(g, np.random.default_rng(seed), 32)
            np.testing.assert_array_equal(gr.render_manifest(g, manifest, 32), img)


def _stamped(grammar, manifest, canvas=32):
    """The manifest's image before the clamp, built without render_manifest:
    each part's glyph added at its box by slicing."""
    img = np.zeros((1, canvas, canvas))
    for part in manifest["parts"]:
        y0, x0, y1, x1 = part["box"]
        img[0, y0:y1, x0:x1] += grammar.terminals[part["glyph"]]
    return img


def test_render_manifest_matches_stamped_glyphs():
    face = gr.builtin_face_grammar()
    overlapping = {"label": 1, "parts": [
        {"name": "a", "glyph": 0, "box": [8, 8, 15, 15]},
        {"name": "b", "glyph": 0, "box": [10, 10, 17, 17]},
    ]}
    assert _stamped(face, overlapping).max() == 2.0  # the clamp has work to do
    cases = [(face, overlapping)]
    for label, g in ((1, face), (0, gr.builtin_distractor_grammar())):
        for seed in range(3):
            cases.append((g, gr.sample_scene(g, np.random.default_rng(seed), 32, label=label)[1]))
    for g, manifest in cases:
        np.testing.assert_array_equal(gr.render_manifest(g, manifest, 32), np.clip(_stamped(g, manifest), 0.0, 1.0))


def test_boxes_inside_canvas_and_overlap_bounded():
    g = gr.builtin_face_grammar()
    for seed in range(50):
        _, manifest = gr.sample_scene(g, np.random.default_rng(seed), 32, label=1)
        boxes = [p["box"] for p in manifest["parts"]]
        for y0, x0, y1, x1 in boxes:
            assert 0 <= y0 < y1 <= 32 and 0 <= x0 < x1 <= 32
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert gr._box_overlap_fraction(boxes[i], boxes[j]) <= gr.MAX_BOX_OVERLAP


def test_canvas_too_small_errors():
    g = gr.builtin_face_grammar()
    with pytest.raises(ValueError, match="canvas"):
        gr.sample_scene(g, np.random.default_rng(0), 16, label=1)


def test_or_sampling_frequencies_match_likelihoods():
    # binomial 3-sigma band around p = 0.5 over many samples
    g = gr.builtin_face_grammar()
    n = 10_000
    rng = np.random.default_rng(7)
    count_glyph0 = 0
    for _ in range(n):
        _, manifest = gr.sample_scene(g, rng, 32, label=1)
        count_glyph0 += manifest["parts"][0]["glyph"] == 0
    sigma = np.sqrt(n * 0.25)
    assert abs(count_glyph0 - n * 0.5) <= 3 * sigma


# ---------------------------------------------------------------------------
# part swap


def _face_scene(seed=3):
    g = gr.builtin_face_grammar()
    return gr.sample_scene(g, np.random.default_rng(seed), 32, label=1)


def test_swap_equal_boxes_is_involution():
    img, manifest = _face_scene()
    swapped, man2 = gr.part_swap(img, manifest, np.random.default_rng(1))
    assert man2["swap"] is not None and man2["label"] == manifest["label"]
    back, _ = gr.part_swap(swapped, man2, np.random.default_rng(1))
    np.testing.assert_array_equal(back, img)


def test_swap_moves_each_box_content_exactly():
    img = np.zeros((1, 32, 32))
    img[0, 2:9, 2:9] = np.arange(49.0).reshape(7, 7)
    img[0, 20:27, 11:18] = -np.arange(49.0).reshape(7, 7)
    manifest = {
        "label": 0,
        "parts": [
            {"name": "a", "glyph": 0, "box": [2, 2, 9, 9]},
            {"name": "b", "glyph": 1, "box": [20, 11, 27, 18]},
        ],
    }
    swapped, man2 = gr.part_swap(img, manifest, np.random.default_rng(0))
    assert man2["swap"] == [0, 1]
    np.testing.assert_array_equal(swapped[0, 2:9, 2:9], img[0, 20:27, 11:18])
    np.testing.assert_array_equal(swapped[0, 20:27, 11:18], img[0, 2:9, 2:9])


def test_swap_leaves_outside_pixels_untouched():
    img, manifest = _face_scene()
    swapped, man2 = gr.part_swap(img, manifest, np.random.default_rng(2))
    i, j = man2["swap"]
    mask = np.ones((32, 32), dtype=bool)
    for idx in (i, j):
        y0, x0, y1, x1 = manifest["parts"][idx]["box"]
        mask[y0:y1, x0:x1] = False
    np.testing.assert_array_equal(swapped[0][mask], img[0][mask])
    assert img[0][mask].sum() == swapped[0][mask].sum()


def test_swap_preserves_glyph_multiset():
    img, manifest = _face_scene()
    _, man2 = gr.part_swap(img, manifest, np.random.default_rng(3))
    assert sorted(p["glyph"] for p in man2["parts"]) == sorted(p["glyph"] for p in manifest["parts"])


def test_swap_passes_other_keys_through_and_leaves_input_intact():
    img, manifest = _face_scene()
    record = {"index": 5, **manifest}
    before = json.dumps(record, sort_keys=True)
    _, swapped = gr.part_swap(img, record, np.random.default_rng(3))
    assert json.dumps(record, sort_keys=True) == before
    assert swapped["index"] == 5 and set(swapped) == {"index", "label", "parts", "swap"}


def test_swap_needs_two_parts():
    img, manifest = _face_scene()
    manifest["parts"] = manifest["parts"][:1]
    with pytest.raises(ValueError, match="at least two"):
        gr.part_swap(img, manifest, np.random.default_rng(0))


def test_swap_all_overlapping_errors():
    img, manifest = _face_scene()
    box = manifest["parts"][0]["box"]
    manifest["parts"] = [dict(p, box=box) for p in manifest["parts"]]
    with pytest.raises(ValueError, match="overlap"):
        gr.part_swap(img, manifest, np.random.default_rng(0))


def test_swap_rejects_unequal_boxes():
    img = np.zeros((1, 32, 32))
    img[0, 2:6, 2:6] = 1.0  # 4x4 block of ones
    img[0, 10:18, 10:18] = 0.5  # 8x8 block of halves
    manifest = {
        "label": 1,
        "parts": [
            {"name": "a", "glyph": 0, "box": [2, 2, 6, 6]},
            {"name": "b", "glyph": 1, "box": [10, 10, 18, 18]},
        ],
    }
    before = img.copy()
    with pytest.raises(ValueError, match="unequal boxes"):
        gr.part_swap(img, manifest, np.random.default_rng(0))
    np.testing.assert_array_equal(img, before)
