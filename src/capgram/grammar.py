"""Executable AND-OR scene grammars with spatial offsets.

An AND-rule composes a symbol from child symbols at fixed offsets (with
optional integer jitter); an OR-rule picks one alternative per likelihood.
Leaves are glyph ids that index fixed 7x7 bitmaps stamped additively onto
the canvas and clamped to [0, 1]. Sampling records every placed part's
bounding box, in stamping order, so a scene can be replayed bit-exactly.

A manifest is one record, the JSON line ``dataset`` stores: ``{"label", "parts":
[{"name", "glyph", "box": [y0, x0, y1, x1]}]}``, end-exclusive; extra keys pass through.

The part-swap corruption exchanges the contents of two part boxes of equal
extent (every built-in glyph is 7x7), which preserves the parts but violates
the composition — the probe for parse-tree-like models.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

GLYPH_SIZE = 7
MAX_BOX_OVERLAP = 0.20
JITTER_RETRIES = 10  # placements that leave the canvas
OVERLAP_RETRIES = 100  # placements whose boxes overlap too much (~35% of
# face jitter draws push nose/mouth past the overlap bound, so this cap
# needs enough headroom to make exhaustion astronomically unlikely)


def _glyph(rows):
    """Decode '.'/'+'/'#' art into a float bitmap (0 / 0.5 / 1)."""
    value = {".": 0.0, "+": 0.5, "#": 1.0}
    arr = np.array([[value[ch] for ch in row] for row in rows], dtype=np.float64)
    if arr.shape != (GLYPH_SIZE, GLYPH_SIZE):
        raise ValueError(f"glyph must be {GLYPH_SIZE}x{GLYPH_SIZE}, got {arr.shape}")
    return arr


FACE_GLYPHS = {
    0: _glyph([  # round eye
        ".#####.",
        "#.....#",
        "#..#..#",
        "#..#..#",
        "#.....#",
        ".#####.",
        ".......",
    ]),
    1: _glyph([  # slit eye
        ".......",
        ".......",
        "#######",
        "..###..",
        "#######",
        ".......",
        ".......",
    ]),
    2: _glyph([  # wedge nose
        "...#...",
        "...#...",
        "..#.#..",
        "..#.#..",
        ".#...#.",
        ".#####.",
        ".......",
    ]),
    3: _glyph([  # line nose
        "...#...",
        "...#...",
        "...#...",
        "...#...",
        "...##..",
        "...#...",
        ".......",
    ]),
    4: _glyph([  # smiling mouth
        ".......",
        "#.....#",
        "#.....#",
        ".#...#.",
        "..###..",
        ".......",
        ".......",
    ]),
    5: _glyph([  # flat mouth
        ".......",
        ".......",
        ".......",
        "#######",
        "#######",
        ".......",
        ".......",
    ]),
}

DISTRACTOR_GLYPHS = {
    16: _glyph([  # cross
        "...#...",
        "...#...",
        "...#...",
        "#######",
        "...#...",
        "...#...",
        "...#...",
    ]),
    17: _glyph([  # diamond
        "...#...",
        "..#.#..",
        ".#...#.",
        "#.....#",
        ".#...#.",
        "..#.#..",
        "...#...",
    ]),
    18: _glyph([  # corner
        "#######",
        "#......",
        "#......",
        "#......",
        "#......",
        "#......",
        "#......",
    ]),
    19: _glyph([  # zigzag
        "##.....",
        ".##....",
        "..##...",
        "...##..",
        "....##.",
        ".....##",
        "......#",
    ]),
    20: _glyph([  # tee
        "#######",
        "...#...",
        "...#...",
        "...#...",
        "...#...",
        "...#...",
        "...#...",
    ]),
    21: _glyph([  # checker
        "#.#.#.#",
        ".#.#.#.",
        "#.#.#.#",
        ".#.#.#.",
        "#.#.#.#",
        ".#.#.#.",
        "#.#.#.#",
    ]),
    22: _glyph([  # hollow square
        "#######",
        "#.....#",
        "#.....#",
        "#.....#",
        "#.....#",
        "#.....#",
        "#######",
    ]),
    23: _glyph([  # dots
        ".......",
        ".#...#.",
        ".......",
        "...#...",
        ".......",
        ".#...#.",
        ".......",
    ]),
}


@dataclass
class SceneGrammar:
    """AND-OR grammar: int children are terminal glyph ids, str are symbols."""

    terminals: dict  # glyph id -> bitmap
    or_rules: dict  # symbol -> [(child, likelihood)]
    and_rules: dict  # symbol -> [(child, (dy, dx), jitter)]
    start: str

    def __post_init__(self):
        for symbol, alts in self.or_rules.items():
            total = sum(p for _, p in alts)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"OR likelihoods for {symbol!r} sum to {total}")
        self._check_acyclic_and_grounded()

    def _children(self, symbol):
        if symbol in self.or_rules:
            return [c for c, _ in self.or_rules[symbol]]
        if symbol in self.and_rules:
            return [c for c, _, _ in self.and_rules[symbol]]
        return None

    def _check_acyclic_and_grounded(self):
        state = {}  # 0 visiting, 1 done

        def visit(sym, trail):
            if isinstance(sym, (int, np.integer)):
                if sym not in self.terminals:
                    raise ValueError(f"glyph {sym} has no terminal bitmap")
                return
            if state.get(sym) == 1:
                return
            if state.get(sym) == 0:
                raise ValueError(f"rule cycle through {sym!r}: {trail}")
            children = self._children(sym)
            if children is None:
                raise ValueError(f"symbol {sym!r} has no rule and is not a terminal")
            state[sym] = 0
            for child in children:
                visit(child, trail + [sym])
            state[sym] = 1

        visit(self.start, [])


def builtin_face_grammar():
    """Face as an AND of four part regions, each an OR over two glyphs."""
    return SceneGrammar(
        terminals=dict(FACE_GLYPHS),
        or_rules={
            "left_eye": [(0, 0.5), (1, 0.5)],
            "right_eye": [(0, 0.5), (1, 0.5)],
            "nose": [(2, 0.5), (3, 0.5)],
            "mouth": [(4, 0.5), (5, 0.5)],
        },
        and_rules={
            "face": [
                ("left_eye", (-6, -5), 1),
                ("right_eye", (-6, 5), 1),
                ("nose", (0, 0), 1),
                ("mouth", (6, 0), 1),
            ],
        },
        start="face",
    )


def builtin_distractor_grammar(n_families=8):
    """Non-face scenes: disjoint glyphs, 3-5 parts per family at random offsets.

    Family offsets are fixed at construction (PCG64 seed 0); scenes then
    choose a family uniformly and sample each part's glyph. More families
    mean more varied negatives, which keeps more capsule types in use.
    """
    rng = np.random.default_rng(np.random.PCG64(0))
    glyph_ids = sorted(DISTRACTOR_GLYPHS)
    or_rules = {}
    and_rules = {}
    families = []
    for fam in range(n_families):
        n_parts = int(rng.integers(3, 6))
        offsets = _spread_offsets(rng, n_parts)
        children = []
        for p in range(n_parts):
            part = f"f{fam}_part{p}"
            pair = rng.choice(glyph_ids, size=2, replace=False)
            or_rules[part] = [(int(pair[0]), 0.5), (int(pair[1]), 0.5)]
            children.append((part, offsets[p], 1))
        and_rules[f"family{fam}"] = children
        families.append(f"family{fam}")
    # a family is one alternative derivation of the whole scene
    or_rules["scene"] = [(fam, 1.0 / n_families) for fam in families]
    return SceneGrammar(
        terminals=dict(DISTRACTOR_GLYPHS),
        or_rules=or_rules,
        and_rules=and_rules,
        start="scene",
    )


def _spread_offsets(rng, n_parts, span=9, min_center_dist=7):
    """Random part offsets kept far enough apart that jitter cannot push
    box overlap past the allowed fraction."""
    offsets = []
    while len(offsets) < n_parts:
        cand = tuple(int(v) for v in rng.integers(-span, span + 1, size=2))
        if all(
            max(abs(cand[0] - o[0]), abs(cand[1] - o[1])) >= min_center_dist
            for o in offsets
        ):
            offsets.append(cand)
    return offsets


def _box_overlap_fraction(a, b):
    ay0, ax0, ay1, ax1 = a
    by0, bx0, by1, bx1 = b
    oy = max(0, min(ay1, by1) - max(ay0, by0))
    ox = max(0, min(ax1, bx1) - max(ax0, bx0))
    inter = oy * ox
    area = min((ay1 - ay0) * (ax1 - ax0), (by1 - by0) * (bx1 - bx0))
    return inter / area if area else 0.0


def sample_scene(grammar, rng, canvas=32, label=0):
    """Expand the grammar from its start symbol and render one scene.

    OR-rules sample by likelihood; AND-rules place children at their offset
    plus uniform integer jitter. Placement that leaves the canvas or makes
    two boxes overlap beyond the allowed fraction resamples the jitter, up
    to a retry limit. Deterministic given the rng state.
    """
    H = W = int(canvas)
    center = (H // 2, W // 2)
    canvas_failures = 0
    for _ in range(OVERLAP_RETRIES + 1):
        parts = []
        if not _expand(grammar, grammar.start, center, rng, (H, W), parts):
            canvas_failures += 1
            if canvas_failures > JITTER_RETRIES:
                raise ValueError(
                    f"part left the canvas after {JITTER_RETRIES} jitter resamples"
                )
            continue
        pairs = combinations([p["box"] for p in parts], 2)
        if all(_box_overlap_fraction(a, b) <= MAX_BOX_OVERLAP for a, b in pairs):
            manifest = {"label": int(label), "parts": parts}
            return render_manifest(grammar, manifest, canvas), manifest
    raise ValueError(
        f"boxes still overlap too much after {OVERLAP_RETRIES} jitter resamples"
    )


def _expand(grammar, symbol, center, rng, extent, parts, part_name=None):
    """Append the symbol's placed parts to ``parts``; False if one left the canvas."""
    if isinstance(symbol, (int, np.integer)):
        glyph = int(symbol)
        bitmap = grammar.terminals[glyph]
        gh, gw = bitmap.shape
        y0 = center[0] - gh // 2
        x0 = center[1] - gw // 2
        box = [y0, x0, y0 + gh, x0 + gw]
        if y0 < 0 or x0 < 0 or box[2] > extent[0] or box[3] > extent[1]:
            return False  # outside the canvas: caller resamples jitter
        parts.append({"name": part_name or str(glyph), "glyph": glyph, "box": box})
        return True
    if symbol in grammar.or_rules:
        alts = grammar.or_rules[symbol]
        probs = np.array([p for _, p in alts])
        choice = int(rng.choice(len(alts), p=probs))
        return _expand(grammar, alts[choice][0], center, rng, extent, parts, part_name=symbol)
    for child, (dy, dx), jitter in grammar.and_rules[symbol]:
        jy = int(rng.integers(-jitter, jitter + 1)) if jitter else 0
        jx = int(rng.integers(-jitter, jitter + 1)) if jitter else 0
        pos = (center[0] + dy + jy, center[1] + dx + jx)
        if not _expand(grammar, child, pos, rng, extent, parts, part_name=part_name):
            return False
    return True


def render_manifest(grammar, manifest, canvas=32):
    """Stamp the manifest's parts in order, then clamp: the replay function.

    Reads only ``manifest["parts"]``, so a loaded record renders as it is.
    Replaying a recorded manifest reproduces the sampled image bit-exactly.
    """
    H = W = int(canvas)
    img = np.zeros((1, H, W), dtype=np.float64)
    for part in manifest["parts"]:
        y0, x0, y1, x1 = part["box"]
        img[0, y0:y1, x0:x1] += grammar.terminals[part["glyph"]]
    np.clip(img, 0.0, 1.0, out=img)
    return img


def part_swap(image, manifest, rng):
    """Exchange the contents of two part boxes of equal extent.

    The pair is chosen uniformly among non-overlapping part pairs; pixels
    outside both boxes are untouched and the label is unchanged. Returns the
    corrupted image and ``{**manifest, "parts": new_parts, "swap": [i, j]}``,
    where the two parts trade glyphs; other keys pass through. Raises
    ValueError if the chosen boxes differ in extent, which no built-in
    grammar produces: its glyphs are all 7x7.
    """
    parts = manifest["parts"]
    if len(parts) < 2:
        raise ValueError("part_swap needs at least two parts")
    candidates = [
        (i, j)
        for i, j in combinations(range(len(parts)), 2)
        if _box_overlap_fraction(parts[i]["box"], parts[j]["box"]) == 0.0
    ]
    if not candidates:
        raise ValueError("all part pairs overlap; cannot swap")
    i, j = candidates[int(rng.integers(len(candidates)))]
    out = np.array(image, copy=True)
    y0a, x0a, y1a, x1a = parts[i]["box"]
    y0b, x0b, y1b, x1b = parts[j]["box"]
    if (y1a - y0a, x1a - x0a) != (y1b - y0b, x1b - x0b):
        raise ValueError(f"cannot swap unequal boxes {parts[i]['box']} and {parts[j]['box']}")
    patch_a = out[0, y0a:y1a, x0a:x1a].copy()
    out[0, y0a:y1a, x0a:x1a] = out[0, y0b:y1b, x0b:x1b]
    out[0, y0b:y1b, x0b:x1b] = patch_a
    new_parts = [dict(p) for p in parts]
    new_parts[i]["glyph"], new_parts[j]["glyph"] = parts[j]["glyph"], parts[i]["glyph"]
    return out, {**manifest, "parts": new_parts, "swap": [i, j]}
