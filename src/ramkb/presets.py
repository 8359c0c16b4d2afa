"""Frozen pattern constants that reduce the model to classic bilinear scorers.

Each preset fixes the pattern matrices (entries in {0, 1/2}) and the term
signs so that the multilinear score of a binary fact coincides with the
corresponding bilinear model evaluated on the same parameter blocks. The
`reference_score` functions evaluate those bilinear forms directly (complex
and quaternion algebra included) and exist as an independent check of the
pattern-matrix path.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

PRESET_KINDS = ("DistMult", "SimplE", "ComplEx", "QuatE")

# per kind: multiplicity of entity embeddings, of role embeddings, and
# pattern matrices per role embedding
PRESET_DIMS = {
    "DistMult": (2, 1, 1),
    "SimplE": (2, 1, 1),
    "ComplEx": (2, 1, 2),
    "QuatE": (4, 2, 4),
}

# (head component, tail component, sign) per term, indexed [role][j][k]
_TERM_TABLE = {
    "DistMult": [[[(0, 0, +1)]], [[(1, 1, +1)]]],
    "SimplE": [[[(0, 1, +1)]], [[(1, 0, +1)]]],
    "ComplEx": [
        [[(0, 0, +1), (1, 1, +1)]],
        [[(0, 1, +1), (1, 0, -1)]],
    ],
    "QuatE": [
        [
            [(0, 0, +1), (1, 1, +1), (2, 2, +1), (3, 3, +1)],
            [(0, 1, +1), (1, 0, -1), (2, 3, +1), (3, 2, -1)],
        ],
        [
            [(0, 2, +1), (1, 3, -1), (2, 0, -1), (3, 1, +1)],
            [(0, 3, +1), (1, 2, +1), (2, 1, -1), (3, 0, -1)],
        ],
    ],
}


def preset_patterns(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Fixed pattern matrices and term signs for one preset.

    Returns (patterns, signs) with patterns of shape
    (2, role_multiplicity, patterns_per_role, 2, multiplicity) and signs of
    shape (2, role_multiplicity, patterns_per_role). The patterns are binary;
    preset mode rejects a vocabulary with any other arity.
    """
    if kind not in PRESET_KINDS:
        raise ConfigError(f"unknown preset {kind!r}; expected one of {PRESET_KINDS}")
    m, mg, npm = PRESET_DIMS[kind]
    patterns = np.zeros((2, mg, npm, 2, m))
    signs = np.zeros((2, mg, npm))
    for i in range(2):
        for j in range(mg):
            for k, (hc, tc, sign) in enumerate(_TERM_TABLE[kind][i][j]):
                patterns[i, j, k, 0, hc] = 0.5
                patterns[i, j, k, 1, tc] = 0.5
                signs[i, j, k] = sign
    return patterns, signs


def hamilton_product(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Coordinate-wise Hamilton product of quaternion vectors.

    Inputs are stacked as (4, d) arrays of the scalar, i, j, k components.
    """
    a1, b1, c1, d1 = q1
    a2, b2, c2, d2 = q2
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ]
    )


def reference_score(
    kind: str, role_vecs: np.ndarray, head: np.ndarray, tail: np.ndarray
) -> float:
    """Bilinear-model score evaluated directly on preset-shaped parameters.

    `role_vecs` has shape (2, role_multiplicity, d) and head/tail are entity
    blocks of shape (multiplicity, d). Includes the 1/4 factor produced by
    the half-entry pattern matrices, so the value is directly comparable to
    the preset-mode multilinear score.
    """
    if kind == "DistMult":
        r = np.concatenate([role_vecs[0, 0], role_vecs[1, 0]])
        h = np.concatenate([head[0], head[1]])
        t = np.concatenate([tail[0], tail[1]])
        return 0.25 * float(np.sum(r * h * t))
    if kind == "SimplE":
        fwd = np.sum(role_vecs[0, 0] * head[0] * tail[1])
        inv = np.sum(role_vecs[1, 0] * head[1] * tail[0])
        return 0.25 * float(fwd + inv)
    if kind == "ComplEx":
        r = role_vecs[0, 0] + 1j * role_vecs[1, 0]
        h = head[0] + 1j * head[1]
        t = tail[0] + 1j * tail[1]
        return 0.25 * float(np.real(np.sum(r * h * np.conj(t))))
    if kind == "QuatE":
        w = np.stack([role_vecs[0, 0], role_vecs[0, 1], role_vecs[1, 0], role_vecs[1, 1]])
        rotated = hamilton_product(w, head)
        return 0.25 * float(np.sum(rotated * tail))
    raise ConfigError(f"unknown preset {kind!r}; expected one of {PRESET_KINDS}")
