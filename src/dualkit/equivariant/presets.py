"""Named permutation-group presets."""

from __future__ import annotations

import json
from pathlib import Path

from .groups import PermGroup, perm_group


def _c2():
    return perm_group(2, [(1, 0)])


def _c4():
    return perm_group(4, [(1, 2, 3, 0)])


def _s3():
    return perm_group(3, [(1, 0, 2), (1, 2, 0)])


def _d4():
    # rotation (1234) and reflection (13)
    return perm_group(4, [(1, 2, 3, 0), (2, 1, 0, 3)])


def _q8():
    # left translation on {1, -1, i, -i, j, -j, k, -k} by i and j
    return perm_group(8, [(2, 3, 1, 0, 6, 7, 5, 4),
                          (4, 5, 7, 6, 1, 0, 2, 3)])


def _a4():
    return perm_group(4, [(1, 0, 3, 2), (1, 2, 0, 3)])


GROUP_PRESETS = {
    "c2": _c2,
    "c4": _c4,
    "s3": _s3,
    "d4": _d4,
    "q8": _q8,
    "a4": _a4,
}


def get_group(name: str) -> PermGroup:
    """Resolve a preset name or a JSON file path to a PermGroup."""
    if name in GROUP_PRESETS:
        return GROUP_PRESETS[name]()
    path = Path(name)
    if path.is_file():
        return PermGroup.from_json(json.loads(path.read_text()))
    raise KeyError(f"unknown group preset or file: {name}")
