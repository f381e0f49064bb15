"""Named permutation-group presets."""

from __future__ import annotations

import os

from .. import MalformedInput, clip, read_json
from .groups import PermGroup, perm_group

# name -> (degree, generators)
GROUP_PRESETS = {
    "c2": (2, [(1, 0)]),
    "c4": (4, [(1, 2, 3, 0)]),
    "s3": (3, [(1, 0, 2), (1, 2, 0)]),
    # rotation (1234) and reflection (13)
    "d4": (4, [(1, 2, 3, 0), (2, 1, 0, 3)]),
    # left translation on {1, -1, i, -i, j, -j, k, -k} by i and j
    "q8": (8, [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]),
    "a4": (4, [(1, 0, 3, 2), (1, 2, 0, 3)]),
}


def get_group(name: str) -> PermGroup:
    """Resolve a preset name or a JSON file path to a PermGroup."""
    if name in GROUP_PRESETS:
        return perm_group(*GROUP_PRESETS[name])
    if os.path.isfile(name):        # False, not OSError, for a long name
        return PermGroup.from_json(read_json(name))
    raise MalformedInput(f"unknown group preset or file: {clip(name)}")
